"""Paper-style text rendering of experiment results.

Each function returns a string shaped like the corresponding table or
figure caption in the paper, so benchmark output can be eyeballed
against the original side by side.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.binding import PropagationHop
from repro.core.metrics import SeriesStats


def _rule(widths: Sequence[int]) -> str:
    return "+".join("-" * (w + 2) for w in widths)


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Plain-text table with padded columns."""
    materialized: List[List[str]] = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        _rule(widths).replace("+", "-+-")[: sum(widths) + 3 * len(widths) - 3],
    ]
    for row in materialized:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure2(hops: Sequence[PropagationHop]) -> str:
    """The Fig 2 priority-propagation chain."""
    rows = []
    for hop in hops:
        rows.append((
            hop.role,
            hop.host,
            hop.os_type.value,
            hop.corba_priority,
            hop.native_priority,
            hop.dscp.name if hop.dscp else "-",
        ))
    return render_table(
        ("role", "host", "os", "corba prio", "native prio", "dscp"), rows
    )


def render_latency_table(
    arm_stats: Dict[str, Dict[str, SeriesStats]]
) -> str:
    """Figs 4-6 summary: per-arm, per-sender latency statistics."""
    rows = []
    for arm_name, senders in arm_stats.items():
        for sender_name, stats in senders.items():
            rows.append((
                arm_name,
                sender_name,
                stats.count,
                f"{stats.mean * 1e3:.2f}",
                f"{stats.std * 1e3:.2f}",
                f"{stats.maximum * 1e3:.1f}",
            ))
    return render_table(
        ("arm", "sender", "frames", "mean ms", "std ms", "max ms"), rows
    )


def render_table1(
    rows: Sequence[Tuple[str, float, SeriesStats]],
    jitter: Optional[Sequence[SeriesStats]] = None,
) -> str:
    """Table 1: (arm name, delivered fraction, latency stats) rows,
    optionally extended with an inter-arrival jitter column (the
    paper's 'minimal jitter' QoS dimension)."""
    headers = ["configuration", "% frames delivered (under load)",
               "average latency", "std dev (ms)"]
    if jitter is not None:
        headers.append("interarrival jitter (ms)")
    formatted = []
    for index, (name, fraction, stats) in enumerate(rows):
        row = [
            name,
            f"{fraction * 100:.2f}%",
            f"{stats.mean * 1e3:.1f} ms",
            f"{stats.std * 1e3:.1f}",
        ]
        if jitter is not None:
            row.append(f"{jitter[index].std * 1e3:.1f}")
        formatted.append(row)
    return render_table(headers, formatted)


def render_table2(
    arm_stats: Dict[str, Dict[str, SeriesStats]],
    algorithms: Sequence[str] = ("Kirsch", "Prewitt", "Sobel"),
) -> str:
    """Table 2: per-algorithm rows, per-condition columns."""
    headers = ["algorithm"]
    for arm_name in arm_stats:
        headers.extend([f"{arm_name} avg ms", f"{arm_name} std"])
    rows = []
    for algorithm in algorithms:
        row: List[str] = [algorithm]
        for stats_by_algorithm in arm_stats.values():
            stats = stats_by_algorithm[algorithm]
            row.append(f"{stats.mean * 1e3:.1f}")
            row.append(f"{stats.std * 1e3:.1f}")
        rows.append(row)
    return render_table(headers, rows)


def render_series(
    title: str, series: Sequence[Tuple[float, float]], unit: str = "ms",
    scale: float = 1e3,
) -> str:
    """A (time, value) series as text — the 'figure' data."""
    lines = [title]
    for time, value in series:
        lines.append(f"  t={time:8.2f}s  {value * scale:10.3f} {unit}")
    return "\n".join(lines)


def render_cumulative_delivery(
    title: str, rows: Sequence[Tuple[float, int, int]]
) -> str:
    """Fig 7: cumulative frames sent vs received over time."""
    lines = [title, "  time      sent  received"]
    for time, sent, received in rows:
        lines.append(f"  t={time:7.1f}s {sent:6d} {received:9d}")
    return "\n".join(lines)


def group_sweeps(payloads: Iterable[Any], axis: str) -> Dict[str, List[Any]]:
    """Sweep payloads as ``{arm name: [payload, ...]}``, each list
    ordered by the payload's ``axis`` attribute (e.g. ``streams``)."""
    sweeps: Dict[str, List[Any]] = {}
    for payload in payloads:
        sweeps.setdefault(payload.arm.name, []).append(payload)
    for results in sweeps.values():
        results.sort(key=lambda result: getattr(result, axis))
    return sweeps
