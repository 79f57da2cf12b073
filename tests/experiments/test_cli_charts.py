"""Tests for the CLI runner and its generated figure subcommands."""

import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario_registry import FIGURES

COMMANDS = {figure.command: figure for figure in FIGURES.values()
            if figure.command is not None}


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("fig4", "fig5", "fig6", "table1", "fig7", "table2",
                    "faults", "route", "capacity", "scale", "pubsub"):
        args = parser.parse_args([command])
        assert callable(args.func)
    assert set(COMMANDS) == {"fig4", "fig5", "fig6", "table1", "fig7",
                             "table2", "faults", "route", "capacity",
                             "scale", "pubsub"}


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_generated_command_rejects_unknown_arm(command):
    names = ", ".join(arm.name for arm in COMMANDS[command].arms)
    message = f"unknown arm 'nonsense'; choose from: {names}"
    with pytest.raises(SystemExit, match=re.escape(message)):
        main([command, "--arm", "nonsense"])


@pytest.mark.parametrize("command, flag", [
    ("capacity", "--streams"), ("scale", "--streams"),
    ("pubsub", "--subscribers")])
@pytest.mark.parametrize("value", ["x", "0"])
def test_sweep_counts_are_validated(command, flag, value, capsys):
    with pytest.raises(SystemExit):
        main([command, flag, value])
    assert "positive counts" in capsys.readouterr().err


def test_cli_fig4_runs_end_to_end(capsys):
    assert main(["fig4", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "fig4a (idle)" in out
    assert "sender1" in out


def test_cli_table2_runs_end_to_end(capsys):
    assert main(["-j", "1", "--no-cache", "table2", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        assert algorithm in out
    # The subcommand prints exactly the declared renderer's text.
    figure = FIGURES["table2_cpu_reservation"]
    payloads = ExperimentRunner(jobs=1, cache=False).payloads(
        figure.specs(duration=10.0))
    assert out == figure.render(payloads) + "\n"


def test_cli_table1_single_arm(capsys):
    assert main([
        "table1", "--duration", "20", "--load-start", "5",
        "--load-end", "15", "--arm", "3-full",
    ]) == 0
    out = capsys.readouterr().out
    assert "3-full" in out
    assert "1-none" not in out


def test_cli_unknown_arm_rejected():
    with pytest.raises(SystemExit, match="unknown arm"):
        main(["table1", "--duration", "5", "--arm", "nonsense"])


def test_cli_fig7_chart_output(capsys):
    assert main([
        "fig7", "--duration", "30", "--load-start", "5",
        "--load-end", "15", "--arm", "3-full",
    ]) == 0
    out = capsys.readouterr().out
    assert "Fig 7 — full reservation" in out
    assert "  time      sent  received" in out
    rows = [line.split() for line in out.splitlines()
            if line.startswith("  t=")]
    assert len(rows) == 16  # bins scale with --duration: 30 s / 15
    assert int(rows[-1][-2]) > 0  # the cumulative sent count grew
