"""Every scenario family and every published figure, declared once.

Importing this module registers every paper experiment and ablation
with :mod:`repro.experiments.runner` under stable names.  Two tables
drive everything else:

* :data:`FAMILIES` -- one :class:`Family` per scenario: its registered
  name, run function, Arm type, default params and sweep axis.  Its
  scenario takes only JSON-able params (an arm travels as
  ``dataclasses.asdict(arm)``) and returns the run's picklable payload,
  so any arm x seed x parameter point is a
  :class:`~repro.experiments.runner.RunSpec` a worker process can run.
* :data:`FIGURES` -- one :class:`Figure` per published table or figure:
  its family, arms and ``render(payloads) -> str``.

:func:`figure_specs`, the ``repro`` figure subcommands and the
``benchmarks/`` modules are all generated from these two tables, so a
figure's specs, its CLI output and its ``results/<figure>.txt`` cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunSpec, scenario
from repro.experiments import ablations
from repro.experiments.priority_exp import (
    PriorityArm,
    render_fig4_control_runs,
    render_fig5_thread_priority,
    render_fig6_combined_priority,
    run_priority_experiment,
)
from repro.experiments.reservation_cpu_exp import (
    CpuArm,
    all_arms as cpu_all_arms,
    render_table2_cpu_reservation,
    run_cpu_reservation_experiment,
)
from repro.experiments.fault_exp import (
    FaultArm,
    all_arms as fault_all_arms,
    render_fig8_fault_adaptation,
    run_fault_injection_experiment,
)
from repro.experiments.reservation_net_exp import (
    NetworkArm,
    all_arms as net_all_arms,
    render_fig7_frame_delivery,
    render_table1_network_reservation,
    run_network_reservation_experiment,
)
from repro.experiments.route_exp import (
    RouteArm,
    render_fig11_route,
    route_arms,
    run_route_experiment,
)
from repro.scale.capacity_exp import (
    CapacityArm,
    all_arms as capacity_all_arms,
    fig9_stream_counts,
    render_fig9_capacity,
    run_capacity_experiment,
)
from repro.scale.fig10 import (
    ScaleArm,
    fig10_stream_counts,
    render_fig10_scale,
    run_scale_experiment,
    scale_arms,
)
from repro.pubsub.fig12 import (
    PubSubArm,
    fig12_subscriber_counts,
    pubsub_arms,
    render_fig12_pubsub,
    run_pubsub_experiment,
)


@dataclass(frozen=True)
class Family:
    """One registered scenario.

    ``run(arm, seed=..., **params)`` builds and runs one arm of
    ``arm_type``; with ``arm_type=None`` (the ablations) an arm is a
    param dict and ``run(**params)`` owns its randomness.  ``params``
    are the defaults every figure of the family starts from; ``sweep``
    names the param a figure sweeps over, if any.  ``flags`` are extra
    ``repro`` options as ``(flag, argparse kwargs)`` pairs, each with a
    ``dest`` naming the param it sets (``None`` leaves it unset).
    """

    scenario: str
    run: Callable[..., Any]
    arm_type: Optional[type] = None
    params: Dict[str, Any] = field(default_factory=dict)
    sweep: Optional[str] = None
    flags: Tuple[Tuple[str, Dict[str, Any]], ...] = ()

    @property
    def seed(self) -> Optional[int]:
        return None if self.arm_type is None else 1


@dataclass(frozen=True)
class Figure:
    """One published table or figure: ``results/<name>.txt``.

    ``render`` turns the payloads of :meth:`specs`, in spec order, into
    the published text; it also accepts any subset of the arms.
    ``counts`` are the sweep points of a swept family.  A figure with a
    ``command`` gets a ``repro <command>`` subcommand.
    """

    name: str
    family: Family
    arms: Tuple[Any, ...]
    render: Callable[[List[Any]], str]
    counts: Tuple[int, ...] = ()
    command: Optional[str] = None
    help: str = ""

    def specs(self, arms: Optional[Sequence[Any]] = None,
              counts: Sequence[int] = (), seed: Optional[int] = None,
              **overrides: Any) -> List[RunSpec]:
        """The figure's RunSpecs, arm-major; any argument left out
        takes the figure's declared value."""
        family = self.family
        params = {**family.params, **overrides}
        seed = family.seed if seed is None else seed
        arms = self.arms if arms is None else arms
        if family.arm_type is None:
            return [RunSpec(family.scenario, {**params, **arm}, seed=seed)
                    for arm in arms]
        points = ([{family.sweep: n} for n in counts or self.counts]
                  if family.sweep else [{}])
        return [RunSpec(family.scenario,
                        {"arm": asdict(arm), **params, **point}, seed=seed)
                for arm in arms for point in points]


PRIORITY = Family("priority", run_priority_experiment, PriorityArm,
                  {"duration": 30.0})
NETWORK = Family("reservation_net", run_network_reservation_experiment,
                 NetworkArm,
                 {"duration": 300.0, "load_start": 60.0, "load_end": 120.0})
CPU = Family("reservation_cpu", run_cpu_reservation_experiment, CpuArm,
             {"duration": 120.0})
FAULTS = Family("faults", run_fault_injection_experiment, FaultArm,
                {"duration": 120.0})
ROUTE = Family("route", run_route_experiment, RouteArm,
               {"duration": 40.0, "routers": 56},
               flags=(("--topology", {
                   "dest": "topology", "default": None,
                   "choices": ["waxman", "fattree", "wan"],
                   "help": "topology generator (default waxman)"}),))
CAPACITY = Family("capacity", run_capacity_experiment, CapacityArm,
                  {"duration": 12.0}, sweep="streams")
SCALE = Family("scale", run_scale_experiment, ScaleArm,
               {"duration": 8.0, "fluid": True}, sweep="streams",
               flags=(("--packet-level", {
                   "dest": "fluid", "action": "store_false",
                   "help": "packet-simulate every stream instead of the "
                           "hybrid fluid model (validation mode; only "
                           "sensible at small N)"}),))
PUBSUB = Family("pubsub", run_pubsub_experiment, PubSubArm,
                {"duration": 8.0}, sweep="subscribers")
ECN = Family("ablation_ecn", ablations.run_ecn_arm)
PHB = Family("ablation_phb", ablations.run_phb_arm)
RESERVE_POLICY = Family("ablation_reserve_policy",
                        ablations.run_reserve_policy_arm)
PRIORITY_DRIVEN = Family("ablation_priority_driven",
                         ablations.run_priority_driven_arm)

FAMILIES: Tuple[Family, ...] = (
    PRIORITY, NETWORK, CPU, FAULTS, ROUTE, CAPACITY, SCALE, PUBSUB,
    ECN, PHB, RESERVE_POLICY, PRIORITY_DRIVEN,
)


def _register(family: Family) -> None:
    run, arm_type = family.run, family.arm_type
    if arm_type is None:
        def call(seed: Optional[int] = None, **params: Any) -> Any:
            del seed  # an ablation arm fixes its own randomness
            return run(**params)
    else:
        def call(arm: Dict[str, Any], seed: int = 1, **params: Any) -> Any:
            return run(arm_type(**arm), seed=seed, **params)
    scenario(family.scenario)(call)


for _family in FAMILIES:
    _register(_family)


@scenario("soak_case")
def _soak_case(case: Dict[str, Any], seed: Optional[int] = None):
    """One randomized soak run under the invariant-checker suite.

    The case dict already carries its derived seed; the engine-level
    ``seed`` is unused and accepted only for uniformity.
    """
    del seed
    from repro.check.soak import run_soak_case
    return run_soak_case(case)


# ----------------------------------------------------------------------
# The paper's figure suite
# ----------------------------------------------------------------------
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("fig4_control_runs", PRIORITY,
           (PriorityArm.figure4a(), PriorityArm.figure4b()),
           render_fig4_control_runs,
           command="fig4", help="control runs (idle vs congested)"),
    Figure("fig5_thread_priority", PRIORITY,
           (PriorityArm.figure5a(), PriorityArm.figure5b()),
           render_fig5_thread_priority,
           command="fig5", help="thread priorities alone"),
    Figure("fig6_combined_priority", PRIORITY,
           (PriorityArm.figure5b(), PriorityArm.figure6()),
           render_fig6_combined_priority,
           command="fig6", help="thread priorities + DSCP"),
    Figure("fig7_frame_delivery", NETWORK,
           (NetworkArm("1-none", None, False),
            NetworkArm("5-partial-filtering", "partial", True),
            NetworkArm("3-full", "full", False)),
           render_fig7_frame_delivery,
           command="fig7", help="fig 7 cumulative frame delivery "
                                "(three network-reservation arms)"),
    Figure("fig8_fault_adaptation", FAULTS, tuple(fault_all_arms()),
           render_fig8_fault_adaptation,
           command="faults",
           help="fault-injection experiment (fig 8 chaos arms)"),
    Figure("fig9_capacity", CAPACITY, tuple(capacity_all_arms()),
           render_fig9_capacity,
           counts=tuple(fig9_stream_counts()),
           command="capacity",
           help="fig 9 capacity sweep (N streams x four arms)"),
    Figure("fig10_scale", SCALE, tuple(scale_arms()),
           render_fig10_scale,
           counts=tuple(fig10_stream_counts()),
           command="scale", help="fig 10 hybrid fluid/packet scale sweep "
                                 "(10^2..10^5 streams x four arms)"),
    Figure("fig12_pubsub", PUBSUB, tuple(pubsub_arms()),
           render_fig12_pubsub,
           counts=tuple(fig12_subscriber_counts()),
           command="pubsub",
           help="fig 12 declarative-QoS pub-sub fan-out gauntlet "
                "(K publishers x M subscribers x seven arms)"),
    Figure("fig11_route", ROUTE, tuple(route_arms()), render_fig11_route,
           command="route",
           help="fig 11 rerouting gauntlet (backbone cut on a generated "
                "topology, four recovery arms)"),
    Figure("table1_network_reservation", NETWORK, tuple(net_all_arms()),
           render_table1_network_reservation,
           command="table1", help="network reservation experiment"),
    Figure("table2_cpu_reservation", CPU, tuple(cpu_all_arms()),
           render_table2_cpu_reservation,
           command="table2", help="CPU reservation experiment"),
    Figure("ablation_ecn", ECN, ({"use_red": False}, {"use_red": True}),
           ablations.render_ablation_ecn),
    Figure("ablation_phb", PHB, ({"diffserv": False}, {"diffserv": True}),
           ablations.render_ablation_phb),
    Figure("ablation_reserve_policy", RESERVE_POLICY,
           ({"policy": "HARD"}, {"policy": "SOFT"}),
           ablations.render_ablation_reserve_policy),
    Figure("ablation_priority_driven_reservation", PRIORITY_DRIVEN,
           ({"priority_driven": False}, {"priority_driven": True}),
           ablations.render_ablation_priority_driven),
)}


def figure_specs() -> Dict[str, List[RunSpec]]:
    """Every figure/table as its canonical list of RunSpecs.

    These are the exact specs the benchmark suite runs (same
    durations, same seeds), so ``repro bench``, ``repro <command>`` at
    default flags and ``pytest benchmarks/`` share cache entries.
    """
    return {name: figure.specs() for name, figure in FIGURES.items()}
