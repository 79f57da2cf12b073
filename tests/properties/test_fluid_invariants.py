"""Property tests: fluid-engine conservation and share invariants.

Random admit/revoke/rate-change/fault programs over a two-hop fluid
topology, checked shortly after every epoch and again at finalize:

- per-link served aggregate never exceeds capacity (shares "sum" to
  at most the link rate) and both class shares stay in [0, 1];
- every byte ledger is non-negative and conserved
  (``offered == served + lost``) per flow *and* per link;
- the hybrid residual (:attr:`FluidLink.packet_residual_bps`) is never
  negative — it keeps at least the capacity floor at all times;
- piecewise-constant epoch integration is *exact*: a flow's offered
  bytes equal the analytic integral of its rate program.
"""

from hypothesis import given, settings, strategies as st

from repro.fluid.engine import FluidEngine, MIN_RESIDUAL_FRACTION
from repro.sim.kernel import Kernel

QUANTUM = 1e-3
CAPACITY = st.floats(min_value=1e6, max_value=50e6)
RATE = st.floats(min_value=0.0, max_value=30e6)
DELAY = st.floats(min_value=0.0, max_value=0.5)
PATH = st.sampled_from(("l1", "l2", "l1+l2"))

ADD = st.tuples(st.just("add"), RATE, st.booleans(), st.booleans(), PATH)
REMOVE = st.tuples(st.just("remove"), st.integers(0, 60))
SET_RATE = st.tuples(st.just("set_rate"), st.integers(0, 60), RATE)
FAULT = st.tuples(st.just("fault"), st.sampled_from(("l1", "l2")),
                  st.booleans())
PACKET_LOAD = st.tuples(st.just("packet_load"), st.sampled_from(("l1", "l2")),
                        st.floats(min_value=0.0, max_value=5e6),
                        st.booleans())
OPS = st.lists(st.tuples(DELAY, st.one_of(ADD, REMOVE, SET_RATE, FAULT,
                                          PACKET_LOAD)),
               max_size=30)


def conserved(offered, served, lost):
    slack = max(1e-6, 1e-9 * offered)
    assert offered >= -slack
    assert served >= -slack
    assert lost >= -slack
    assert abs(offered - (served + lost)) <= slack


def check_world(engine):
    """Every invariant the fluid ledger promises, at one instant."""
    for link in engine.links():
        assert 0.0 <= link.reserved_share <= 1.0 + 1e-12
        assert 0.0 <= link.be_share <= 1.0 + 1e-12
        cap = link.capacity_bps if link.up else 0.0
        assert link.fluid_served_bps <= cap * (1.0 + 1e-9) + 1e-6
        # The hybrid residual is never negative — the packet plane
        # always keeps at least the floor fraction of raw capacity.
        assert (link.packet_residual_bps
                >= link.capacity_bps * MIN_RESIDUAL_FRACTION * (1 - 1e-12))
        assert link.be_queue_delay >= 0.0
        conserved(link.offered_bytes, link.served_bytes, link.lost_bytes)
    for flow in engine.flows():
        assert -1e-12 <= flow.served_share <= 1.0 + 1e-9
        assert flow.rate_bps >= 0.0
        assert flow.shed_bytes >= 0.0
        assert 0.0 <= flow.loss_fraction <= 1.0 + 1e-12
        conserved(flow.offered_bytes, flow.served_bytes, flow.lost_bytes)


@given(CAPACITY, CAPACITY, OPS)
@settings(max_examples=50, deadline=None)
def test_prop_random_programs_keep_the_ledger_sound(cap1, cap2, ops):
    """No admit/revoke/fault program can break conservation, push a
    share out of [0, 1], overserve a link, or starve the residual."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=QUANTUM)
    links = {"l1": engine.add_link("l1", cap1),
             "l2": engine.add_link("l2", cap2)}

    def path_of(label):
        if label == "l1+l2":
            return [links["l1"], links["l2"]]
        return [links[label]]

    next_id = [0]

    def apply(op):
        kind = op[0]
        names = [f.name for f in engine.flows()]
        if kind == "add":
            _, rate, reserved, adaptive, path = op
            engine.add_flow(f"f{next_id[0]}", rate, path_of(path),
                            reserved=reserved, adaptive=adaptive)
            next_id[0] += 1
        elif kind == "remove" and names:
            engine.remove_flow(names[op[1] % len(names)])
        elif kind == "set_rate" and names:
            engine.set_rate(names[op[1] % len(names)], op[2])
        elif kind == "fault":
            links[op[1]].on_link_state(op[2])
        elif kind == "packet_load":
            links[op[1]].register_packet_load(op[2], reserved=op[3])

    t = 0.0
    for delay, op in ops:
        t += delay
        kernel.schedule_at(t, apply, op)
        # Probe just after the op's coalesced epoch has fired.
        kernel.schedule_at(t + 2 * QUANTUM, check_world, engine)
    kernel.run(until=t + 1.0)
    engine.finalize()
    check_world(engine)


@given(
    CAPACITY,
    st.lists(st.tuples(st.floats(min_value=1e-3, max_value=2.0), RATE),
             min_size=1, max_size=15),
)
@settings(max_examples=50, deadline=None)
def test_prop_epoch_integration_is_exact(capacity, program):
    """A non-adaptive flow's offered bytes equal the analytic integral
    of its piecewise-constant rate program — integration happens at op
    times (not quantized ticks), so no bytes leak at epoch edges."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=QUANTUM)
    link = engine.add_link("l", capacity)
    first_rate = program[0][1]
    engine.add_flow("f", first_rate, [link])

    t = 0.0
    segments = []  # (duration, rate) actually in force
    rate = first_rate
    for duration, next_rate in program:
        segments.append((duration, rate))
        t += duration
        kernel.schedule_at(t, engine.set_rate, "f", next_rate)
        rate = next_rate
    tail = 0.25
    segments.append((tail, rate))
    kernel.run(until=t + tail)
    engine.finalize()

    flow = engine.flow("f")
    expected = sum(dur * r for dur, r in segments) / 8.0
    slack = max(1e-6, 1e-9 * expected)
    assert abs(flow.offered_bytes - expected) <= slack
    assert abs(flow.active_seconds - sum(d for d, _ in segments)) <= 1e-9
    conserved(flow.offered_bytes, flow.served_bytes, flow.lost_bytes)
    # Single hop: the link saw exactly what the flow offered.
    assert abs(link.offered_bytes - flow.offered_bytes) <= slack


@given(
    st.floats(min_value=2e6, max_value=20e6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=50, deadline=None)
def test_prop_shares_never_overserve_capacity(capacity, n_be, n_res):
    """However demand is split across classes, the served aggregate
    (fluid plus the reserved packet budget) fits inside the link."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=QUANTUM)
    link = engine.add_link("l", capacity)
    # Reserved demand capped under capacity (admission's invariant);
    # best effort is free to overload.
    res_rate = capacity * 0.8 / n_res if n_res else 0.0
    for i in range(n_res):
        engine.add_flow(f"r{i}", res_rate, [link], reserved=True)
    for i in range(n_be):
        engine.add_flow(f"b{i}", capacity, [link])
    kernel.run(until=1.0)
    engine.finalize()
    assert link.fluid_served_bps <= capacity * (1.0 + 1e-9)
    assert link.reserved_share == 1.0  # admission kept reserves feasible
    served = sum(f.rate_bps * f.served_share for f in engine.flows())
    assert served <= capacity * (1.0 + 1e-9)
    assert link.packet_residual_bps > 0.0
    check_world(engine)


# ----------------------------------------------------------------------
# Cohorts: one count=k flow is bit-identical to k consecutive flows
# ----------------------------------------------------------------------
LINK_NAMES = ("l0", "l1", "l2")
#: A path of one to three distinct links, in any order.
COHORT_PATH = st.permutations(LINK_NAMES).flatmap(
    lambda order: st.integers(1, 3).map(lambda k: tuple(order[:k])))
COHORT = st.tuples(
    RATE, st.booleans(), st.booleans(), COHORT_PATH,
    st.integers(min_value=1, max_value=6),                  # members
    st.one_of(st.none(), st.floats(min_value=1e-4, max_value=0.05)),
)
COHORT_OPS = st.lists(st.tuples(DELAY, st.one_of(
    st.tuples(st.just("add"), COHORT),
    st.tuples(st.just("remove"), st.integers(0, 20)),
    st.tuples(st.just("set_rate"), st.integers(0, 20), RATE),
    st.tuples(st.just("fault"), st.sampled_from(LINK_NAMES), st.booleans()),
    st.tuples(st.just("packet_load"), st.sampled_from(LINK_NAMES),
              st.floats(min_value=0.0, max_value=5e6), st.booleans()),
)), max_size=20)

FLOW_FIELDS = (
    "rate_bps", "nominal_bps", "served_share", "latency",
    "offered_bytes", "served_bytes", "lost_bytes", "shed_bytes",
    "served_on_time_bytes", "latency_time_sum", "active_seconds",
)
LINK_FIELDS = (
    "reserved_share", "be_share", "fluid_served_bps", "fluid_be_in_bps",
    "packet_residual_bps", "be_queue_delay",
    "offered_bytes", "served_bytes", "lost_bytes",
)


def cohort_world(caps, governor_delay, initial, ops, spelled_out):
    """Run one cohort program; with ``spelled_out`` every cohort of k
    becomes k consecutive ``count=1`` flows named ``<cohort>#<j>``.

    Returns a snapshot of every member and link figure (as float hex,
    so equality is bit equality) after each op's epoch and at the end.
    """
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=QUANTUM,
                         governor_delay=governor_delay)
    links = {name: engine.add_link(name, cap)
             for name, cap in zip(LINK_NAMES, caps)}
    live = []  # (cohort name, members), insertion order
    snapshots = []
    added = []  # one entry per cohort ever added, so names never repeat

    def members(name, k):
        return [f"{name}#{j}" for j in range(k)] if spelled_out else [name]

    def add(spec):
        rate, reserved, adaptive, path, k, deadline = spec
        name = f"c{len(snapshots)}-{len(added)}"
        added.append(name)
        for flow_name in members(name, k):
            engine.add_flow(flow_name, rate, [links[hop] for hop in path],
                            reserved=reserved, adaptive=adaptive,
                            deadline=deadline,
                            count=1 if spelled_out else k)
        live.append((name, k))

    def apply(op):
        kind = op[0]
        if kind == "add":
            add(op[1])
        elif kind in ("remove", "set_rate") and live:
            name, k = live[op[1] % len(live)]
            for flow_name in members(name, k):
                if kind == "remove":
                    engine.remove_flow(flow_name)
                else:
                    engine.set_rate(flow_name, op[2])
            if kind == "remove":
                live.remove((name, k))
        elif kind == "fault":
            links[op[1]].on_link_state(op[2])
        elif kind == "packet_load":
            links[op[1]].register_packet_load(op[2], reserved=op[3])

    def snapshot():
        figures = [engine.epochs, engine.governor_transitions,
                   kernel.events_executed]
        for name, k in live:
            flows = [engine.flow(flow_name)
                     for flow_name in members(name, k)]
            # Every spelled-out member carries the cohort's figures.
            figures.append([[getattr(flow, field).hex()
                             for field in FLOW_FIELDS] for flow in flows]
                           if spelled_out else
                           [[getattr(flows[0], field).hex()
                             for field in FLOW_FIELDS]] * k)
        for link in engine.links():
            figures.append([getattr(link, field).hex()
                            for field in LINK_FIELDS])
        snapshots.append(figures)

    for spec in initial:
        add(spec)
    t = 0.0
    for delay, op in ops:
        t += delay
        kernel.schedule_at(t, apply, op)
        kernel.schedule_at(t + 2 * QUANTUM, snapshot)
    kernel.run(until=t + 2.0)
    engine.finalize()
    snapshot()
    return snapshots


@given(
    st.lists(CAPACITY, min_size=3, max_size=3),
    st.sampled_from((0.0, 0.5)),
    st.lists(COHORT, min_size=1, max_size=5),
    COHORT_OPS,
)
@settings(max_examples=80, deadline=None)
def test_prop_cohort_equals_consecutive_single_flows(caps, governor_delay,
                                                     initial, ops):
    """A ``count=k`` cohort and k consecutive single flows leave every
    flow and link ledger, share, latency, the epoch count and the
    governor transition count bit-identical, through link fail/restore,
    rate changes and either governor delay."""
    cohorts = cohort_world(caps, governor_delay, initial, ops, False)
    singles = cohort_world(caps, governor_delay, initial, ops, True)
    assert cohorts == singles
