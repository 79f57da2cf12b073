"""Property tests: admission-controller ledger invariants.

The :class:`~repro.scale.admission.AdmissionController` promises that
its books never overcommit any budget and that rejection is
side-effect free.  These tests drive random admit/revoke sequences
over a small dumbbell topology and check, after *every* operation:

- no host's admitted CPU utilization exceeds its bound;
- no directed edge's committed bandwidth exceeds its RSVP budget;
- a rejection leaves every ledger entry exactly as it was;
- admit -> revoke -> re-admit returns the identical decision and
  reproduces the identical books (no float residue);
- a ``request_many`` batch is exactly the loop of ``request`` calls it
  stands for: same admitted positions, bit-equal books and counters.
"""

from hypothesis import given, settings, strategies as st

from repro.scale.admission import AdmissionController

HOSTS = ("src-a", "src-b", "dst")
EDGE_NAMES = (("src-a", "r1"), ("src-b", "r1"), ("r1", "r2"), ("r2", "dst"))

RATE = st.floats(min_value=0.0, max_value=8e6)
COMPUTE = st.floats(min_value=1e-4, max_value=0.02)
PERIOD = st.floats(min_value=0.02, max_value=0.1)

REQUEST = st.tuples(
    st.just("request"),
    st.sampled_from(("src-a", "src-b")),          # src (dst is fixed)
    RATE,
    st.one_of(st.none(), st.tuples(COMPUTE, PERIOD)),
)
REVOKE = st.tuples(st.just("revoke"), st.integers(min_value=0, max_value=40))
OPS = st.lists(st.one_of(REQUEST, REVOKE), max_size=40)


def build_controller(link_bps):
    controller = AdmissionController()
    for host in HOSTS:
        controller.add_host(host)
    controller.add_router("r1")
    controller.add_router("r2")
    for (a, b), bps in zip(EDGE_NAMES, link_bps):
        controller.add_link(a, b, bps)
    return controller


def snapshot(controller):
    """Every ledger figure the controller exposes, as one value."""
    books = {f"cpu:{host}": controller.cpu_utilization(host)
             for host in HOSTS}
    for a, b in EDGE_NAMES:
        books[f"edge:{a}->{b}"] = controller.link_committed(a, b)
        books[f"edge:{b}->{a}"] = controller.link_committed(b, a)
    books["admitted"] = sorted(controller.admitted_ids())
    return books


def assert_within_budgets(controller, link_bps):
    for host in HOSTS:
        assert (controller.cpu_utilization(host)
                <= controller.cpu_bound + 1e-12)
    for (a, b), bps in zip(EDGE_NAMES, link_bps):
        budget = bps * controller.link_bound
        assert controller.link_committed(a, b) <= budget + 1e-9
        assert controller.link_committed(b, a) <= budget + 1e-9


@given(
    st.lists(st.floats(min_value=1e6, max_value=20e6),
             min_size=4, max_size=4),
    OPS,
)
@settings(max_examples=60, deadline=None)
def test_prop_books_never_exceed_budgets(link_bps, operations):
    """No op sequence can push any ledger past its bound, and every
    rejection leaves the books untouched."""
    controller = build_controller(link_bps)
    next_id = 0
    live = []
    for op in operations:
        if op[0] == "request":
            _, src, rate, cpu_demand = op
            cpu = (None if cpu_demand is None
                   else {src: cpu_demand})
            before = snapshot(controller)
            decision = controller.request(
                f"s{next_id}", src=src, dst="dst", rate_bps=rate, cpu=cpu)
            next_id += 1
            if decision.admitted:
                live.append(decision.stream_id)
            else:
                assert decision.reason  # rejections always say why
                assert snapshot(controller) == before
        else:
            _, index = op
            if live:
                stream_id = live.pop(index % len(live))
                assert controller.revoke(stream_id)
                assert not controller.is_admitted(stream_id)
        assert_within_budgets(controller, link_bps)
    assert controller.requests_seen >= controller.requests_rejected
    assert sorted(controller.admitted_ids()) == sorted(live)


@given(
    st.lists(st.floats(min_value=1e6, max_value=20e6),
             min_size=4, max_size=4),
    OPS,
    RATE,
    st.tuples(COMPUTE, PERIOD),
)
@settings(max_examples=60, deadline=None)
def test_prop_admit_revoke_readmit_idempotent(link_bps, operations, rate,
                                              cpu_demand):
    """Against any background of grants, admit -> revoke -> re-admit
    returns the same decision and reproduces the same books."""
    controller = build_controller(link_bps)
    for index, op in enumerate(operations):
        if op[0] != "request":
            continue
        _, src, op_rate, op_cpu = op
        controller.request(
            f"bg{index}", src=src, dst="dst", rate_bps=op_rate,
            cpu=None if op_cpu is None else {src: op_cpu})
    before = snapshot(controller)
    first = controller.request("probe", src="src-a", dst="dst",
                               rate_bps=rate, cpu={"src-a": cpu_demand})
    after_first = snapshot(controller)
    if first.admitted:
        assert controller.revoke("probe")
        assert snapshot(controller) == before  # exact, not approximate
    else:
        assert after_first == before
        assert not controller.revoke("probe")
    second = controller.request("probe", src="src-a", dst="dst",
                                rate_bps=rate, cpu={"src-a": cpu_demand})
    assert second == first
    assert snapshot(controller) == after_first


@given(st.lists(st.floats(min_value=1e6, max_value=20e6),
                min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_prop_rejection_counts_and_duplicate_guard(link_bps):
    controller = build_controller(link_bps)
    # Tightest budget on the src-a -> dst route (src-b's access link is
    # off-path and must not influence this request).
    on_path = (link_bps[0], link_bps[2], link_bps[3])
    bottleneck = min(on_path) * controller.link_bound
    decision = controller.request("fat", src="src-a", dst="dst",
                                  rate_bps=bottleneck * 2)
    assert not decision.admitted
    assert controller.requests_rejected == 1
    ok = controller.request("fit", src="src-a", dst="dst",
                            rate_bps=bottleneck / 2)
    assert ok.admitted
    try:
        controller.request("fit", src="src-a", dst="dst", rate_bps=1.0)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("duplicate stream id must raise")


TENANTS = ("t0", "t1", "t2", None)
BATCH_PREFIX = st.lists(st.tuples(
    st.sampled_from(("src-a", "src-b")),
    st.floats(min_value=0.0, max_value=3e6),
    st.sampled_from(TENANTS),
    st.one_of(st.none(), st.tuples(COMPUTE, PERIOD)),
), max_size=12)


def build_tenanted(link_bps, link_bound, pools):
    controller = AdmissionController(link_bound=link_bound)
    for host in HOSTS:
        controller.add_host(host)
    controller.add_router("r1")
    controller.add_router("r2")
    for (a, b), bps in zip(EDGE_NAMES, link_bps):
        controller.add_link(a, b, bps)
    for tenant, pool in zip(TENANTS, pools):
        if tenant is not None and pool is not None:
            controller.set_tenant_pool(tenant, pool)
    return controller


def ledgers(controller):
    """Every book and counter, floats as hex so equality is bit equality."""
    def hexed(books):
        return {key: value.hex() for key, value in books.items()}
    return (hexed(controller._cpu_totals), hexed(controller._edge_totals),
            hexed(controller._tenant_totals), controller.admitted_ids(),
            controller.requests_seen, controller.requests_rejected)


@given(
    st.lists(st.floats(min_value=1e6, max_value=20e6),
             min_size=4, max_size=4),
    st.floats(min_value=0.1, max_value=1.0),
    st.lists(st.one_of(st.none(), st.floats(min_value=0.0, max_value=8e6)),
             min_size=3, max_size=3),
    BATCH_PREFIX,
    st.integers(min_value=0, max_value=60),
    st.sampled_from(("src-a", "src-b")),
    st.floats(min_value=0.0, max_value=2e6),
    st.lists(st.sampled_from(TENANTS), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_prop_request_many_equals_a_loop_of_requests(
        link_bps, link_bound, pools, prefix, count, src, rate, cycle):
    """Over any tenant pools, link bounds, pre-existing grants, rates and
    tenant cycle, ``request_many`` admits the same positions and leaves
    the same books and counters as calling ``request`` in order."""
    batch = build_tenanted(link_bps, link_bound, pools)
    loop = build_tenanted(link_bps, link_bound, pools)
    for controller in (batch, loop):
        for index, (pre_src, pre_rate, tenant, pre_cpu) in enumerate(prefix):
            controller.request(
                f"pre{index}", src=pre_src, dst="dst", rate_bps=pre_rate,
                cpu=None if pre_cpu is None else {pre_src: pre_cpu},
                tenant=tenant)
    admitted = batch.request_many(
        count, lambda i: f"b{i}", src=src, dst="dst", rate_bps=rate,
        tenants=tuple(cycle))
    expected = [
        i for i in range(count)
        if loop.request(f"b{i}", src=src, dst="dst", rate_bps=rate,
                        tenant=cycle[i % len(cycle)]).admitted]
    assert admitted == expected
    assert ledgers(batch) == ledgers(loop)
