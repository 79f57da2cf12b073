"""AdmissionController unit behaviour (the property suite covers the
ledger invariants; these pin the concrete semantics)."""

import pytest

from repro.scale.admission import AdmissionController


def dumbbell(bottleneck_bps=10e6):
    controller = AdmissionController()
    controller.add_host("src")
    controller.add_host("dst")
    controller.add_router("r")
    controller.add_link("src", "r", 1e9)
    controller.add_link("r", "dst", bottleneck_bps)
    return controller


def test_bounds_validation():
    with pytest.raises(ValueError):
        AdmissionController(cpu_bound=0.0)
    with pytest.raises(ValueError):
        AdmissionController(link_bound=1.5)


def test_link_requires_known_devices():
    controller = AdmissionController()
    controller.add_host("a")
    with pytest.raises(KeyError):
        controller.add_link("a", "ghost", 1e6)


def test_admits_until_link_budget_then_rejects():
    controller = dumbbell()
    granted = 0
    while True:
        decision = controller.request(f"s{granted}", src="src", dst="dst",
                                      rate_bps=1.3e6)
        if not decision.admitted:
            break
        granted += 1
    # floor(10e6 * 0.9 / 1.3e6) = 6 — the fig 9 saturation count.
    assert granted == 6
    assert "link:r->dst" in decision.reason
    assert controller.link_committed("r", "dst") == pytest.approx(6 * 1.3e6)
    # The access link never saw meaningful pressure.
    assert controller.link_committed("src", "r") == pytest.approx(6 * 1.3e6)
    assert controller.requests_rejected == 1


def test_cpu_bound_checked_per_host():
    controller = dumbbell()
    ok = controller.request("a", cpu={"src": (0.005, 0.01)})  # 0.5
    assert ok.admitted
    rejected = controller.request("b", cpu={"src": (0.005, 0.01),
                                            "dst": (0.001, 0.01)})
    # src would reach 1.0 > 0.9; dst alone would have been fine, but
    # admission is all-or-nothing.
    assert not rejected.admitted
    assert rejected.reason.startswith("cpu:src")
    assert controller.cpu_utilization("dst") == 0.0


def test_rejected_stream_never_mutates_books():
    controller = dumbbell(bottleneck_bps=2e6)
    controller.request("fits", src="src", dst="dst", rate_bps=1e6)
    before = (controller.link_committed("r", "dst"),
              controller.cpu_utilization("src"),
              sorted(controller.admitted_ids()))
    rejected = controller.request("too-fat", src="src", dst="dst",
                                  rate_bps=5e6, cpu={"src": (0.001, 0.01)})
    assert not rejected.admitted
    after = (controller.link_committed("r", "dst"),
             controller.cpu_utilization("src"),
             sorted(controller.admitted_ids()))
    assert after == before


def test_revoke_frees_exactly_the_grant():
    controller = dumbbell(bottleneck_bps=2e6)
    controller.request("a", src="src", dst="dst", rate_bps=1.5e6)
    assert not controller.request("b", src="src", dst="dst",
                                  rate_bps=1.5e6).admitted
    assert controller.revoke("a")
    assert not controller.revoke("a")  # second revoke is a no-op
    assert controller.link_committed("r", "dst") == 0.0
    assert controller.request("b", src="src", dst="dst",
                              rate_bps=1.5e6).admitted


def test_unknown_names_raise():
    controller = dumbbell()
    with pytest.raises(KeyError):
        controller.request("x", src="src", dst="ghost", rate_bps=1.0)
    with pytest.raises(KeyError):
        controller.request("x", cpu={"ghost": (0.001, 0.01)})
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=-1.0)
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=1.0)  # bandwidth without route


def test_hosts_never_transit():
    controller = AdmissionController()
    for name in ("a", "middle", "b"):
        controller.add_host(name)
    controller.add_link("a", "middle", 1e6)
    controller.add_link("middle", "b", 1e6)
    with pytest.raises(KeyError):
        controller.path("a", "b")  # only routers forward


# ----------------------------------------------------------------------
# request_many: a batch of identical requests
# ----------------------------------------------------------------------
def tenanted_dumbbell():
    controller = dumbbell(bottleneck_bps=100e6)
    controller.set_tenant_pool("a", 5e6)
    controller.set_tenant_pool("b", 3e6)
    return controller


def test_request_many_rejects_the_tail_without_building_ids():
    controller = tenanted_dumbbell()
    built = []

    def name(i):
        built.append(i)
        return f"s{i}"

    admitted = controller.request_many(
        1_000_000, name, src="src", dst="dst", rate_bps=1e6,
        tenants=("a", "b"))
    # a fits 5 streams (positions 0, 2, .. 8), b fits 3 (1, 3, 5).
    assert admitted == [0, 1, 2, 3, 4, 5, 6, 8]
    # b is first rejected at 7 and a at 10: no id is built after that.
    assert built == list(range(11))
    assert controller.requests_seen == 1_000_000
    assert controller.requests_rejected == 1_000_000 - 8
    assert controller.tenant_committed("a") == 5e6
    assert controller.tenant_committed("b") == 3e6


def test_request_many_of_nothing_touches_nothing():
    controller = tenanted_dumbbell()
    assert controller.request_many(0, str, src="src", dst="dst",
                                   rate_bps=-1.0) == []
    assert controller.requests_seen == 0


def test_request_many_duplicate_id_raises_like_request():
    controller = tenanted_dumbbell()
    controller.request("s1", src="src", dst="dst", rate_bps=1e6)
    with pytest.raises(ValueError, match="already admitted"):
        controller.request_many(3, lambda i: f"s{i}", src="src",
                                dst="dst", rate_bps=1e6)
    # Position 0 was granted before position 1 raised, as in a loop.
    assert controller.admitted_ids() == ["s1", "s0"]
    assert controller.requests_seen == 2
    assert controller.link_committed("r", "dst") == 2e6


def test_request_many_does_not_check_tail_ids_against_grants():
    # The one departure from a loop of request: past the point where
    # every tenant was refused, ids are never built, so an id that is
    # already admitted there is counted as rejected instead of raising.
    controller = tenanted_dumbbell()
    controller.request("s9", src="src", dst="dst", rate_bps=1e6)
    admitted = controller.request_many(20, lambda i: f"s{i}", src="src",
                                       dst="dst", rate_bps=1e6,
                                       tenants=("a",))
    assert admitted == [0, 1, 2, 3, 4]
    assert controller.requests_seen == 21
    assert controller.requests_rejected == 15
    assert controller.admitted_ids() == ["s9", "s0", "s1", "s2", "s3", "s4"]


def test_request_many_negative_rate_raises_before_any_request():
    controller = tenanted_dumbbell()
    with pytest.raises(ValueError, match="negative rate"):
        controller.request_many(5, lambda i: f"s{i}", src="src",
                                dst="dst", rate_bps=-1.0)
    assert controller.requests_seen == 0
    assert controller.admitted_ids() == []


def test_request_many_needs_src_and_dst_for_bandwidth():
    controller = tenanted_dumbbell()
    for src, dst in (("src", None), (None, "dst"), (None, None)):
        with pytest.raises(ValueError, match="needs src and dst"):
            controller.request_many(5, lambda i: f"s{i}", src=src,
                                    dst=dst, rate_bps=1e6)
    assert controller.requests_seen == 0


def test_request_many_needs_a_tenant_cycle():
    with pytest.raises(ValueError):
        tenanted_dumbbell().request_many(3, str, src="src", dst="dst",
                                         rate_bps=1e6, tenants=())
