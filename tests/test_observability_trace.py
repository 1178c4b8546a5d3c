"""Causal trace spans: tracer unit coverage and the federation
acceptance check — every cross-site job yields a complete span tree.
"""

import json

import pytest

from repro.federation import FederatedDeployment, FederationConfig
from repro.gpu import RTX_3090, RTX_4090
from repro.observability import TraceContext, Tracer
from repro.sim import Environment
from repro.units import HOUR, MINUTE
from repro.workloads import RESNET50, next_job_id
from repro.workloads.training import TrainingJobSpec


# -- tracer unit behaviour -------------------------------------------------

def test_root_and_child_spans():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job", trace_id="job-1", site="north")
    env.run(until=5.0)
    child = tracer.start("forward", parent=root, site="north", dest="south")
    env.run(until=9.0)
    tracer.finish(child, status="committed")
    tracer.finish(root, status="completed")
    spans = tracer.spans("job-1")
    assert [s.name for s in spans] == ["job", "forward"]
    assert spans[1].parent_id == spans[0].span_id
    assert spans[1].trace_id == "job-1"  # parent wins for membership
    assert spans[0].start == 0.0 and spans[0].end == 9.0
    assert spans[1].start == 5.0 and spans[1].end == 9.0
    assert spans[1].attrs["dest"] == "south"
    assert tracer.root("job-1") is spans[0]


def test_finish_is_idempotent_and_none_safe():
    tracer = Tracer(Environment())
    ctx = tracer.start("op", trace_id="t")
    tracer.finish(ctx, status="first")
    tracer.finish(ctx, status="second")
    assert tracer.get(ctx.span_id).status == "first"
    tracer.finish(None)  # must not raise
    tracer.finish(TraceContext("t", 99999))  # unknown span: no-op


def test_event_spans_are_instant():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job", trace_id="j")
    env.run(until=3.0)
    ctx = tracer.event("requeue", root, site="north", reason="node-lost")
    span = tracer.get(ctx.span_id)
    assert span.start == span.end == 3.0
    assert span.status == "ok"
    assert tracer.event("x", None) is None  # tracing-off propagation


def test_orphan_detection():
    tracer = Tracer(Environment())
    root = tracer.start("job", trace_id="j")
    tracer.start("child", parent=root)
    assert tracer.orphans() == []
    # A span parented under a context that was never recorded locally —
    # the broken-tree shape the acceptance criterion forbids.
    tracer.start("lost", parent=TraceContext("j", 424242))
    assert [s.name for s in tracer.orphans()] == ["lost"]
    assert [s.name for s in tracer.orphans("j")] == ["lost"]


def test_open_spans_and_clear():
    env = Environment()
    tracer = Tracer(env)
    a = tracer.start("a", trace_id="t1")
    b = tracer.start("b", trace_id="t2")
    tracer.finish(a)
    assert [s.name for s in tracer.open_spans()] == ["b"]
    assert len(tracer) == 2
    tracer.clear()
    assert len(tracer) == 0 and tracer.trace_ids() == []


def test_tree_nesting():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job", trace_id="j", site="north")
    fwd = tracer.start("forward", parent=root, site="north")
    tracer.start("admission", parent=fwd, site="south")
    roots = tracer.tree("j")
    assert len(roots) == 1
    assert roots[0]["name"] == "job"
    assert roots[0]["children"][0]["name"] == "forward"
    assert roots[0]["children"][0]["children"][0]["name"] == "admission"
    assert roots[0]["children"][0]["children"][0]["site"] == "south"


def test_chrome_export_shape():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job", trace_id="j", site="north")
    env.run(until=2.5)
    tracer.start("forward", parent=root, site="south")
    document = tracer.to_chrome_trace("j")
    events = document["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {m["args"]["name"] for m in metas} == {"north", "south"}
    assert len(complete) == 2
    job = next(e for e in complete if e["name"] == "job")
    assert job["ts"] == 0.0
    assert job["dur"] == pytest.approx(2.5e6)  # µs, open span runs to now
    # Distinct pids per site: a cross-site hop reads as cross-process.
    assert len({e["pid"] for e in complete}) == 2
    json.loads(tracer.export_chrome_json("j"))  # round-trips


# -- end-to-end: spans from a traced federation ----------------------------

def build_forwarding_pair(trace=True):
    """A starved origin and a farm host: every job crosses the WAN."""
    fed = FederatedDeployment(
        seed=11, trace=trace,
        federation_config=FederationConfig(gossip_interval_min=10.0))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    south.platform.add_provider("farm", [RTX_4090] * 4, lab="infra")
    for _ in range(3):
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50,
            total_compute=0.5 * HOUR, lab="vision"))
    return fed, north, south


def test_forwarded_job_has_complete_span_chain():
    fed, north, south = build_forwarding_pair()
    fed.run(until=6 * HOUR)
    assert north.gateway.forwarded_out == 3
    tracer = fed.tracer
    assert tracer.orphans() == []
    for trace_id in tracer.trace_ids():
        spans = tracer.spans(trace_id)
        names = [s.name for s in spans]
        # The full cross-site chain, rooted at the origin.
        for expected in ("job", "forward", "admission", "payload-pull",
                         "host", "placement"):
            assert expected in names, (trace_id, names)
        root = tracer.root(trace_id)
        assert root.name == "job" and root.site == "north"
        assert root.status == "completed"
        # Every span closed: the jobs all finished.
        assert tracer.open_spans(trace_id) == []
        forward = next(s for s in spans if s.name == "forward")
        assert forward.status == "committed"
        assert forward.attrs["dest"] == "south"
        host = next(s for s in spans if s.name == "host")
        assert host.site == "south" and host.status == "completed"


def test_tracing_off_records_nothing_and_matches_traced_run():
    """trace=True must not perturb the simulation (golden invariant)."""
    fed_off, north_off, _ = build_forwarding_pair(trace=False)
    fed_on, north_on, _ = build_forwarding_pair(trace=True)
    fed_off.run(until=6 * HOUR)
    fed_on.run(until=6 * HOUR)
    assert fed_off.tracer is None
    assert north_off.platform.events.emitted \
        == north_on.platform.events.emitted
    off_completed = [e.payload["job_id"] for e in
                     north_off.platform.events.of_kind("job-completed")]
    on_completed = [e.payload["job_id"] for e in
                    north_on.platform.events.of_kind("job-completed")]
    assert off_completed == on_completed
    assert fed_off.env.now == fed_on.env.now


def test_cancelled_local_job_closes_root_span():
    fed = FederatedDeployment(seed=2, trace=True)
    north = fed.add_campus("north")
    north.platform.add_provider("ws", [RTX_3090], lab="vision")
    job_id = next_job_id()
    north.platform.submit_job(TrainingJobSpec(
        job_id=job_id, model=RESNET50, total_compute=2 * HOUR, lab="vision"))
    fed.run(until=10 * MINUTE)
    north.platform.coordinator.cancel_job(job_id)
    fed.run(until=20 * MINUTE)
    root = fed.tracer.root(job_id)
    assert root is not None
    assert root.status == "cancelled"
    assert fed.tracer.open_spans(job_id) == []


# -- two-hop relay: the full chained span tree -----------------------------

def test_two_hop_relay_span_tree():
    """alpha forwards to bravo, bravo relays to charlie: one trace
    holds both hops, with bravo's hosting role closed as relayed."""
    fed = FederatedDeployment(seed=5, trace=True)
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
    bravo.platform.add_provider("b-ws", [RTX_3090], lab="nlp")
    charlie.platform.add_provider("c-farm", [RTX_4090] * 2, lab="infra")
    # Gossip at t=60; at t=100 alpha fills its card and offers the
    # surplus to bravo, whose own submission then takes its only GPU
    # mid-replication — the foreign job arrives unplaceable at bravo
    # and must relay onward to charlie (same timeline the relay suite
    # pins in test_federation_relay).
    fed.run(until=100)
    alpha.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR,
        lab="vision"))
    surplus = alpha.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=1 * HOUR,
        lab="vision"))
    fed.run(until=101)
    bravo.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR,
        lab="nlp"))
    fed.run(until=12 * HOUR)

    assert bravo.gateway.relayed_out == 1
    tracer = fed.tracer
    trace_id = surplus.job_id
    assert tracer.orphans(trace_id) == []
    spans = tracer.spans(trace_id)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    root = tracer.root(trace_id)
    assert root.name == "job" and root.site == "alpha"
    assert root.status == "completed"
    # Two forward hops, each committed, each at its sending site.
    forwards = by_name["forward"]
    assert [(s.site, s.status) for s in forwards] \
        == [("alpha", "committed"), ("bravo", "committed")]
    assert forwards[0].attrs["dest"] == "bravo"
    assert forwards[1].attrs["dest"] == "charlie"
    # Admission + payload pull recorded at both receiving sites.
    assert [s.site for s in by_name["admission"]] == ["bravo", "charlie"]
    assert [s.site for s in by_name["payload-pull"]] == ["bravo", "charlie"]
    # bravo's hosting role closed as "relayed"; charlie's completed.
    hosts = {s.site: s.status for s in by_name["host"]}
    assert hosts == {"bravo": "relayed", "charlie": "completed"}
    # bravo's onward forward span is parented under bravo's host span,
    # so the chain reads causally: hop 2 happened *because* bravo
    # hosted and could not place.
    bravo_host = next(s for s in by_name["host"] if s.site == "bravo")
    assert forwards[1].parent_id == bravo_host.span_id
    # The job ran only at charlie.
    assert [s.site for s in by_name["placement"]] == ["charlie"]
    # Everything closed; nothing dangles after settlement.
    assert tracer.open_spans(trace_id) == []


# -- the acceptance criterion: relay chaos, zero orphans -------------------

def test_relay_chaos_span_trees_are_complete():
    """Under WAN flapping and provider churn, every submitted job
    still produces one rooted span tree with no orphan spans."""
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "benchmarks"))
    from bench_perf_core import run_relay_chaos

    result = run_relay_chaos(campuses=4, sim_hours=1.5, jobs=16, trace=True)
    assert result["duplicate_executions"] == 0
    assert result["orphan_spans"] == 0
    assert result["traces"] == 16  # one trace per submitted job
    fed = result["deployment"]
    tracer = fed.tracer
    assert result["forwarded"] > 0  # the WAN actually engaged
    for trace_id in tracer.trace_ids():
        assert tracer.orphans(trace_id) == []
        root = tracer.root(trace_id)
        assert root is not None, f"trace {trace_id} has no root span"
        assert root.name == "job"
        spans = tracer.spans(trace_id)
        names = [s.name for s in spans]
        # Every committed forward has the receiving side's half of the
        # handshake recorded under the same trace.
        if any(s.name == "forward" and s.status == "committed"
               for s in spans):
            assert "admission" in names


# -- control-plane chaos: failover epochs in the trees ---------------------

def test_failover_epoch_appears_in_the_jobs_trace_tree():
    """A coordinator takeover stamps every workload it resynced with a
    ``failover-epoch`` event span inside the job's own tree, and the
    leadership change itself is a ``coordinator-epoch`` root pair in
    the campus HA trace — no orphans either way."""
    from repro.workloads import JobStatus

    fed = FederatedDeployment(seed=13, trace=True)
    north = fed.add_campus("north")
    north.platform.add_provider("ws", [RTX_3090], lab="vision")
    fed.enable_failover()
    job_id = next_job_id()
    job = north.platform.submit_job(TrainingJobSpec(
        job_id=job_id, model=RESNET50, total_compute=1 * HOUR,
        lab="vision"))
    while job.status is not JobStatus.RUNNING and fed.env.now < 30 * MINUTE:
        fed.run(until=fed.env.now + 1.0)
    assert job.status is JobStatus.RUNNING
    fed.failover["north"].crash()
    fed.run(until=fed.env.now + 4 * HOUR)
    assert job.status is JobStatus.COMPLETED

    tracer = fed.tracer
    names = [s.name for s in tracer.spans(job_id)]
    assert "failover-epoch" in names
    epoch_mark = next(s for s in tracer.spans(job_id)
                      if s.name == "failover-epoch")
    assert epoch_mark.attrs["epoch"] == 2
    assert epoch_mark.parent_id is not None
    # The leadership terms themselves: old epoch closed as failed-over,
    # new epoch open, same HA trace.
    terms = tracer.spans("ha:north")
    assert [s.name for s in terms] == ["coordinator-epoch",
                                       "coordinator-epoch"]
    assert terms[0].status == "failed-over"
    assert terms[1].is_open and terms[1].attrs["epoch"] == 2
    assert tracer.orphans() == []


def test_control_plane_chaos_keeps_span_trees_orphan_free():
    """Gateway crash/restart mid-forward and a coordinator takeover on
    the host campus: every trace stays a single rooted tree (the
    write-ahead intent carries the forward span across the restart)."""
    from repro.core.faults import ControlPlaneCrash
    from repro.workloads import JobStatus

    fed, north, south = build_forwarding_pair(trace=True)
    fed.enable_failover()
    fed.inject((
        # The origin gateway dies early in the forward fan-out and
        # again later; the host's coordinator leader dies in between.
        ControlPlaneCrash("north", "gateway", 30.0, 120.0),
        ControlPlaneCrash("south", "coordinator", 300.0, 600.0),
        ControlPlaneCrash("north", "gateway", 20 * MINUTE, 5 * MINUTE),
    ))
    fed.run(until=12 * HOUR)
    assert north.gateway.restarts == 2
    assert fed.failover["south"].takeovers >= 1
    completed = [e.payload["job_id"]
                 for handle in fed.sites.values()
                 for e in handle.platform.events.of_kind("job-completed")]
    assert len(completed) == len(set(completed)) == 3
    tracer = fed.tracer
    assert tracer.orphans() == []
    for trace_id in tracer.trace_ids():
        assert tracer.orphans(trace_id) == []
        root = tracer.root(trace_id)
        assert root is not None, f"trace {trace_id} has no root span"
