"""Scenario compilation and seed-swept execution with invariants."""

import hashlib
import json

import pytest

from repro.scenarios import (
    CrashSpec,
    ScenarioRunner,
    ScenarioSpec,
    compile_scenario,
    example_scenario,
    summarize,
)
from repro.scenarios.runner import _check_invariants, _job_statuses


def chaos_scenario():
    """Flash crowd + provider churn + WAN outage + control-plane crash."""
    base = example_scenario().to_dict()
    base["name"] = "chaos-sweep"
    base["crashes"] = [
        {"site": "north", "component": "coordinator",
         "start_hour": 3.0, "downtime_minutes": 12.0},
        {"site": "south", "component": "gateway",
         "start_hour": 5.0, "downtime_minutes": 8.0},
    ]
    return ScenarioSpec.from_dict(base)


# -- compilation -------------------------------------------------------------

def test_compile_is_deterministic():
    first = compile_scenario(example_scenario(), seed=11)
    second = compile_scenario(example_scenario(), seed=11)
    assert first.job_ids == second.job_ids
    assert [(j.at, j.site) for j in first.jobs] == \
           [(j.at, j.site) for j in second.jobs]
    assert [(s.at, s.site, s.flash_crowd) for s in first.sessions] == \
           [(s.at, s.site, s.flash_crowd) for s in second.sessions]


def test_compile_seeds_differ():
    a = compile_scenario(example_scenario(), seed=1)
    b = compile_scenario(example_scenario(), seed=2)
    assert [(j.at for j in a.jobs)] != [(j.at for j in b.jobs)] or \
           [s.at for s in a.sessions] != [s.at for s in b.sessions]


def test_compiled_structure_matches_spec():
    spec = example_scenario()
    compiled = compile_scenario(spec, seed=5)
    assert set(compiled.deployment.sites) == {"north", "south"}
    assert compiled.horizon == spec.duration_hours * 3600.0
    # every planned job targets a declared site and carries the
    # scenario-local id scheme (stable across processes)
    for planned in compiled.jobs:
        assert planned.site in compiled.deployment.sites
        assert planned.spec.job_id.startswith(f"sc-{planned.site}-job-")
    assert any(s.flash_crowd for s in compiled.sessions)


def test_trace_override():
    compiled = compile_scenario(example_scenario(), seed=1, trace=False)
    assert compiled.deployment.tracer is None


# -- the runner --------------------------------------------------------------

def test_three_seed_chaos_sweep_holds_invariants():
    report = ScenarioRunner(chaos_scenario(), seeds=(1, 2, 3)).sweep()
    assert report.ok, report.violations
    aggregate = report.aggregate()
    assert aggregate["seeds"] == 3
    assert aggregate["jobs_planned"] > 0
    assert aggregate["jobs_completed"] > 0
    assert aggregate["sessions_planned"] > 0
    for result in report.results:
        summary = result.summary
        assert summary["invariants"]["duplicate_executions"] == 0
        assert summary["invariants"]["orphan_spans"] == 0
        assert abs(summary["invariants"]["ledger_sum_gpu_hours"]) < 1e-6
        assert summary["sessions"]["flash_crowd"] > 0


def test_same_seed_produces_identical_summary():
    runner = ScenarioRunner(example_scenario(), seeds=(2,))
    first = runner.run_seed(2).summary
    second = runner.run_seed(2).summary
    assert first == second


def test_report_document_is_json_serializable():
    report = ScenarioRunner(example_scenario(), seeds=(1,)).sweep()
    document = report.to_dict()
    assert json.loads(json.dumps(document)) == document
    assert document["scenario"]["name"] == "demo-flash-crowd"
    assert len(document["per_seed"]) == 1


def test_runner_rejects_empty_seed_list():
    with pytest.raises(ValueError, match="at least one seed"):
        ScenarioRunner(example_scenario(), seeds=())


def test_summarize_counts_every_planned_job():
    compiled = compile_scenario(example_scenario(), seed=4).run()
    summary = summarize(compiled)
    assert summary["jobs"]["planned"] == len(compiled.jobs)
    assert sum(summary["jobs"]["by_status"].values()) == len(compiled.jobs)
    assert summary["seed"] == 4


# -- fault injection pinned ----------------------------------------------------

def mixed_fault_scenario():
    """One window of every fault kind, two sharing a start time."""
    base = example_scenario(duration_hours=6.0).to_dict()
    base["name"] = "mixed-faults"
    base["outages"] = [
        {"a": "north", "b": "south", "start_hour": 1.0,
         "duration_minutes": 20.0},
    ]
    base["crashes"] = [
        {"site": "north", "component": "gateway",
         "start_hour": 1.0, "downtime_minutes": 10.0},
        {"site": "south", "component": "coordinator",
         "start_hour": 2.0, "downtime_minutes": 15.0},
    ]
    base["adversaries"] = [
        {"site": "south", "mode": "forge", "start_hour": 1.0},
    ]
    return ScenarioSpec.from_dict(base)


def fault_run_digest(compiled) -> str:
    """sha256 over every site's event stream plus the run summary.

    Event ``repr``s carry process-wide ids, so only the fields that are
    stable across runs in one process go into the digest.
    """
    digest = hashlib.sha256()
    for name in sorted(compiled.deployment.sites):
        for event in compiled.site(name).platform.events.all():
            payload = event.payload
            digest.update(repr((
                event.timestamp, event.kind, name, payload.get("job_id"),
                payload.get("peer"), payload.get("mode"))).encode())
    digest.update(json.dumps(summarize(compiled), sort_keys=True).encode())
    return digest.hexdigest()


#: Recorded before fault injection was unified behind one window
#: protocol; mixed-kind windows must keep their event order.
MIXED_FAULT_DIGEST = (
    "79d251b55d6ec5808a079d514dca0f551360eabc5964c690994570cf355e6359")


def test_mixed_fault_injection_is_event_identical():
    compiled = compile_scenario(mixed_fault_scenario(), seed=7).run()
    assert fault_run_digest(compiled) == MIXED_FAULT_DIGEST


def test_missing_job_record_is_a_lost_job():
    compiled = compile_scenario(example_scenario(duration_hours=3.0),
                                seed=3).run()
    victim = compiled.jobs[0]
    del compiled.site(victim.site).platform.coordinator.jobs[
        victim.spec.job_id]
    statuses = _job_statuses(compiled)
    assert statuses["missing"] == 1
    violations = _check_invariants(compiled, statuses)
    assert any(v.startswith("no-job-lost") for v in violations), violations
