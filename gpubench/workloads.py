"""The simulated workloads: one replicate each, plus their checks.

A replicate builds its inputs from a seed, sets up the deployment
(timed :data:`~common.SETUP_REPEATS` times), runs a fixed amount of
simulated work (timed once, tracing off unless a recorder is given)
and returns a JSON-able result: host timings, the simulated outcome
metrics, the raw data the correctness checks read, and an outcome
digest.  ``run.py`` runs each replicate in a fresh interpreter so peak
memory and the library's process-wide id counters start clean.

The checks are pure functions of a result's ``check`` document, so the
benchmark's tests can plant bad data in one and watch the failure
counter trip.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agent import BehaviorProfile
from repro.core import build_migration_report
from repro.core.platform import GPUnionPlatform
from repro.experiments.campus import (
    build_gpunion_campus,
    campus_demand,
    replay_demand,
)
from repro.experiments.fig3_migration import VOLUNTEER_NODES
from repro.scenarios.compile import compile_scenario
from repro.scenarios.runner import LEDGER_TOLERANCE
from repro.scenarios.spec import (
    ChurnSpec,
    DemandSpec,
    OutageSpec,
    ProviderSpec,
    ScenarioSpec,
    SiteSpec,
    WanLinkSpec,
)
from repro.units import DAY, GIB, HOUR, MINUTE, gbps
from repro.workloads.training import JobStatus, TrainingJobSpec

from common import digest, rounded, timed_setup
from recorder import LayerRecorder

#: Fixed work per replicate.  ``tiny`` is the benchmark's own smoke size.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "campus_churn": {"days": 7.0},
        "federation_relay": {"hours": 48.0},
        "lan_storm": {"hosts": 250, "concurrent": 1200, "churn": 300},
        "service_http": {"hours": 12.0},
    },
    "tiny": {
        "campus_churn": {"days": 1.0},
        "federation_relay": {"hours": 24.0},
        "lan_storm": {"hosts": 40, "concurrent": 60, "churn": 40},
        "service_http": {"hours": 4.0},
    },
}

#: Seed of the one ``PAPER_LABS`` demand trace every campus replicate
#: replays.  The run's seed drives the platform (churn, placement), so
#: every run offers the campus the same work: with the trace drawn per
#: seed, checkpoints stored differed by up to 8% between seeds, and the
#: store's cost grows faster than that count.
DEMAND_SEED = 0

#: Fig. 3's volunteer churn profile (``run_fig3`` defaults).
FIG3_CHURN = BehaviorProfile(
    events_per_day=1.6,
    p_scheduled=0.4, p_emergency=0.3, p_temporary=0.3,
    mean_temporary_downtime=40 * MINUTE,
    mean_rejoin_delay=1 * HOUR,
)

#: ``SystemDatabase`` methods that write.
DB_WRITES = ("upsert_node", "set_node_status", "record_allocation",
             "close_allocation", "record_heartbeat", "record_metric")


# -- the relay line -----------------------------------------------------------

def relay_scenario(hours: float) -> ScenarioSpec:
    """A line of four campuses: origin ↔ mid1 ↔ mid2 ↔ far.

    The origin has one GPU and most of the demand; the two middle
    campuses are small, busy with their own work and churning, so a
    job forwarded to one often finds its advertised GPU gone on arrival
    and is relayed onward; the idle farm sits three hops from the
    origin.  Gossip is neighbour-scoped, so the origin never sees the
    farm directly.  Two WAN outages cut the line for a while.
    """
    churn = ChurnSpec(events_per_day=6.0, mean_downtime_minutes=30.0,
                      mean_rejoin_minutes=60.0)

    def demand(per_day: float, sessions: float, phase: float) -> DemandSpec:
        return DemandSpec(jobs_per_day=per_day, sessions_per_day=sessions,
                          mean_job_compute_hours=1.0,
                          timezone_offset_hours=phase)

    return ScenarioSpec(
        name="bench-relay-line",
        duration_hours=hours,
        sites=(
            SiteSpec("origin",
                     providers=(ProviderSpec("o-ws1", ("rtx3090",), lab="o"),),
                     demand=demand(90.0, 8.0, 0.0)),
            SiteSpec("mid1",
                     providers=(
                         ProviderSpec("m1-ws1", ("rtx3090",), lab="m1",
                                      churn=churn),
                         ProviderSpec("m1-ws2", ("rtx3090",), lab="m1",
                                      churn=churn)),
                     demand=demand(30.0, 4.0, 3.0)),
            SiteSpec("mid2",
                     providers=(
                         ProviderSpec("m2-ws1", ("rtx3090",), lab="m2",
                                      churn=churn),
                         ProviderSpec("m2-ws2", ("rtx2080ti",), lab="m2",
                                      churn=churn)),
                     demand=demand(20.0, 4.0, 6.0)),
            SiteSpec("far",
                     providers=(
                         ProviderSpec("f-farm", ("rtx4090",) * 8, lab="f"),
                         ProviderSpec("f-a100", ("a100-40g",) * 2, lab="f")),
                     demand=demand(4.0, 2.0, 9.0)),
        ),
        links=(WanLinkSpec("origin", "mid1"), WanLinkSpec("mid1", "mid2"),
               WanLinkSpec("mid2", "far")),
        outages=(
            OutageSpec("origin", "mid1", start_hour=hours * 0.3,
                       duration_minutes=20.0),
            OutageSpec("mid2", "far", start_hour=hours * 0.6,
                       duration_minutes=30.0),
        ),
        max_forward_hops=3,
        trace=False,
        verify_ledger=True,
    )


# -- tracing wiring -----------------------------------------------------------

class Tally:
    """Mutable tallies the call observers below update."""

    def __init__(self):
        self.placed = 0
        self.rpc_events: List[Any] = []
        self.wan_bytes = 0.0


def _wire_platform(recorder: LayerRecorder, platform: GPUnionPlatform,
                   tally: Tally) -> None:
    def placed(args, kwargs, result):
        if result is not None:
            tally.placed += 1

    recorder.wrap(platform.coordinator.scheduler, "select", "core.select",
                  observe=placed)
    recorder.wrap(platform.engine, "capture", "checkpoint.capture")
    recorder.wrap(platform.engine, "restore", "checkpoint.restore")
    for store in platform.stores.values():
        recorder.wrap(store, "add", "storage.store_add")
    for method in DB_WRITES:
        recorder.wrap(platform.db, method, "monitoring.db_write")
    recorder.wrap(platform.network, "transfer", "flows.transfer")
    _wire_rpc(recorder, platform.rpc, tally)


def _wire_rpc(recorder: LayerRecorder, rpc, tally: Tally) -> None:
    recorder.wrap(rpc, "call", "rpc.call",
                  observe=lambda a, k, result: tally.rpc_events.append(result))


def wire_deployment(recorder: LayerRecorder, deployment,
                    tally: Tally) -> None:
    """Wrap every layer call of a federation the per-layer metrics name."""
    recorder.attach(deployment.env)
    for handle in deployment.sites.values():
        _wire_platform(recorder, handle.platform, tally)
        gateway = handle.gateway
        recorder.wrap(gateway.policy, "choose", "federation.choose")
        if gateway.sharechain is not None:
            recorder.wrap(gateway.sharechain, "ingest", "sharechain.ingest")

    def wan_bytes(args, kwargs, result):
        tally.wan_bytes += kwargs.get("size", args[2] if len(args) > 2 else 0)

    recorder.wrap(deployment.fabric, "transfer", "wan.transfer",
                  observe=wan_bytes)
    _wire_rpc(recorder, deployment.wan_rpc, tally)


def layer_metrics(recorder: LayerRecorder, tally: Tally,
                  deployment=None) -> Dict[str, float]:
    """The per-layer numbers one traced replicate contributes; a
    federation's forward, relay and rejection totals when given."""
    calls = recorder.calls
    busy = recorder.busy
    layers = recorder.layer_busy()
    metrics: Dict[str, float] = {
        "sim.events": recorder.events,
        "sim.queue_max": recorder.queue_max,
        "sim.self_s": (busy("sim.run") + busy("sim.kernel")
                       + layers.pop("sim")),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.busy_s"] = seconds
    select_calls = calls.get("core.select", 0)
    metrics.update({
        "core.select_calls": select_calls,
        "core.select_busy_s": busy("core.select"),
        "core.selects_per_placed": (select_calls / tally.placed
                                    if tally.placed else 0.0),
        "checkpoint.captures": calls.get("checkpoint.capture", 0),
        "checkpoint.restores": calls.get("checkpoint.restore", 0),
        "checkpoint.call_busy_s": (busy("checkpoint.capture")
                                   + busy("checkpoint.restore")),
        "checkpoint.replicate_busy_s": recorder.generator_time.get(
            "checkpoint.replicate_busy_s", 0.0),
        "storage.store_add_calls": calls.get("storage.store_add", 0),
        "storage.store_add_busy_s": busy("storage.store_add"),
        "flows.transfers": calls.get("flows.transfer", 0),
        "flows.transfer_busy_s": busy("flows.transfer"),
        "flows.reallocations": recorder.reallocations,
        "flows.realloc_busy_s": recorder.realloc_busy_s,
        "flows.flows_touched": recorder.flows_touched,
        "flows.component_max": recorder.component_max,
        "wan.transfers": calls.get("wan.transfer", 0),
        "wan.transfer_busy_s": busy("wan.transfer"),
        "wan.bytes": tally.wan_bytes,
        "rpc.calls": calls.get("rpc.call", 0),
        "rpc.call_busy_s": busy("rpc.call"),
        "rpc.errors": sum(1 for event in tally.rpc_events
                          if event.triggered and not event.ok),
        "federation.choose_calls": calls.get("federation.choose", 0),
        "federation.choose_busy_s": busy("federation.choose"),
        "sharechain.ingests": calls.get("sharechain.ingest", 0),
        "sharechain.ingest_busy_s": busy("sharechain.ingest"),
        "monitoring.db_writes": calls.get("monitoring.db_write", 0),
        "monitoring.db_busy_s": busy("monitoring.db_write"),
        "observability.collect_busy_s": busy("observability.collect"),
        "server.route_busy_s": busy("server.route"),
        "server.lock_other_s": busy("server.lock"),
        "trace.spans": len(recorder.spans) + recorder.spans_dropped,
    })
    if deployment is not None:
        metrics["federation.forwarded"] = deployment.total_forwarded()
        metrics["federation.relayed"] = deployment.total_relayed()
        metrics["sharechain.rejected"] = _rejected(deployment)
    return metrics


def _rejected(deployment) -> int:
    return sum(sum(by_reason.values())
               for by_reason in deployment.rejected_entries().values())


def _timed_run(recorder: Optional[LayerRecorder], work: Callable[[], None],
               setup_s: float) -> Dict[str, float]:
    """Run the fixed ``work`` once, timed in host seconds; traced, under
    the root span."""
    if recorder is None:
        started = perf_counter()
        work()
        wall = perf_counter() - started
    else:
        with recorder.span("sim.run") as root:
            work()
        wall = root.duration
    return {"setup_s": setup_s, "wall_s": wall}


def _job_records(jobs: List[Tuple[str, Any]],
                 counts: Dict[str, int]) -> Dict[str, List[Any]]:
    """Per-job status, completion-event count and hashed outcome.

    ``jobs`` is ``(job_id, state or None)`` in submission order; the
    outcome is keyed by that position, because job ids can come from a
    process-wide counter and positions do not.
    """
    records: Dict[str, List[Any]] = {"statuses": [], "completions": [],
                                     "outcome": []}
    for job_id, state in jobs:
        status = "missing" if state is None else state.status.value
        finished = None if state is None else state.completed_at
        records["statuses"].append(status)
        records["completions"].append(counts.get(job_id, 0))
        records["outcome"].append(
            [status, None if finished is None else rounded(finished)])
    return records


# -- campus_churn -------------------------------------------------------------

def campus_replicate(seed: int, size: Dict[str, float],
                     traced: bool = False) -> Dict[str, Any]:
    """The paper's campus: the PAPER_LABS demand trace, Fig. 3 churn on
    ws1/ws4, the platform seeded with ``seed``."""
    horizon = size["days"] * DAY

    def build():
        platform = build_gpunion_campus(seed=seed)
        for hostname in VOLUNTEER_NODES:
            platform.add_behavior(hostname, FIG3_CHURN)
        trace = campus_demand(DEMAND_SEED, horizon)
        replay_demand(platform, trace)
        return platform, trace

    (platform, trace), setup_s = timed_setup(build)
    recorder = tally = None
    if traced:
        recorder, tally = LayerRecorder(), Tally()
        recorder.attach(platform.env)
        _wire_platform(recorder, platform, tally)
    timings = _timed_run(recorder, lambda: platform.run(until=horizon),
                         setup_s)

    jobs = platform.coordinator.jobs
    counts: Dict[str, int] = {}
    for event in platform.events.of_kind("job-completed"):
        job_id = event.payload.get("job_id")
        counts[job_id] = counts.get(job_id, 0) + 1
    records = _job_records(
        [(a.spec.job_id, jobs.get(a.spec.job_id)) for a in trace
         if isinstance(a.spec, TrainingJobSpec)], counts)
    scheduled = build_migration_report(list(jobs.values())).get("scheduled")
    gpu_util = platform.fleet_utilization(0, horizon)
    sessions = len(platform.coordinator.served_sessions())
    sim = {
        "gpu_util": gpu_util,
        "sessions_served": sessions,
        "scheduled_departures": scheduled.count if scheduled else 0,
        "scheduled_within_window": (scheduled.within_deadline
                                    if scheduled else 0),
        "jobs_completed": records["statuses"].count("completed"),
        "jobs": len(records["statuses"]),
    }
    outcome = records.pop("outcome")
    result = {
        **timings,
        "sim": sim,
        "check": records,
        "digest": digest({"jobs": outcome, "gpu_util": rounded(gpu_util),
                          "sessions": sessions,
                          "scheduled": [sim["scheduled_departures"],
                                        sim["scheduled_within_window"]]}),
    }
    if traced:
        result["layers"] = layer_metrics(recorder, tally)
        result["_recorder"] = recorder
    return result


def check_jobs(check: Dict[str, Any]) -> List[str]:
    """Exactly-once and no-lost-job checks over per-job records."""
    violations = []
    duplicated = sum(1 for count in check["completions"] if count > 1)
    if duplicated:
        violations.append(f"exactly-once: {duplicated} job(s) completed "
                          f"more than once")
    lost = sum(1 for status in check["statuses"]
               if status in ("missing", JobStatus.FAILED.value))
    if lost:
        violations.append(f"no-job-lost: {lost} job(s) missing or failed")
    # A completion notice may still be crossing the WAN at the horizon,
    # so only a completed status without exactly one completion counts.
    unbacked = sum(
        1 for status, count in zip(check["statuses"], check["completions"])
        if status == JobStatus.COMPLETED.value and count != 1)
    if unbacked:
        violations.append(f"completion-records: {unbacked} completed "
                          f"job(s) without exactly one completion event")
    return violations


def check_campus(check: Dict[str, Any]) -> List[str]:
    return check_jobs(check)


# -- federation_relay ---------------------------------------------------------

def federation_replicate(seed: int, size: Dict[str, float],
                         traced: bool = False) -> Dict[str, Any]:
    """The relay line, compiled from its :class:`ScenarioSpec`."""
    spec = relay_scenario(size["hours"])
    compiled, setup_s = timed_setup(
        lambda: compile_scenario(spec, seed=seed))
    deployment = compiled.deployment
    recorder = tally = None
    if traced:
        recorder, tally = LayerRecorder(), Tally()
        wire_deployment(recorder, deployment, tally)
    timings = _timed_run(
        recorder, lambda: deployment.run(until=compiled.horizon), setup_s)

    # A job stays in its origin coordinator's book wherever it runs.
    records = _job_records(
        [(planned.spec.job_id,
          compiled.site(planned.site).platform.coordinator.jobs.get(
              planned.spec.job_id)) for planned in compiled.jobs],
        deployment.completion_counts())
    outcome = records.pop("outcome")
    balances = deployment.credit_balances()
    gpu_util = deployment.aggregate_utilization(0, compiled.horizon)
    sessions = sum(len(handle.platform.coordinator.served_sessions())
                   for handle in deployment.sites.values())
    sim = {
        "jobs_completed": records["completions"].count(1),
        "jobs": len(compiled.jobs),
        "gpu_util": gpu_util,
        "sessions_served": sessions,
        "forwarded": deployment.total_forwarded(),
        "relayed": deployment.total_relayed(),
        "sharechain_rejected": _rejected(deployment),
    }
    result = {
        **timings,
        "sim": sim,
        "check": dict(records, ledger_sum=sum(balances.values()),
                      relayed=sim["relayed"]),
        "digest": digest({
            "jobs": outcome, "gpu_util": rounded(gpu_util),
            "balances": {site: rounded(value)
                         for site, value in balances.items()},
            "forwarded": sim["forwarded"], "relayed": sim["relayed"]}),
    }
    if traced:
        result["layers"] = layer_metrics(recorder, tally, deployment)
        result["_recorder"] = recorder
    return result


def check_ledger(check: Dict[str, Any]) -> List[str]:
    if abs(check["ledger_sum"]) > LEDGER_TOLERANCE:
        return [f"ledger-conservation: balances sum to "
                f"{check['ledger_sum']:+.9f} GPU-hours"]
    return []


def check_federation(check: Dict[str, Any]) -> List[str]:
    violations = check_jobs(check) + check_ledger(check)
    if check["relayed"] <= 0:
        violations.append("relay: no job was relayed multi-hop")
    return violations


# -- lan_storm ----------------------------------------------------------------

def lan_replicate(seed: int, size: Dict[str, float],
                  traced: bool = False) -> Dict[str, Any]:
    """Fan-in transfer storm on one platform's LAN, meter attached.

    ``concurrent`` transfers start (exponential gaps of 12 ms), then
    every completion is replaced until ``churn`` more have been issued;
    the run ends when the last one lands.  72% of transfers fan in onto
    one of the few server downlinks.  The platform's own TrafficMeter
    observes the engine, so it settles synchronously, as every
    platform does.
    """
    hosts, concurrent = int(size["hosts"]), int(size["concurrent"])
    total = concurrent + int(size["churn"])
    hot = max(2, hosts // 16)
    workstations = [f"ws{index}" for index in range(hosts - hot)]
    servers = [f"srv{index}" for index in range(hot)]

    def build():
        rng = random.Random(seed)
        plan = []
        for _ in range(total):
            src = rng.choice(workstations)
            if rng.random() < 0.72:
                dst = rng.choice(servers)
            else:
                dst = rng.choice(workstations[:20])
                if dst == src:
                    dst = workstations[20]
            plan.append((src, dst, rng.uniform(0.2, 2.0) * GIB))
        gaps = [rng.expovariate(1 / 0.012) for _ in range(concurrent)]
        platform = GPUnionPlatform(seed=seed, backbone_capacity=gbps(200))
        for name in workstations + servers:
            platform.lan.attach(name, access_capacity=gbps(1))
        return platform, plan, gaps

    (platform, plan, gaps), setup_s = timed_setup(build)
    env, network = platform.env, platform.network
    state = {"issued": 0, "done": 0, "finish": []}

    def submit():
        index = state["issued"]
        if index >= total:
            return
        state["issued"] += 1
        src, dst, nbytes = plan[index]
        network.transfer(src, dst, nbytes,
                         category="bench").callbacks.append(completed)

    def completed(event):
        state["done"] += 1
        state["finish"].append(rounded(env.now))
        submit()

    def buildup(env):
        for gap in gaps:
            submit()
            yield env.timeout(gap)

    env.process(buildup(env))
    recorder = tally = None
    if traced:
        recorder, tally = LayerRecorder(), Tally()
        recorder.attach(env)
        recorder.wrap(network, "transfer", "flows.transfer")

    def advance() -> None:
        while state["done"] < total:
            env.step()

    timings = _timed_run(recorder, advance, setup_s)
    requested = sum(nbytes for _, _, nbytes in plan)
    delivered = platform.traffic.total_bytes("bench")
    result = {
        **timings,
        "sim": {"transfers": total, "sim_seconds": env.now},
        "check": {"requested_bytes": requested, "delivered_bytes": delivered,
                  "issued": state["issued"], "completed": state["done"]},
        "digest": digest({"finish": state["finish"]}),
    }
    if traced:
        result["layers"] = layer_metrics(recorder, tally)
        result["_recorder"] = recorder
    return result


def check_lan(check: Dict[str, Any]) -> List[str]:
    violations = []
    requested, delivered = check["requested_bytes"], check["delivered_bytes"]
    if abs(delivered - requested) > 1e-9 * max(1.0, requested):
        violations.append(f"bytes: delivered {delivered:.0f} of "
                          f"{requested:.0f} requested")
    if check["completed"] != check["issued"]:
        violations.append(f"transfers: {check['completed']} of "
                          f"{check['issued']} completed")
    return violations


REPLICATES = {
    "campus_churn": (campus_replicate, check_campus),
    "federation_relay": (federation_replicate, check_federation),
    "lan_storm": (lan_replicate, check_lan),
}
