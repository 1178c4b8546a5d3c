"""Hot-path performance benchmarks for the simulation core.

Two workloads, both driven by ``tools/perf_report.py`` (which records
the numbers into ``BENCH_perf.json``) and smoke-tested here under
pytest:

* **Flow-churn microbench** — thousands of concurrent transfers over a
  campus LAN star, with every completion immediately replaced, so the
  engine reallocates rates continuously at full population.  The
  topology deliberately has many distinct bottleneck links (fan-in
  "server" hosts), which is the regime where the old
  O(rounds · links · flows) restart collapses.  Runs against both the
  optimized :class:`~repro.network.flows.FlowNetwork` and the
  preserved :class:`~repro.network._reference.ReferenceFlowNetwork`;
  the headline number is the speedup.
* **Relay-chaos macrobench** — an 8-campus line federation with
  provider churn, randomized WAN partitions, and multi-hop relaying:
  the heaviest end-to-end scenario the repo has, exercising gossip,
  forwarding, reconciliation, checkpoint replication, and both LAN and
  WAN flow engines at once.

Both report wall-clock seconds, simulator events per second, and flow
reallocations per second — the trajectory future perf PRs are
measured against.
"""

import random
import time

import pytest

from repro.agent import BehaviorProfile
from repro.core.faults import LinkOutage
from repro.federation import FederatedDeployment, FederationConfig
from repro.gpu import RTX_3090, RTX_4090
from repro.network import CampusLAN, FlowNetwork
from repro.network._reference import ReferenceFlowNetwork
from repro.sim import Environment
from repro.units import GIB, HOUR, MINUTE, gbps
from repro.workloads import RESNET50, UNET_SEG, next_job_id
from repro.workloads.training import TrainingJobSpec

from conftest import run_once

#: Full-size microbench parameters (the ISSUE-5 target scenario).
MICRO_FULL = dict(hosts=500, hot_hosts=30, concurrent=5000, churn_events=400)
#: Scaled-down parameters for CI smoke and ``--quick`` runs.
MICRO_QUICK = dict(hosts=120, hot_hosts=10, concurrent=800, churn_events=150)


def run_flow_churn(engine_cls, hosts=500, hot_hosts=30, concurrent=5000,
                   churn_events=400, seed=11, hooks=None):
    """Flow-churn microbench: build up ``concurrent`` flows, then
    replace every completion until ``churn_events`` have completed.

    Returns a dict of wall-clock and throughput numbers for the
    *churn phase* (the steady-state regime the engine lives in) plus
    the total wall-clock including buildup.  ``hooks`` attaches a
    kernel-hooks object to the environment — how the hooks-overhead
    number in BENCH_perf.json is measured.
    """
    env = Environment(hooks=hooks)
    lan = CampusLAN(backbone_capacity=gbps(200))
    workstations = [f"ws{i}" for i in range(hosts - hot_hosts)]
    servers = [f"srv{i}" for i in range(hot_hosts)]
    for name in workstations + servers:
        lan.attach(name, access_capacity=gbps(1))
    net = engine_cls(env, lan)
    rng = random.Random(seed)
    state = {"completions": 0, "active": 0, "measuring": False}

    def submit():
        src = rng.choice(workstations)
        if rng.random() < 0.72:
            dst = rng.choice(servers)  # fan-in onto a hot downlink
        else:
            dst = src
            while dst == src:
                dst = rng.choice(workstations)
        size = rng.uniform(0.2, 2.0) * GIB
        done = net.transfer(src, dst, size)
        state["active"] += 1
        done.callbacks.append(_on_done)

    def _on_done(event):
        state["active"] -= 1
        if state["measuring"]:
            state["completions"] += 1
        submit()  # every completion is replaced: constant population

    def buildup(env):
        for _ in range(concurrent):
            submit()
            yield env.timeout(rng.expovariate(1.0 / 0.012))

    started = time.perf_counter()
    arrivals = env.process(buildup(env))
    # Drain the buildup arrivals before the churn timer starts.
    while not arrivals.triggered:
        env.step()
    buildup_wall = time.perf_counter() - started
    state["measuring"] = True
    realloc_before = net.reallocations
    churn_started = time.perf_counter()
    steps = 0
    while state["completions"] < churn_events:
        env.step()
        steps += 1
    churn_wall = time.perf_counter() - churn_started
    return {
        "engine": engine_cls.__name__,
        "hosts": hosts,
        "concurrent_flows": concurrent,
        "churn_events": churn_events,
        "buildup_wall_seconds": round(buildup_wall, 3),
        "churn_wall_seconds": round(churn_wall, 3),
        "total_wall_seconds": round(buildup_wall + churn_wall, 3),
        "churn_steps": steps,
        "events_per_sec": round(steps / churn_wall, 1) if churn_wall else None,
        "reallocations": net.reallocations - realloc_before,
        "reallocations_per_sec": (
            round((net.reallocations - realloc_before) / churn_wall, 1)
            if churn_wall else None),
    }


def run_relay_chaos(campuses=8, sim_hours=3.0, jobs=40, seed=5,
                    trace=False, hooks=None):
    """Relay-chaos macrobench: an ``campuses``-site line federation
    under provider churn and randomized WAN flapping.

    The first campus drowns in demand, the last hosts the farm, and
    every site in between churns — so placement only works through
    multi-hop relaying across links that keep failing.  With
    ``trace=True`` the run records causal spans and reports span-tree
    health (orphan count) — the federation tracing acceptance check.
    """
    names = [f"site{i}" for i in range(campuses)]
    fed = FederatedDeployment(
        seed=seed,
        federation_config=FederationConfig(
            max_forward_hops=min(4, campuses - 1),
            gossip_interval_min=15.0,
            admission_headroom_horizon=30 * MINUTE,
        ),
        hooks=hooks,
        trace=trace,
    )
    handles = [fed.add_campus(name) for name in names]
    for a, b in zip(names, names[1:]):
        fed.connect(a, b)
    churn = BehaviorProfile(
        events_per_day=5.0,
        p_scheduled=0.3, p_emergency=0.3, p_temporary=0.4,
        mean_temporary_downtime=40 * MINUTE,
        mean_rejoin_delay=30 * MINUTE,
    )
    for i, handle in enumerate(handles):
        if i == len(handles) - 1:
            handle.platform.add_provider(f"{names[i]}-farm", [RTX_4090] * 4,
                                         lab="infra")
        else:
            host = f"{names[i]}-ws"
            handle.platform.add_provider(host, [RTX_3090], lab="vision")
            if 0 < i:
                handle.platform.add_behavior(host, churn)
    rng = random.Random(seed)
    outages = []
    for a, b in zip(names, names[1:]):
        at = rng.uniform(10 * MINUTE, 40 * MINUTE)
        while at < sim_hours * HOUR * 0.7:
            duration = rng.uniform(3 * MINUTE, 20 * MINUTE)
            outages.append(LinkOutage(a, b, at, duration))
            at += duration + rng.uniform(10 * MINUTE, 50 * MINUTE)
    fed.inject(outages)
    models = (RESNET50, UNET_SEG)
    for i in range(jobs):
        handle = handles[0] if i % 3 else handles[i % len(handles)]
        handle.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=rng.choice(models),
            total_compute=rng.uniform(0.3, 1.5) * HOUR, lab="vision"))
    started = time.perf_counter()
    until = sim_hours * HOUR
    steps = 0
    env = fed.env
    while env.peek() <= until:
        env.step()
        steps += 1
    wall = time.perf_counter() - started
    reallocations = fed.fabric.reallocations + sum(
        h.platform.network.reallocations for h in handles)
    result = {
        "campuses": campuses,
        "sim_hours": sim_hours,
        "jobs": jobs,
        "wall_seconds": round(wall, 3),
        "steps": steps,
        "events_per_sec": round(steps / wall, 1) if wall else None,
        "reallocations": reallocations,
        "reallocations_per_sec": round(reallocations / wall, 1) if wall else None,
        "forwarded": fed.total_forwarded(),
        "relayed": fed.total_relayed(),
        "duplicate_executions": len(fed.duplicate_executions()),
    }
    if trace:
        tracer = fed.tracer
        result.update(
            traces=len(tracer.trace_ids()),
            spans=len(tracer),
            orphan_spans=len(tracer.orphans()),
        )
        result["deployment"] = fed  # for span-tree assertions in tests
    return result


# -- pytest smoke (CI runs these via the benchmarks job) -------------------

def test_flow_churn_speedup(benchmark):
    """The optimized engine must beat the reference on the quick churn
    scenario.  The full 5k-flow numbers live in BENCH_perf.json."""
    def both():
        fast = run_flow_churn(FlowNetwork, **MICRO_QUICK)
        slow = run_flow_churn(ReferenceFlowNetwork, **MICRO_QUICK)
        return fast, slow
    fast, slow = run_once(benchmark, both)
    speedup = slow["churn_wall_seconds"] / fast["churn_wall_seconds"]
    print(f"\nflow churn (quick): reference {slow['churn_wall_seconds']}s, "
          f"optimized {fast['churn_wall_seconds']}s -> {speedup:.1f}x")
    # Identical simulated work (the step counts differ only because the
    # reference schedules throwaway wake timers that the optimized
    # engine's reusable wake elides)...
    assert fast["reallocations"] == slow["reallocations"]
    # ...for materially less wall-clock (3x on the full scenario; the
    # quick one is small enough that constant factors soften it).
    assert speedup > 1.5


def test_relay_chaos_macro(benchmark):
    """The macro scenario must run clean: no duplicate executions, and
    relaying actually engaged."""
    result = run_once(benchmark, run_relay_chaos,
                      campuses=4, sim_hours=1.0, jobs=12)
    print(f"\nrelay chaos (4 campuses, 1h): {result['wall_seconds']}s wall, "
          f"{result['events_per_sec']} events/s")
    assert result["duplicate_executions"] == 0
    assert result["steps"] > 0


if __name__ == "__main__":
    fast = run_flow_churn(FlowNetwork, **MICRO_FULL)
    print("optimized:", fast)
    slow = run_flow_churn(ReferenceFlowNetwork, **MICRO_FULL)
    print("reference:", slow)
    print("speedup:",
          round(slow["churn_wall_seconds"] / fast["churn_wall_seconds"], 2))
