#!/usr/bin/env python3
"""GPUnion benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 gpubench/run.py --workload campus_churn --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mib``) in host seconds with tracing off; ``--trace 1`` runs
one replicate untraced and then traced and reports the per-layer
metrics, spans written to ``.gpubench/``.  Every run checks the
simulated outcome and prints, before the final result line, a
``report`` line with the simulated metrics (utilization, sessions,
migration success, jobs completed, HTTP latencies) and the outcome
digest.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

from common import digest, median, sub_seed
from service import check_service, run_service

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Replicates per run: distinct sub-seeds of the run seed.  Summing
#: several keeps the seed-to-seed spread of ``wall_s`` small.
REPLICATES = {"campus_churn": 3, "federation_relay": 3, "lan_storm": 3}
WORKLOADS = tuple(REPLICATES) + ("service_http",)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

#: Per-layer metrics of a traced run, with units.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count", "sim.queue_max": "count", "sim.self_s": "s",
    **{f"{layer}.busy_s": "s" for layer in (
        "agent", "checkpoint", "containers", "core", "experiments",
        "federation", "network", "scenarios", "storage", "bench")},
    "core.select_calls": "count", "core.select_busy_s": "s",
    "core.selects_per_placed": "ratio",
    "checkpoint.captures": "count", "checkpoint.restores": "count",
    "checkpoint.call_busy_s": "s", "checkpoint.replicate_busy_s": "s",
    "storage.store_add_calls": "count", "storage.store_add_busy_s": "s",
    "flows.transfers": "count", "flows.transfer_busy_s": "s",
    "flows.reallocations": "count", "flows.realloc_busy_s": "s",
    "flows.flows_touched": "count", "flows.component_max": "count",
    "wan.transfers": "count", "wan.transfer_busy_s": "s", "wan.bytes": "B",
    "rpc.calls": "count", "rpc.call_busy_s": "s", "rpc.errors": "count",
    "federation.forwarded": "count", "federation.relayed": "count",
    "federation.choose_calls": "count", "federation.choose_busy_s": "s",
    "sharechain.ingests": "count", "sharechain.ingest_busy_s": "s",
    "sharechain.rejected": "count",
    "monitoring.db_writes": "count", "monitoring.db_busy_s": "s",
    "observability.collect_busy_s": "s",
    "server.route_busy_s": "s", "server.lock_other_s": "s",
    "server.lock_hold_p99_ms": "ms",
    "server.rejected_429": "count", "loadgen.lag_p99_ms": "ms",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.accounted_s": "s",
    "trace.spans": "count",
}

#: Self-time buckets that partition a traced run's wall time.  The
#: generator-level ``checkpoint.replicate_busy_s`` is a part of
#: ``checkpoint.busy_s`` and is left out.
SELF_TIME_BUCKETS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "s" and not name.startswith("trace.")
    and name != "checkpoint.replicate_busy_s")


def _subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def run_replicate(workload: str, seed: int, size: str, traced: bool,
                  spans_path: str = "") -> Dict[str, Any]:
    """One replicate in a fresh interpreter; its parsed result."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               str(seed), size, "1" if traced else "0", spans_path]
    done = subprocess.run(command, capture_output=True, text=True,
                          env=_subprocess_env(), timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} replicate failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pool_sim(workload: str, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the replicates' simulated metrics into the run's."""
    sims = [result["sim"] for result in results]
    if workload == "campus_churn":
        departures = sum(sim["scheduled_departures"] for sim in sims)
        within = sum(sim["scheduled_within_window"] for sim in sims)
        return {
            "gpu_util": sum(sim["gpu_util"] for sim in sims) / len(sims),
            "sessions_served": sum(sim["sessions_served"] for sim in sims),
            "migration_success": within / departures if departures else 0.0,
            "scheduled_departures": departures,
            "jobs_completed": sum(sim["jobs_completed"] for sim in sims),
        }
    pooled: Dict[str, Any] = {}
    for sim in sims:
        for key, value in sim.items():
            pooled[key] = pooled.get(key, 0) + value
    if "gpu_util" in pooled:
        pooled["gpu_util"] /= len(sims)
    return pooled


def measure_batch(workload: str, seed: int, seconds: float, size: str
                  ) -> Dict[str, Any]:
    """Untraced replicates: one pass for the outcome, more while time
    allows for steadier host timings (median per replicate)."""
    check = _check(workload)
    seeds = [sub_seed(seed, f"{workload}:{index}")
             for index in range(REPLICATES[workload])]
    started = perf_counter()
    first: List[Dict[str, Any]] = []
    walls: List[List[float]] = [[] for _ in seeds]
    setups: List[float] = []
    rss: List[float] = []
    violations: List[str] = []
    attempted = 0
    count = 0
    while True:
        index = count % len(seeds)
        result = run_replicate(workload, seeds[index], size, traced=False)
        count += 1
        walls[index].append(result["wall_s"])
        setups.append(result["setup_s"])
        rss.append(result["peak_rss_mib"])
        if count <= len(seeds):
            first.append(result)
            violations.extend(check(result["check"]))
            attempted += _operations(result["check"])
        elif result["digest"] != first[index]["digest"]:
            violations.append(
                f"determinism: replicate {index} digest "
                f"{result['digest']} != {first[index]['digest']}")
        elapsed = perf_counter() - started
        if count >= len(seeds) and elapsed + elapsed / count > seconds:
            break
    return {
        "metrics": {
            "setup_s": median(setups),
            "wall_s": sum(median(samples) for samples in walls),
            "peak_rss_mib": median(rss),
        },
        "sim": pool_sim(workload, first),
        "digest": digest([result["digest"] for result in first]),
        "attempted": attempted,
        "violations": violations,
    }


def _check(workload: str):
    """The correctness check of a simulated workload (imports repro)."""
    from workloads import REPLICATES as FUNCTIONS
    return FUNCTIONS[workload][1]


def _operations(check: Dict[str, Any]) -> int:
    """Operations a batch check document covers (jobs or transfers)."""
    return check["issued"] if "issued" in check else len(check["statuses"])


def trace_batch(workload: str, seed: int, size: str) -> Dict[str, Any]:
    """Replicate 0 untraced, then traced: per-layer metrics + overhead."""
    replicate_seed = sub_seed(seed, f"{workload}:0")
    plain = run_replicate(workload, replicate_seed, size, traced=False)
    os.makedirs(os.path.join(ROOT, ".gpubench"), exist_ok=True)
    spans = os.path.join(ROOT, ".gpubench",
                         f"spans-{workload}-{seed}.jsonl.gz")
    traced = run_replicate(workload, replicate_seed, size, traced=True,
                           spans_path=spans)
    violations = _check(workload)(traced["check"])
    if traced["digest"] != plain["digest"]:
        violations.append("determinism: tracing changed the outcome digest")
    return _layers(traced, traced["wall_s"], plain["wall_s"], violations,
                   _operations(traced["check"]))


def _layers(traced: Dict[str, Any], wall: float, untraced_wall: float,
            violations: List[str], attempted: int) -> Dict[str, Any]:
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = wall - untraced_wall
    layers["trace.accounted_s"] = sum(
        layers.get(name, 0.0) for name in SELF_TIME_BUCKETS)
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    return {"metrics": metrics, "sim": traced.get("sim", {}),
            "digest": traced["digest"], "attempted": attempted,
            "violations": violations}


def run_service_workload(seed: int, size: str, trace: bool
                         ) -> Dict[str, Any]:
    plain = run_service(ROOT, seed, size, traced=False, spans_path=None)
    violations = check_service(plain["check"])
    if not trace:
        return {
            "metrics": {name: plain[name] for name in END_TO_END},
            "sim": plain["sim"],
            "digest": plain["digest"],
            "attempted": plain["check"]["requests"],
            "violations": violations,
        }
    os.makedirs(os.path.join(ROOT, ".gpubench"), exist_ok=True)
    spans = os.path.join(ROOT, ".gpubench",
                         f"spans-service_http-{seed}.jsonl.gz")
    traced = run_service(ROOT, seed, size, traced=True, spans_path=spans)
    violations += check_service(traced["check"])
    # The traced wall on service_http is the session's lock-held time,
    # which the self-time buckets partition.
    return _layers(traced, traced["lock_held_s"], plain["lock_held_s"],
                   violations,
                   plain["check"]["requests"] + traced["check"]["requests"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke size")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"gpubench: no repro sources under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    if args.workload == "service_http":
        outcome = run_service_workload(args.seed, args.size,
                                       bool(args.trace))
    elif args.trace:
        outcome = trace_batch(args.workload, args.seed, args.size)
    else:
        outcome = measure_batch(args.workload, args.seed, args.seconds,
                                args.size)

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in outcome["metrics"].items():
        print(f"{args.workload:>16}  {name:<30} {value:>14.6g} {units[name]}")
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "digest": outcome["digest"],
        "sim": outcome["sim"],
        "violations": outcome["violations"]}}))
    print(json.dumps(result_line(outcome, units)))
    return 0


def result_line(outcome: Dict[str, Any], units: Dict[str, str]
                ) -> Dict[str, Any]:
    """The final output line: each violation is one failed operation."""
    failed = len(outcome["violations"])
    return {
        "correct": failed == 0,
        "attempted": max(1, outcome["attempted"], failed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
