"""The benchmark's own tests: tiny smokes, metric names, planted faults.

Run from the repository root: ``python3 -m pytest gpubench -q``.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from service import check_service, is_error  # noqa: E402
from workloads import check_campus, check_federation, check_lan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "gpubench",
                                                         "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


# -- names and BENCHMARK.json ------------------------------------------------

def test_metric_names_match_the_pattern():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
    for name in run.WORKLOADS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- tiny smokes --------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "3",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["violations"]
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["sim.events"] > 0
        # Self times partition the traced wall time (on service_http,
        # the session's lock-held time).
        assert metrics["trace.accounted_s"] == pytest.approx(
            metrics["trace.wall_s"], rel=1e-3)
        _check_span_tree(os.path.join(
            ROOT, ".gpubench", f"spans-{workload}-3.jsonl.gz"))


def _check_span_tree(path):
    """Every span nests inside the parent it names."""
    with gzip.open(path, "rt") as handle:
        spans = {span["id"]: span for span in map(json.loads, handle)}
    assert spans
    for span in spans.values():
        if span["parent"] < 0:
            continue
        parent = spans[span["parent"]]
        assert parent["id"] < span["id"]
        assert parent["start"] <= span["start"] <= span["end"] \
            <= parent["end"]


def test_a_seed_repeats_its_outcome():
    outcomes = []
    for _ in range(2):
        done = _bench("--workload", "federation_relay", "--seed", "5",
                      "--seconds", "1", "--size", "tiny")
        assert done.returncode == 0, done.stderr
        outcomes.append(json.loads(done.stdout.splitlines()[-2])["report"])
    assert outcomes[0]["digest"] == outcomes[1]["digest"]
    assert outcomes[0]["sim"] == outcomes[1]["sim"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "gpubench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "lan_storm", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- planted faults trip the failure counter ----------------------------------

def _jobs(**overrides):
    check = {"statuses": ["completed", "running", "pending"],
             "completions": [1, 0, 0]}
    check.update(overrides)
    return check


def test_clean_records_pass():
    assert check_campus(_jobs()) == []
    assert check_federation(dict(_jobs(), ledger_sum=0.0, relayed=2)) == []
    assert check_lan({"requested_bytes": 1e9, "delivered_bytes": 1e9,
                      "issued": 3, "completed": 3}) == []


@pytest.mark.parametrize("planted", [
    _jobs(completions=[2, 0, 0]),                # duplicated completion
    _jobs(statuses=["completed", "missing", "pending"]),  # lost job
    _jobs(statuses=["completed", "failed", "pending"]),
    _jobs(completions=[0, 0, 0]),                # completed, never recorded
])
def test_job_faults_are_counted(planted):
    assert check_campus(planted)
    outcome = {"metrics": {}, "attempted": 3,
               "violations": check_campus(planted)}
    line = run.result_line(outcome, run.END_TO_END)
    assert line["failed"] >= 1 and line["correct"] is False


def test_federation_faults_are_counted():
    assert check_federation(dict(_jobs(), ledger_sum=0.5, relayed=2))
    assert check_federation(dict(_jobs(), ledger_sum=0.0, relayed=0))


def test_unequal_bytes_are_counted():
    assert check_lan({"requested_bytes": 1e9, "delivered_bytes": 0.9e9,
                      "issued": 3, "completed": 3})
    assert check_lan({"requested_bytes": 1e9, "delivered_bytes": 1e9,
                      "issued": 3, "completed": 2})


def test_service_faults_are_counted():
    clean = {"requests": 10, "failed_requests": 0,
             "statuses": {"api-000001": "completed"}, "audit": []}
    assert check_service(clean) == []
    assert check_service(dict(clean, failed_requests=1))
    assert check_service(dict(clean, statuses={"api-000001": "running"}))
    assert check_service(dict(clean, audit=["exactly-once: 1 duplicated"]))


def test_backpressure_is_not_a_failed_request():
    assert not is_error(429)
    assert not is_error(202) and not is_error(200)
    assert is_error(0) and is_error(400) and is_error(500)
