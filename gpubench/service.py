"""service_http: the relay scenario behind ``SimulationServer``.

Two processes.  The server process (this file run as a script) builds
a free-running :class:`repro.server.SimulationServer` over the
``federation_relay`` scenario, prints its URL, serves until told to
drain on stdin, waits until every accepted job is terminal, audits, and
prints its result.  The load generator (:func:`run_service`, in the
benchmark's own process) is an open loop over at most two connections
at a time: request ``i`` is due at ``start + i / rate`` whether or not
earlier ones have answered, and its latency is timed from when it was
due, so a stalled server also charges the requests queued behind it.

The server is the system under test, loaded with the relay scenario
compiled at a fixed seed (:data:`SCENARIO_SEED`); ``--seed`` makes the
inputs, which here are the requests: their order, types and targets.
Holding the scenario fixed keeps the simulated work behind every run
the same, so run-to-run spread in ``wall_s`` is the host's, not the
scenario's.

The traffic is that of the repository's own client, ``tools/load_gen.py``,
whose closed loops submit a job, wait out ``429`` replies, then poll
that job until it is terminal.  One recorded ``load_gen.py --quick``
run made 20 ``POST /jobs``, 40 ``GET /jobs/<id>`` polls and one
``GET /metrics`` scrape (and one ``GET /status`` to find the sites,
sent here once per session, untimed), the same on each of three runs;
:data:`MIX` offers requests in those proportions, :data:`JOB` submits
load_gen's default job to a site drawn as load_gen draws it, and a
read polls one of the last :data:`POLLED` accepted jobs, as load_gen's
four loops do.  Only the
offered rate, :data:`RATE`, is the benchmark's own choice.  After the
fixed-rate phase a rate sweep finds ``max_rps``: the highest offered
rate whose submit p99 stays under :data:`LATENCY_LIMIT_MS` with nothing
refused and the generator keeping up.

A ``429`` is the server pushing back, not a fault: it is counted
(``rejected_429``) and stops the sweep, but only transport errors and
other non-2xx replies of the fixed-rate phase are failed operations.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Any, Dict, List, Optional
from urllib.parse import urlsplit

from common import digest, median, peak_rss_mib, percentile, timed_setup

#: Seed the served scenario is compiled with.
SCENARIO_SEED = 0
#: Offered rate (requests/s) of the fixed-rate phase.
RATE = 100.0
#: Requests of each type in one recorded ``tools/load_gen.py --quick``
#: run; the mix offers them in these proportions.
MIX = (("submit", 20), ("status", 40), ("scrape", 1))
#: load_gen's closed loops (``--quick``: four), each polling its own job.
POLLED = 4
#: Submit p99 limit the rate sweep holds (ms).
LATENCY_LIMIT_MS = 50.0
#: Server sessions per run; ``wall_s`` is their median.
SESSIONS = 3
#: Longest fixed-rate phase (it ends when the server reaches its horizon).
MAX_FIXED_S = 60.0
#: Sweep: rates tried in order, seconds offered at each.
SWEEP_RATES = (150.0, 200.0, 300.0, 400.0, 600.0, 800.0)
SWEEP_STEP_S = 1.0
#: Concurrent connections the generator may hold.
CONNECTIONS = 2
#: load_gen's job (its defaults); the site is drawn uniformly from the
#: server's sites, as load_gen draws it.
JOB = {"model": "resnet50-cifar", "compute_hours": 0.02,
       "owner": "loadgen", "lab": "loadgen"}


def is_error(status: int) -> bool:
    """A failed request: a transport error (status 0) or any reply but
    200, 202 and the ``429`` of admission backpressure."""
    return status not in (200, 202, 429)


class _TimedLock:
    """The server's lock, summing the time it is held (``held``).

    Traced, each hold is a ``server.lock`` span that the work done
    under it nests in, and ``held`` sums those spans, so the self-time
    buckets of a traced session add up to its lock-held time.
    """

    def __init__(self, lock, recorder=None):
        self.lock = lock
        self.recorder = recorder
        self.held = 0.0
        self._started = 0.0
        self._span = None

    def __enter__(self):
        self.lock.acquire()
        if self.recorder is None:
            self._started = perf_counter()
        else:
            self._span = self.recorder.span("server.lock")
            self._span.__enter__()
        return self

    def __exit__(self, *exc):
        if self._span is None:
            self.held += perf_counter() - self._started
        else:
            self._span.__exit__(*exc)
            self.held += self._span.duration
        self.lock.release()


# -- server process -----------------------------------------------------------

def serve(size: str, traced: bool, spans_path: Optional[str]) -> int:
    from repro.server import SimulationServer

    from recorder import LayerRecorder
    from workloads import (SIZES, Tally, layer_metrics, relay_scenario,
                           wire_deployment)

    spec = relay_scenario(SIZES[size]["service_http"]["hours"])
    server, setup_s = timed_setup(
        lambda: SimulationServer(spec, seed=SCENARIO_SEED))
    deployment = server.deployment
    horizon = server.compiled.horizon
    recorder = tally = None
    if traced:
        recorder, tally = LayerRecorder(), Tally()
        wire_deployment(recorder, deployment, tally)
        recorder.wrap(server, "route_jobs", "server.route")
        recorder.wrap(server.collector, "collect", "observability.collect")
    # Before start(): the request handlers take the lock bound then.
    lock = server.lock = _TimedLock(server.lock, recorder)

    chunks: List[float] = []
    clock = {"start": 0.0, "horizon": None}
    advance = deployment.run

    def run(until=None):
        # The stepping thread advances one chunk per lock hold.
        started = perf_counter()
        if recorder is None:
            advance(until=until)
        else:
            with recorder.span("sim.run"):
                advance(until=until)
        chunks.append(perf_counter() - started)
        if clock["horizon"] is None and deployment.env.now >= horizon:
            clock["horizon"] = perf_counter() - clock["start"]
            print(json.dumps({"horizon_s": clock["horizon"]}), flush=True)

    deployment.run = run
    clock["start"] = perf_counter()
    url = server.start()
    print(json.dumps({"url": url}), flush=True)
    try:
        sys.stdin.readline()  # the generator is done sending
        if clock["horizon"] is None:
            raise RuntimeError("drain requested before the horizon")
        server.run_until_idle(timeout=60.0)
    finally:
        server.stop()
    violations = server.audit()
    with server.lock:
        _code, _type, body, _headers = server.route_jobs("GET", "/jobs", None)
    statuses = {job["job_id"]: job["status"]
                for job in json.loads(body)["jobs"]}
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": clock["horizon"],
        "peak_rss_mib": peak_rss_mib(),
        "lock_hold_p99_ms": percentile(chunks, 99) * 1000,
        "lock_held_s": lock.held,
        "statuses": statuses,
        "audit": violations,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, tally, deployment)
        if spans_path:
            recorder.write_spans(spans_path)
    print(json.dumps(result), flush=True)
    return 0


# -- load generator -----------------------------------------------------------

class _Load:
    """One open-loop phase: a schedule, its samples, and its workers.

    Workers stop taking requests from the schedule once ``stop`` is set
    (the fixed-rate phase ends when the server reaches its horizon).
    """

    def __init__(self, address, rate: float, count: int, rng: random.Random,
                 sites: List[str], accepted: List[str],
                 stop: Optional[threading.Event] = None):
        self.address = address
        self.rate = rate
        self.sites = sites
        kinds = [kind for kind, _ in MIX]
        weights = [weight for _, weight in MIX]
        self.kinds = rng.choices(kinds, weights, k=count)
        self.picks = [rng.random() for _ in range(count)]
        self.accepted = accepted
        self.stop = stop
        self.next = 0
        self.lock = threading.Lock()
        self.samples: List[Dict[str, Any]] = []

    def _request(self, method: str, path: str, body: Optional[bytes]):
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _worker(self, start: float) -> None:
        while True:
            with self.lock:
                index = self.next
                if index >= len(self.kinds):
                    return
                self.next += 1
                kind, pick = self.kinds[index], self.picks[index]
                if kind == "status":
                    recent = min(POLLED, len(self.accepted))
                    job_id = self.accepted[-1 - int(pick * recent)]
            due = start + index / self.rate
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            if self.stop is not None and self.stop.is_set():
                return
            sent = perf_counter()
            try:
                if kind == "submit":
                    site = self.sites[int(pick * len(self.sites))]
                    status, body = self._request(
                        "POST", "/jobs", json.dumps(dict(JOB, site=site)
                                                    ).encode())
                elif kind == "status":
                    status, body = self._request("GET", f"/jobs/{job_id}",
                                                 None)
                else:
                    status, body = self._request("GET", "/metrics", None)
            except (OSError, http.client.HTTPException) as error:
                status, body = 0, repr(error).encode()
            done = perf_counter()
            with self.lock:
                if kind == "submit" and status == 202:
                    self.accepted.append(json.loads(body)["job_id"])
                self.samples.append({"kind": kind, "status": status,
                                     "latency_ms": (done - due) * 1000,
                                     "lag_ms": (sent - due) * 1000})

    def run(self) -> None:
        start = perf_counter() + 0.05
        workers = [threading.Thread(target=self._worker, args=(start,))
                   for _ in range(CONNECTIONS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
        if any(worker.is_alive() for worker in workers):
            raise RuntimeError("load generator workers did not finish")

    def latencies(self, kind: str) -> List[float]:
        return [s["latency_ms"] for s in self.samples
                if s["kind"] == kind and s["status"] in (200, 202)]

    def refused(self) -> int:
        """Requests answered with anything but 200 or 202 (429s too)."""
        return sum(1 for s in self.samples if s["status"] not in (200, 202))

    def errors(self) -> int:
        return sum(1 for s in self.samples if is_error(s["status"]))


def _keeps_up(load: _Load, seconds: float) -> bool:
    """Under the limit, nothing refused, and the generator not lagging
    further and further behind its schedule."""
    submits = load.latencies("submit")
    if load.refused() or not submits:
        return False
    lags = [s["lag_ms"] for s in load.samples]
    return (percentile(submits, 99) <= LATENCY_LIMIT_MS
            and max(lags[-len(lags) // 4:]) < seconds * 1000 / 4)


class _ServerProcess:
    """The server process and a thread reading its JSON stdout lines."""

    def __init__(self, root: str, size: str, traced: bool,
                 spans_path: Optional[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "gpubench")])
        command = [sys.executable,
                   os.path.join(root, "gpubench", "service.py"),
                   size, "1" if traced else "0", spans_path or ""]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=env,
                                        text=True)
        self.lines: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self.horizon = threading.Event()
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            message = json.loads(line)
            if "horizon_s" in message:
                self.horizon.set()
            self.lines.put(message)
        self.lines.put({"eof": True})
        self.horizon.set()  # the process ended: nothing left to wait for

    def next_message(self) -> Dict[str, Any]:
        try:
            message = self.lines.get(timeout=150)
        except queue.Empty:
            raise RuntimeError("the server process stopped answering")
        if "eof" in message:
            raise RuntimeError("the server process exited early")
        return message

    def finish(self) -> Dict[str, Any]:
        self.process.stdin.write("drain\n")
        self.process.stdin.close()
        while True:
            message = self.next_message()
            if "statuses" in message:
                return message

    def close(self) -> None:
        """Wait for the process to exit (killing it if it hangs)."""
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.reader.join(timeout=10)


def _session(root: str, size: str, traced: bool, spans_path: Optional[str],
             rng: random.Random, sweep: bool) -> Dict[str, Any]:
    """One server process: fixed-rate load until its horizon, then
    (``sweep``) the rate sweep, then drain and collect."""
    server = _ServerProcess(root, size, traced, spans_path)
    try:
        parts = urlsplit(server.next_message()["url"])
        address = (parts.hostname, parts.port)
        sites = _sites(address)
        # One untimed submission first, so every read has a job to read.
        warmup = _Load(address, RATE, 1, rng, sites, [])
        warmup.kinds = ["submit"]
        warmup.run()
        if not warmup.accepted:
            raise RuntimeError(f"warm-up submission failed: "
                               f"{warmup.samples}")
        fixed = _Load(address, RATE, int(RATE * MAX_FIXED_S), rng, sites,
                      list(warmup.accepted), stop=server.horizon)
        fixed.run()
        loads = [warmup, fixed]
        max_rps = RATE if _keeps_up(fixed, MAX_FIXED_S) else 0.0
        if sweep and max_rps:
            for rate in SWEEP_RATES:
                step = _Load(address, rate, int(rate * SWEEP_STEP_S), rng,
                             sites, fixed.accepted)
                step.run()
                loads.append(step)
                if not _keeps_up(step, SWEEP_STEP_S):
                    break
                max_rps = rate
        result = server.finish()
    finally:
        server.close()
    if server.process.returncode != 0:
        raise RuntimeError(
            f"server process exited {server.process.returncode}")
    result.update(fixed=fixed, checked=[warmup, fixed], loads=loads,
                  max_rps=max_rps)
    return result


def _sites(address) -> List[str]:
    """The server's sites from ``GET /status``, as load_gen finds them."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", "/status")
        return sorted(json.loads(connection.getresponse().read())["sites"])
    finally:
        connection.close()


def run_service(root: str, seed: int, size: str, traced: bool,
                spans_path: Optional[str]) -> Dict[str, Any]:
    """:data:`SESSIONS` server sessions (one when traced); the sweep
    runs in the last untraced one."""
    rng = random.Random(seed)
    count = 1 if traced else SESSIONS
    sessions = [_session(root, size, traced, spans_path, rng,
                         sweep=not traced and index == count - 1)
                for index in range(count)]
    fixed = [session["fixed"] for session in sessions]
    loads = [load for session in sessions for load in session["loads"]]
    # The sweep probes past the fixed rate: its refusals are findings.
    checked = [load for session in sessions for load in session["checked"]]

    def pooled(kind: str) -> List[float]:
        return [value for load in fixed for value in load.latencies(kind)]

    submits = pooled("submit")
    lags = [s["lag_ms"] for load in fixed for s in load.samples]
    statuses: Dict[str, str] = {}
    audit: List[str] = []
    for index, session in enumerate(sessions):
        statuses.update({f"{index}:{job}": status
                         for job, status in session["statuses"].items()})
        audit.extend(session["audit"])
    result: Dict[str, Any] = {
        "setup_s": median([s["setup_s"] for s in sessions]),
        "wall_s": median([s["wall_s"] for s in sessions]),
        "peak_rss_mib": median([s["peak_rss_mib"] for s in sessions]),
        "lock_held_s": median([s["lock_held_s"] for s in sessions]),
    }
    result["sim"] = {
        "submit_p50_ms": percentile(submits, 50),
        "submit_p99_ms": percentile(submits, 99),
        "status_p99_ms": percentile(pooled("status"), 99),
        "scrape_p99_ms": percentile(pooled("scrape"), 99),
        "loadgen_lag_p99_ms": percentile(lags, 99),
        "max_rps": sessions[-1]["max_rps"],
        "samples": {kind: len(pooled(kind)) for kind, _ in MIX},
        "rejected_429": sum(1 for load in loads for s in load.samples
                            if s["status"] == 429),
        "jobs_completed": sum(1 for status in statuses.values()
                              if status == "completed"),
        "lock_hold_p99_ms": median([s["lock_hold_p99_ms"]
                                    for s in sessions]),
        "lock_held_s": result["lock_held_s"],
    }
    result["check"] = {
        "requests": sum(len(load.samples) for load in checked),
        "failed_requests": sum(load.errors() for load in checked),
        "statuses": statuses,
        "audit": audit,
    }
    # How many requests fit before the horizon follows the wall clock,
    # and so do completion times: only the outcome classes are hashed.
    result["digest"] = digest({"statuses": sorted(set(statuses.values())),
                               "audit": audit})
    if traced:
        layers = dict(sessions[0]["layers"])
        layers["server.lock_hold_p99_ms"] = sessions[0]["lock_hold_p99_ms"]
        layers["server.rejected_429"] = result["sim"]["rejected_429"]
        layers["loadgen.lag_p99_ms"] = result["sim"]["loadgen_lag_p99_ms"]
        result["layers"] = layers
    return result


def check_service(check: Dict[str, Any]) -> List[str]:
    violations = []
    if check["failed_requests"]:
        violations.append(f"requests: {check['failed_requests']} of "
                          f"{check['requests']} failed")
    open_jobs = sum(1 for status in check["statuses"].values()
                    if status not in ("completed", "failed", "cancelled"))
    if open_jobs:
        violations.append(f"terminal: {open_jobs} accepted job(s) never "
                          f"reached a terminal status")
    failed = sum(1 for status in check["statuses"].values()
                 if status == "failed")
    if failed:
        violations.append(f"no-job-lost: {failed} accepted job(s) failed")
    violations.extend(f"audit: {violation}" for violation in check["audit"])
    return violations


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2] == "1",
                   sys.argv[3] if len(sys.argv) > 3 else None))
