"""Shared helpers: seeds, statistics, digests and memory readings."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from time import perf_counter, sleep
from typing import Any, Callable, List, Tuple

#: Set-ups timed per worker, and the pause before each but the first.
#: The host this benchmark was built on switches between a fast and a
#: slow state every fraction of a second; back-to-back builds of a few
#: milliseconds all land in one state, so the builds are spread over
#: about a second and averaged (``setup_s`` is the run's median of
#: those means).
SETUP_REPEATS = 31
SETUP_GAP_S = 0.03


def sub_seed(seed: int, label: str) -> int:
    """A 32-bit seed derived from the run seed and a replicate label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0.0`` for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil without floats drifting
    return ordered[max(1, min(len(ordered), int(rank))) - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_setup(build: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times, :data:`SETUP_GAP_S`
    apart; keep the last result.

    Returns ``(result, mean host seconds of a build)``.  Every repeat
    builds from the same inputs, so the kept result is what a single
    set-up gives.
    """
    seconds = 0.0
    result = None
    for index in range(SETUP_REPEATS):
        if index:
            sleep(SETUP_GAP_S)
        started = perf_counter()
        result = build()
        seconds += perf_counter() - started
    return result, seconds / SETUP_REPEATS


def peak_rss_mib() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(document: Any) -> str:
    """Stable short hash of a JSON-able outcome document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rounded(value: float) -> float:
    """A float rounded for hashing (sim times are exact per seed; the
    rounding only guards against last-bit noise in derived sums)."""
    return round(value, 6)
