"""One replicate of a simulated workload, in a fresh interpreter.

Usage: ``python3 gpubench/worker.py <workload> <seed> <size> <traced>
[<spans.jsonl.gz>]``.  Prints the replicate's result as one JSON line.
"""

from __future__ import annotations

import json
import sys

from common import peak_rss_mib
from workloads import REPLICATES, SIZES


def main(argv) -> int:
    workload, seed, size, traced = argv[:4]
    replicate, _check = REPLICATES[workload]
    result = replicate(int(seed), SIZES[size][workload],
                       traced=traced == "1")
    result["peak_rss_mib"] = peak_rss_mib()
    recorder = result.pop("_recorder", None)
    if recorder is not None and len(argv) > 4:
        recorder.write_spans(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
