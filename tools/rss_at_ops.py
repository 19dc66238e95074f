"""Peak memory of one benchmark workload after exactly N ops, in one process.

    python3 tools/rss_at_ops.py --workload verify-corpus --seed 5 --ops 20000

perfbench's `peak_rss_mb` is read after a timed run, so a faster tree runs more
ops and keeps more per-op records.  This runs a fixed number of ops through
perfbench/run.py's own `measure` loop and workload generators, imported
unchanged, with no time limit, and prints the process's `ru_maxrss` in MB as
one JSON line, so two trees compare at equal op counts.  Standard library only.
"""

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench/run.py

    if args.workload not in run.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(run.WORKLOADS)}")
    if args.ops < 1:
        parser.error("--ops must be positive")
    lieq = run.load_lieq()
    ops = run.WORKLOADS[args.workload](lieq, args.seed)
    latencies, outcomes, _ = run.measure(itertools.islice(ops, args.ops), float("inf"), 0)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        **run.summary(outcomes),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
