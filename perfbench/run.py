"""Benchmark of the lieq workbench; the last line of output is a JSON result.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/workloads.py): verify-corpus, fingerprint-basechange,
classify-conjugated.  One process, one thread, closed loop: each op starts
when the previous one has finished and its output has been checked against
the known answer.  Making inputs and checking outputs are not timed.

--trace 0 reports the end-to-end metrics.  Their times are scaled to a
nominal machine speed measured between ops, and during set-up (see speed.py),
so that load from other tenants of a shared host cancels; the unscaled values
are printed too.

--trace 1 runs every op twice, untraced and traced, and reports per-layer self
times and counts, trace coverage and tracing overhead (unscaled).
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import Speed  # noqa: E402
from tracing import LAYERS, MODULES, PROBES, Tracer  # noqa: E402
from workloads import ERROR, OK, WORKLOADS, WRONG  # noqa: E402

SETUP_REPEATS = 7
#: fewest ops in an untraced run, so that p90 has at least 10 samples beyond it
MIN_OPS = 100
WARMUP_OPS = 2
PACKAGED_CORPORA = ("appendix_a.lalg", "appendix_b.lalg")
PACKAGED_MATRICES = "fixtures_ch3.lalg"

SETUP_CODE = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
from speed import probed

def setup():
    import lieq
    for name in {PACKAGED_CORPORA!r}:
        lieq.packaged_corpus(name)
    lieq.packaged_matrices({PACKAGED_MATRICES!r})

print(*probed(setup))
"""


def load_lieq():
    if not (SRC / "lieq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lieq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lieq

    return lieq


def setup_seconds():
    """Import lieq and parse its data in fresh interpreters.

    Returns the medians of the speed-scaled and of the unscaled times.
    """
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        values = done.stdout.split()
        scaled.append(float(values[-2]))
        unscaled.append(float(values[-1]))
    return statistics.median(scaled), statistics.median(unscaled)


def warm_up(lieq, workload, seed):
    """Run a few ops of another seed first, so that lazy set-up is not timed."""
    measure(itertools.islice(WORKLOADS[workload](lieq, seed + 1_000_003), WARMUP_OPS), 0, 0)


def run_op(op, tracer=None):
    """Run one op, traced if a tracer is given; return its latency and outcome."""
    if tracer is not None:
        tracer.in_op = True
        tracer.install()
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:
        result, error = None, exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.close()
        tracer.in_op = False
    try:
        outcome = op.check(result) if error is None else op.on_error(error)
    except Exception as exc:  # a result of another shape is a wrong answer
        outcome = WRONG
        print(f"perfbench: checking op {op.key[:2]} raised {exc!r}", file=sys.stderr)
    if error is not None:
        print(f"perfbench: op {op.key[:2]} raised {error!r} ({outcome})", file=sys.stderr)
    elif outcome == WRONG:
        print(f"perfbench: op {op.key[:2]} gave a wrong answer", file=sys.stderr)
    if tracer is not None and outcome != ERROR:
        try:
            op.probe(tracer, result)
        except Exception as exc:
            tracer.missing.add(f"probe: {type(exc).__name__}")
    return latency, outcome


def measure(ops, seconds, min_ops):
    """Run ops in a closed loop for `seconds`, and at least min_ops of them.

    Returns per-op latencies, outcomes and the machine-speed scale current
    at each op (see speed.py).
    """
    latencies, outcomes, scales = [], [], []
    speed = Speed()
    start = time.perf_counter()
    for op in ops:
        scales.append(speed.scale())
        latency, outcome = run_op(op)
        latencies.append(latency)
        outcomes.append(outcome)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    return latencies, outcomes, scales


def summary(outcomes):
    failed = sum(1 for o in outcomes if o in (WRONG, ERROR))
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed}


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def timing_metrics(latencies):
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "op_ms_p90": (1000 * percentile(latencies, 90), "ms"),
    }


def end_to_end(lieq, workload, seed, seconds):
    setup = setup_seconds()
    warm_up(lieq, workload, seed)
    latencies, outcomes, scales = measure(WORKLOADS[workload](lieq, seed), seconds, MIN_OPS)
    for name, (value, unit) in timing_metrics(latencies).items():
        print(f"unscaled {name:33s} {value:14.6g} {unit}")
    print(f"unscaled {'setup_s':33s} {setup[1]:14.6g} s")
    metrics = {
        "setup_s": (setup[0], "s"),
        **timing_metrics([t * k for t, k in zip(latencies, scales)]),
        "ok_share": (outcomes.count(OK) / len(outcomes), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return summary(outcomes), metrics


def per_layer(lieq, workload, seed, seconds):
    """Per-layer self times and counts, coverage and tracing overhead.

    Two copies of the seed's op sequence run side by side, one op of each in
    turn (alternating which goes first), the second copy traced: both halves
    then see the same machine load, so their time ratio is the overhead.
    """
    tracer = Tracer(lieq)
    tracer.install()
    try:
        for name in PACKAGED_CORPORA:
            lieq.parse_corpus(lieq.packaged_text(name))
        lieq.load_matrices(lieq.packaged_text(PACKAGED_MATRICES))
    finally:
        tracer.close()
    warm_up(lieq, workload, seed)
    plain, traced, outcomes = [], [], []
    start = time.perf_counter()
    pairs = zip(WORKLOADS[workload](lieq, seed), WORKLOADS[workload](lieq, seed))
    for index, (plain_op, traced_op) in enumerate(pairs):
        turns = [(plain_op, None, plain), (traced_op, tracer, traced)]
        for op, op_tracer, latencies in turns[::1 if index % 2 else -1]:
            latency, outcome = run_op(op, op_tracer)
            latencies.append(latency)
            outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {f"{layer}_s": (tracer.self_time[layer], "s") for layer in (*LAYERS, *PROBES)}
    for name, value in tracer.counters.items():
        unit = "bits" if name.endswith("_bits") else "log10" if "log10" in name else "count"
        metrics[name] = (value, unit)
    for module in MODULES:
        metrics[f"{module}.errors"] = (tracer.errors[module], "count")
    metrics["trace.coverage"] = (tracer.op_time / sum(traced), "share")
    metrics["trace.overhead"] = (sum(traced) / sum(plain) - 1, "share")
    metrics["trace.missing"] = (len(tracer.missing), "count")
    for item in sorted(tracer.missing):
        print(f"trace: missing {item}")
    return summary(outcomes), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lieq = load_lieq()
    for name in PACKAGED_CORPORA:
        lieq.packaged_corpus(name)
    run = per_layer if args.trace else end_to_end
    result, metrics = run(lieq, args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
