"""Tests of the benchmark itself (not of lieq).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import itertools
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import lieq  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import BREACH, OK, WORKLOADS, WRONG  # noqa: E402

FIRST = {"verify-corpus": 400, "fingerprint-basechange": 200, "classify-conjugated": 400}


def keys(workload, seed, n):
    return [op.key for op in itertools.islice(WORKLOADS[workload](lieq, seed), n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    n = FIRST[workload]
    first = keys(workload, 7, n)
    assert first == keys(workload, 7, n)
    assert first != keys(workload, 8, n)
    assert len(set(first)) == n  # no two ops share an input


def test_verify_corpus_follows_the_corpus_and_plants_negatives():
    corpus = lieq.packaged_corpus("appendix_a.lalg") + lieq.packaged_corpus("appendix_b.lalg")
    first_pass = keys("verify-corpus", 3, len(corpus))
    known = {e.id for e in corpus}
    negatives = [k for k in first_pass if k[3]]
    assert 0 < len(negatives) < 0.1 * len(first_pass)
    assert all((k[1] in known) != k[3] for k in first_pass)
    assert len({k[1] for k in first_pass}) == len(corpus)  # one pass, each entry once


def _det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_base_changes_are_small_and_unimodular():
    rng = workloads.random.Random(1)
    for n in (4, 5, 6, 7):
        P = workloads.unimodular(n, rng)
        assert _det(P) in (1, -1)
        assert max(abs(x) for row in P for x in row) <= 2


J_SP4 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
J_HJ2_2 = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]


@pytest.mark.parametrize("family,structures", [("sp4", [J_SP4]), ("hJ2", [J_SP4, J_HJ2_2])])
def test_conjugators_are_exact_group_elements(family, structures):
    rng = workloads.random.Random(2)
    mm = workloads._matmul
    for depth in workloads.DEPTHS:
        W, W_inv = workloads.conjugator(family, depth, rng)
        assert mm(W, W_inv) == workloads._identity4()
        Wt = [list(col) for col in zip(*W)]
        for J in structures:
            assert mm(mm(Wt, J), W) == J


def _classify_ops(reps, n):
    return itertools.islice(workloads.classify_conjugated_inputs(lieq, 5, reps), n)


def test_planted_wrong_answer_counts_as_failed():
    good = workloads.load_canonical_reps()[0]
    planted = dict(good, label=good["label"] + "0")
    latencies, outcomes, _ = run.measure(_classify_ops([good, planted], 12), 0, 12)
    assert len(latencies) == 12
    assert outcomes.count(WRONG) == 6
    assert set(outcomes) <= {OK, BREACH, WRONG}
    assert outcomes.count(OK) <= 6  # ok_share = 1 - fail_share drops with them
    result = run.summary(outcomes)
    assert result == {"correct": False, "attempted": 12, "failed": 6}


def test_exception_counts_as_failed():
    # diag(1, 1, 1, 2) is not in sp(4), so the classifier raises
    broken = {"family": "sp4", "label": "none",
              "matrix": [[str((1 + (i == 3)) * (i == j)) for j in range(4)] for i in range(4)]}
    latencies, outcomes, _ = run.measure(_classify_ops([broken], 3), 0, 3)
    assert outcomes == [workloads.ERROR] * 3
    assert run.summary(outcomes) == {"correct": False, "attempted": 3, "failed": 3}


def test_tracer_reports_a_vanished_function_as_missing(monkeypatch):
    layers = dict(tracing.LAYERS, **{"liealg.gone": ("liealg.LieAlgebra.no_such_method",)})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    original = lieq.LieAlgebra.check_jacobi
    tracer = tracing.Tracer(lieq)
    tracer.install()
    try:
        assert lieq.LieAlgebra.check_jacobi is not original
        op = next(WORKLOADS["verify-corpus"](lieq, 1))
        tracer.in_op = True
        op.run()
    finally:
        tracer.close()
    assert lieq.LieAlgebra.check_jacobi is original
    assert tracer.missing == {"liealg.gone: liealg.LieAlgebra.no_such_method"}
    assert tracer.self_time["liealg.jacobi"] > 0
    assert 0 < tracer.op_time


def test_degenerate_point_is_part_of_the_known_answer():
    # at a=0 this family is nilpotent, so two of its claims rightly fail
    entry = next(e for e in lieq.packaged_corpus("appendix_b.lalg") if e.id == "[7,[6,31],1,22]")
    report = lieq.verify_entry(entry, assignments=[{"a": Fraction(0)}, {"a": Fraction(1)}])
    assert {(r.assignment, r.claim) for r in report.failures()} == {
        ("a=0", "not_nilpotent"), ("a=0", "nilradical")}
    degenerate = workloads.load_degenerate_points()
    assert workloads._verify_op(lieq, entry, entry.id, 1, degenerate).check(report) == OK
    assert workloads._verify_op(lieq, entry, entry.id, 1, {}).check(report) == WRONG


def _raise_value_error():
    raise ValueError("math domain error")


def test_witness_that_cannot_be_built_is_a_breach_not_a_wrong_label():
    # some float witness builders take the square root of a rounded negative
    # number; the label-only similarity test still confirms the label
    op = next(workloads.classify_conjugated_inputs(lieq, 106))
    assert run.run_op(op._replace(run=_raise_value_error))[1] == BREACH
    rep = {"family": "sp4", "label": "x", "matrix": [["0", "0", "1", "0"]] + [["0"] * 4] * 3}
    a = [[Fraction(x) for x in row] for row in op.key[2]]
    assert workloads._classify_op(lieq, rep, a).on_error(ValueError()) == workloads.ERROR


def test_nan_witness_residual_is_a_breach_and_counted_over_tolerance():
    op = next(workloads.classify_conjugated_inputs(lieq, 7))
    label, _ = op.run()
    for residuals in ((float("nan"), 0.0), (0.0, float("nan"))):
        witness = SimpleNamespace(residual_similarity=residuals[0], residual_group=residuals[1])
        broken = (label, witness)
        assert op.check(broken) == BREACH
        tracer = tracing.Tracer(lieq)
        op.probe(tracer, broken)
        assert tracer.counters["canonical.witness_over_tol"] == 1
        assert tracer.counters["canonical.witness_residual_log10_max"] == 300


def test_probed_setup_time_is_scaled_and_excludes_probes():
    # the work lasts several probe intervals, so some probes run inside it
    start = time.perf_counter()
    scaled, own = speed.probed(lambda: [speed.reference() for _ in range(60)])
    elapsed = time.perf_counter() - start
    assert 0 < scaled and 0 < own < elapsed - speed.NOMINAL_S / 2


def test_probed_leaves_no_timer_armed(monkeypatch):
    # a timer signal that trips just before the timer is disarmed has its
    # handler run just after; that handler must not arm the timer again
    setitimer = signal.setitimer

    def disarm_then_deliver(which, seconds, *interval):
        setitimer(which, seconds, *interval)
        if seconds == 0:
            signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)

    monkeypatch.setattr(signal, "setitimer", disarm_then_deliver)
    try:
        speed.probed(lambda: None)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        setitimer(signal.ITIMER_REAL, 0)
