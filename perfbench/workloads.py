"""Seeded inputs, operations and known answers for the three lieq workloads.

Every input is made here from the workload seed with this file's own integer
and Fraction arithmetic, so a change inside lieq cannot change what is
measured.  An operation calls only public lieq entry points (packaged_corpus,
verify_entry, instantiate, LieAlgebra.change_basis, fingerprint,
sp4_canonical_form / hJ2_canonical_form) and a check reads only verdicts:
``report.failures()`` and ``report.to_text()`` (kept byte-identical by the
ROADMAP), the fingerprint fields, the label text and ``Witness.residual_*``;
when a classifier raises, the label-only similarity test decides.

Input sequences are endless and deterministic in the seed; the runner takes
as many inputs as fit in its measuring time.
"""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

DATA = Path(__file__).resolve().parent / "data"

#: op outcomes; BREACH is a right label whose witness misses RESIDUAL_TOLERANCE
#: or could not be built
OK, WRONG, BREACH, ERROR = "ok", "wrong", "breach", "error"


class Op(NamedTuple):
    """One operation: what to call, on what, and the known answer."""

    key: tuple                       # the input, as plain data
    run: Callable[[], object]        # timed: calls lieq
    check: Callable[[object], str]   # untimed: OK, WRONG or BREACH
    probe: Callable[[object, object], None]  # untimed, tracing only: (tracer, result)
    on_error: Callable[[Exception], str] = lambda exc: ERROR  # untimed: outcome of a raise


def _no_probe(tracer, result):
    return None


def log10_clamped(x: float, floor: float = 1e-30, cap: float = 1e300) -> float:
    """log10 of x clamped to [floor, cap]; NaN reads as the cap."""
    return math.log10(cap if math.isnan(x) else min(max(x, floor), cap))


def witness_within(witness, tolerance) -> bool:
    """Both witness residuals at most tolerance; a NaN residual is not."""
    return witness.residual_similarity <= tolerance and witness.residual_group <= tolerance


def worst_residual(witness) -> float:
    """The larger witness residual, NaN if either is NaN."""
    residuals = (witness.residual_similarity, witness.residual_group)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def spread_order(n: int, rng: random.Random) -> list:
    """A seeded permutation of range(n) whose every prefix covers it evenly.

    Bit-reversal order of 0..2^m-1 keeps only values below n, then the whole
    order is rotated by a seeded offset.  Over a list sorted by expected
    cost, any number of ops taken from the front has nearly the same cost mix,
    which keeps run-to-run spread low without fixing the inputs.
    """
    bits = max(1, (n - 1).bit_length())
    rev = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    offset = rng.randrange(n)
    return [(i + offset) % n for i in rev if i < n]


# --------------------------------------------------------------------------
# verify-corpus
# --------------------------------------------------------------------------

VERIFY_K = 3
NEGATIVE_SHARE = 0.05


def _nonzero_coefficients(entry) -> int:
    return sum(1 for b in entry.brackets for c in b.coeffs if not c.is_zero)


def _ref_dim(ref: str) -> int:
    return int(ref.strip("[]").split(",")[0])


def load_degenerate_points() -> dict:
    """(entry id, assignment text) -> claims that fail there, as frozen."""
    with open(DATA / "verify_degenerate.json", encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    return {(p["id"], p["assignment"]): frozenset(p["fails"]) for p in points}


def verify_corpus_inputs(lieq, seed: int) -> Iterator[Op]:
    """verify_entry over appendix A + B in the corpus's own dimension mix.

    Entries are visited in a seeded spread order over the corpus sorted by
    (dim, nonzero coefficients, parameters), one pass at a time; within a
    pass no entry repeats.  Each op gets its own verify seed.  A seeded
    NEGATIVE_SHARE of entries that have a same-dimension alternative is
    renamed to cite a different appendix-A table as its nilradical, under an
    id no corpus entry or earlier negative has: the brackets are unchanged,
    so exactly the nilradical_table claims must fail.
    """
    nilpotent = lieq.packaged_corpus("appendix_a.lalg")
    entries = sorted(
        nilpotent + lieq.packaged_corpus("appendix_b.lalg"),
        key=lambda e: (e.dim, _nonzero_coefficients(e), len(e.params), e.id),
    )
    degenerate = load_degenerate_points()
    ids = {e.id for e in entries}
    tables_by_dim = {}
    for e in nilpotent:
        tables_by_dim.setdefault(e.dim, []).append(e.id)
    rng = random.Random(f"verify-corpus/{seed}")
    while True:
        for index in spread_order(len(entries), rng):
            entry = entries[index]
            verify_seed = rng.randrange(1, 1 << 31)
            ref = entry.nilradical_ref
            swaps = [entry.id.replace(ref, t, 1) for t in tables_by_dim.get(_ref_dim(ref), [])
                     if t != ref] if ref else []
            swaps = [i for i in swaps if i not in ids]
            if swaps and rng.random() < NEGATIVE_SHARE:
                swapped = dataclasses.replace(entry, id=rng.choice(swaps))
                ids.add(swapped.id)
                yield _verify_op(lieq, swapped, entry.id, verify_seed, degenerate)
            else:
                yield _verify_op(lieq, entry, entry.id, verify_seed, degenerate)


def _verify_op(lieq, entry, source_id: str, verify_seed: int, degenerate) -> Op:
    """Known answer: exactly the nilradical_table claims fail on a renamed
    (negative) entry, no claim fails on a corpus entry, and at a frozen
    degenerate point of the source family its listed claims fail as well."""
    negative = entry.id != source_id

    def run():
        return lieq.verify_entry(entry, seed=verify_seed, k=VERIFY_K)

    def check(report) -> str:
        assignments = {line.split(" ")[1][len("assignment="):]
                       for line in report.to_text().splitlines()}
        expected = {(a, claim) for a in assignments
                    for claim in degenerate.get((source_id, a), ())}
        if negative:
            expected |= {(a, "nilradical_table") for a in assignments}
        got = {(r.assignment, r.claim) for r in report.failures()}
        return OK if got == expected and assignments else WRONG

    def probe(tracer, report):
        tracer.count("corpus.claims", len(report.to_text().splitlines()))

    return Op(("verify", entry.id, verify_seed, negative), run, check, probe)


# --------------------------------------------------------------------------
# fingerprint-basechange
# --------------------------------------------------------------------------

#: ops per round by algebra dimension; each round is shuffled
FINGERPRINT_ROUND = {4: 2, 5: 4, 6: 2, 7: 2}
#: superdiagonal entries of a base change
SHEAR_VALUES = (-2, -1, 1, 2)
FINGERPRINT_FIELDS = (
    "dim", "derived_dims", "lcs_dims", "center_dim", "derived_algebra_dim",
    "nilradical_dim", "derivation_algebra_dim", "killing_form_rank",
)


def load_fingerprint_pool() -> list:
    with open(DATA / "fingerprint_pool.json", encoding="utf-8") as fh:
        return json.load(fh)["algebras"]


def unimodular(n: int, rng: random.Random) -> list:
    """Integer n x n matrix of determinant +-1 with entries in -2..2.

    The product of the elementary shears I + c_i E_(i,i+1), c_i in
    SHEAR_VALUES, with a diagonal of seeded signs: a unit bidiagonal matrix
    (up to column signs) whose inverse is dense upper triangular.  Its shape
    is the same for every seed, so the cost of one op varies little with the
    draw, and no invertibility test is needed.
    """
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    shears = [rng.choice(SHEAR_VALUES) for _ in range(n - 1)]
    return [[signs[j] * (int(i == j) + (shears[i] if j == i + 1 else 0)) for j in range(n)]
            for i in range(n)]


def fingerprint_basechange_inputs(lieq, seed: int) -> Iterator[Op]:
    """instantiate -> change_basis(P) -> fingerprint on frozen corpus algebras.

    The pool holds corpus algebras of dims 4..7 at frozen parameter values,
    with fingerprints computed by the sympy oracle.  Every round draws
    FINGERPRINT_ROUND algebras per dimension (cycling through a seeded order
    of that dimension's pool) and a fresh seeded base change for each; a
    base change already used for the same algebra is drawn again.
    """
    pool = load_fingerprint_pool()
    entries = {e.id: e for name in ("appendix_a.lalg", "appendix_b.lalg")
               for e in lieq.packaged_corpus(name)}
    rng = random.Random(f"fingerprint-basechange/{seed}")
    seen = set()
    cycles = {}
    for dim in FINGERPRINT_ROUND:
        members = [a for a in pool if a["dim"] == dim]
        rng.shuffle(members)
        cycles[dim] = itertools.cycle(members)
    while True:
        picks = [next(cycles[dim]) for dim, count in FINGERPRINT_ROUND.items() for _ in range(count)]
        rng.shuffle(picks)
        for algebra in picks:
            P = unimodular(algebra["dim"], rng)
            while (algebra["id"], str(P)) in seen:
                P = unimodular(algebra["dim"], rng)
            seen.add((algebra["id"], str(P)))
            yield _fingerprint_op(lieq, entries[algebra["id"]], algebra, P)


def _fingerprint_op(lieq, entry, algebra, P) -> Op:
    env = {name: Fraction(value) for name, value in algebra["assignment"].items()}
    base_change = lieq.MatrixQ(P)
    expected = {k: tuple(v) if isinstance(v, list) else v for k, v in algebra["expected"].items()}

    def run():
        g = lieq.instantiate(entry, env)
        return lieq.fingerprint(g.change_basis(base_change))

    def check(fp) -> str:
        got = {k: getattr(fp, k) for k in FINGERPRINT_FIELDS}
        return OK if got == expected else WRONG

    key = ("fingerprint", algebra["id"], tuple(map(tuple, P)))
    return Op(key, run, check, _no_probe)


# --------------------------------------------------------------------------
# classify-conjugated
# --------------------------------------------------------------------------

#: conjugation depth (number of shears) -> bound on each shear parameter
DEPTHS = {3: 2, 6: 3, 10: 4}


def load_canonical_reps() -> list:
    with open(DATA / "canonical_reps.json", encoding="utf-8") as fh:
        return json.load(fh)["representatives"]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _identity4():
    return [[int(i == j) for j in range(4)] for i in range(4)]


def _nonzero(rng, bound, k):
    while True:
        values = [rng.randint(-bound, bound) for _ in range(k)]
        if any(values):
            return values


def sp4_square_zero(kind: int, rng: random.Random, bound: int) -> list:
    """A square-zero member N of sp(4) (J = [[0, I], [-I, 0]]); exp(N) = I + N."""
    N = [[0] * 4 for _ in range(4)]
    if kind in (0, 1):  # [[0, S], [0, 0]] or [[0, 0], [S, 0]], S symmetric
        a, b, c = _nonzero(rng, bound, 3)
        r, s = (0, 2) if kind == 0 else (2, 0)
        N[r][s], N[r][s + 1], N[r + 1][s], N[r + 1][s + 1] = a, b, b, c
    else:  # [[A, 0], [0, -A^T]] with A strictly triangular
        (x,) = _nonzero(rng, bound, 1)
        i, j = (0, 1) if kind == 2 else (1, 0)
        N[i][j], N[j + 2][i + 2] = x, -x
    return N


def hj2_square_zero(kind: int, rng: random.Random, bound: int) -> list:
    """Realified complex shear [[0, z], [0, 0]] or [[0, 0], [z, 0]] on C^2.

    Real coordinates (w1, w2, w3, w4) stand for the complex pair
    (w1 - i w2, w3 + i w4); the realified map is square-zero and its
    exponential I + N preserves both structure matrices of h(J2).
    """
    x, y = _nonzero(rng, bound, 2)
    T = [[(0, 0), (x, y)], [(0, 0), (0, 0)]] if kind == 0 else [[(0, 0), (0, 0)], [(x, y), (0, 0)]]
    cols = []
    for z in (((1, 0), (0, 0)), ((0, -1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))):
        img = [
            (sum(T[i][k][0] * z[k][0] - T[i][k][1] * z[k][1] for k in range(2)),
             sum(T[i][k][0] * z[k][1] + T[i][k][1] * z[k][0] for k in range(2)))
            for i in range(2)
        ]
        cols.append([img[0][0], -img[0][1], img[1][0], img[1][1]])
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def conjugator(family: str, depth: int, rng: random.Random):
    """(W, W^-1) as a product of depth square-zero shears, exactly in integers."""
    bound = DEPTHS[depth]
    kinds = 4 if family == "sp4" else 2
    make = sp4_square_zero if family == "sp4" else hj2_square_zero
    W, W_inv = _identity4(), _identity4()
    for _ in range(depth):
        N = make(rng.randrange(kinds), rng, bound)
        step = [[int(i == j) + N[i][j] for j in range(4)] for i in range(4)]
        back = [[int(i == j) - N[i][j] for j in range(4)] for i in range(4)]
        W, W_inv = _matmul(W, step), _matmul(back, W_inv)
    return W, W_inv


def _is_scalar(m) -> bool:
    return all(m[i][j] == (m[0][0] if i == j else 0) for i in range(4) for j in range(4))


def classify_conjugated_inputs(lieq, seed: int, reps=None) -> Iterator[Op]:
    """Canonical forms of W^-1 m W for frozen representatives m.

    Each round visits every (representative, depth) pair once, in seeded
    order, with a fresh seeded conjugator W of that depth; a conjugate that
    was already made is drawn again.  A scalar matrix (here: zero) is its
    own only conjugate, so every op on it would repeat one input: it is left
    out.
    """
    reps = [r for r in (load_canonical_reps() if reps is None else reps)
            if not _is_scalar([[Fraction(x) for x in row] for row in r["matrix"]])]
    rng = random.Random(f"classify-conjugated/{seed}")
    seen = set()
    pairs = [(rep, depth) for rep in reps for depth in DEPTHS]
    while True:
        rng.shuffle(pairs)
        for rep, depth in pairs:
            m = [[Fraction(x) for x in row] for row in rep["matrix"]]
            while True:
                W, W_inv = conjugator(rep["family"], depth, rng)
                a = _matmul(_matmul(W_inv, m), W)
                if (rep["label"], str(a)) not in seen:
                    break
            seen.add((rep["label"], str(a)))
            yield _classify_op(lieq, rep, a)


def _classify_op(lieq, rep, a) -> Op:
    """Known answer: the label text of the representative, and both witness
    residuals within RESIDUAL_TOLERANCE.  When the classifier raises, the
    label-only similarity test tells a failed witness (BREACH) from a failed
    classification (ERROR)."""
    matrix = lieq.MatrixQ(a)
    sp4 = rep["family"] == "sp4"
    classify = "sp4_canonical_form" if sp4 else "hJ2_canonical_form"

    def run():
        return getattr(lieq, classify)(matrix)

    def check(result) -> str:
        label, witness = result
        if str(label) != rep["label"]:
            return WRONG
        if witness_within(witness, lieq.RESIDUAL_TOLERANCE):
            return OK
        return BREACH

    def on_error(exc) -> str:
        m = lieq.MatrixQ([[Fraction(x) for x in row] for row in rep["matrix"]])
        similar = lieq.symplectically_similar if sp4 else lieq.hJ2_similar
        try:
            return BREACH if similar(matrix, m) else ERROR
        except ValueError:  # not a member, or an unsupported spectrum
            return ERROR

    def probe(tracer, result):
        if result is None:  # the witness could not be built
            tracer.count("canonical.witness_over_tol", 1)
        else:
            label, witness = result
            within = witness_within(witness, lieq.RESIDUAL_TOLERANCE)
            tracer.count("canonical.label_mismatch", int(str(label) != rep["label"]))
            tracer.count("canonical.witness_over_tol", int(not within))
            tracer.count("canonical.witness_residual_log10_max",
                         log10_clamped(worst_residual(witness)), keep_max=True)
        poly = tracer.probe("linalg.char_poly", lieq, "char_poly", matrix)
        if poly is not None:
            tracer.probe("linalg.factor", lieq, "factor_over_rationals", poly)

    key = ("classify", rep["label"], tuple(tuple(str(x) for x in row) for row in a))
    return Op(key, run, check, probe, on_error)


WORKLOADS = {
    "verify-corpus": verify_corpus_inputs,
    "fingerprint-basechange": fingerprint_basechange_inputs,
    "classify-conjugated": classify_conjugated_inputs,
}
