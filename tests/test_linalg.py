"""Tests for the exact linear algebra layer.

Expected values marked with "oracle" were produced by the independent
sympy script tests/oracles/linalg_oracle.py and frozen here.
"""

import hashlib
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lieq.linalg import (
    MAX_DIM,
    FactorTerm,
    MatrixQ,
    PolyQ,
    QuadExt,
    Subspace,
    char_poly,
    factor_over_rationals,
    matrix_exp_nilpotent,
    nullspace,
    solve_linear,
    solve_or_invert,
    sqrt_exact,
    symmetric_signature,
)

N_RANDOM_CONJUGATIONS = 50
MAX_ENTRY = 6

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def mat(rows):
    return MatrixQ(rows)


def rand_invertible(rng, n):
    while True:
        P = MatrixQ([[F(rng.randint(-MAX_ENTRY, MAX_ENTRY)) for _ in range(n)] for _ in range(n)])
        if solve_or_invert(P) is not None:
            return P


# ---------------------------------------------------------------- matrices

def test_matmul_identity_and_pow():
    A = mat([[1, 2], [3, 4]])
    I = MatrixQ.identity(2)
    assert A @ I == A
    assert A ** 0 == I
    assert A ** 3 == A @ A @ A
    inv = solve_or_invert(A)
    assert A ** -1 == inv
    assert A ** -3 == inv @ inv @ inv
    with pytest.raises(ZeroDivisionError):
        mat([[1, 2], [2, 4]]) ** -1


def test_matrix_results_hold_exact_scalars():
    """Sums, differences, negation, scaling, transposes and products with a
    vector are built from exact entries: Fraction or QuadExt, never int."""
    r2 = QuadExt(0, 1, 2)
    A, B, Q = mat([[1, 2], [0, -3]]), mat([[1, -2], [4, 3]]), MatrixQ([[r2, 1], [0, 2]])
    for M in (A + B, A - B, -A, A.scale(2), A * 0, A.transpose(), Q + A, Q.scale(r2)):
        assert all(type(x) in (F, QuadExt) for x in M.flat())
    assert A - A == MatrixQ.zeros(2, 2)
    for v in (A.apply([1, 1]), A.apply([0, 0]), Q.apply([1, F(1, 2)])):
        assert all(type(x) in (F, QuadExt) for x in v)
    assert A.apply([1, F(1, 2)]) == (F(2), F(-3, 2))
    assert Q.apply([0, 1]) == (F(1), F(2))
    with pytest.raises(TypeError):
        A.apply([0.0, 1])


def test_rref_rank_and_nullspace_frozen():
    A = mat([[1, 2, 0, -1], [2, 4, 1, 0], [3, 6, 1, -1]])
    assert A.rank() == 2
    ns = nullspace(A)
    # oracle: nullspace_A
    assert ns == [
        (F(-2), F(1), F(0), F(0)),
        (F(1), F(0), F(-2), F(1)),
    ]
    for v in ns:
        assert all(x == 0 for x in A.apply(v))


def test_nullspace_full_rank_is_empty():
    assert nullspace(mat([[1, 0], [0, 1]])) == []


def test_solve_or_invert_frozen():
    B = mat([[2, 1, 0], [0, F(1, 3), 4], [1, 0, 1]])
    Binv = solve_or_invert(B)
    # oracle: inverse_B
    assert Binv == mat(
        [
            [F(1, 14), F(-3, 14), F(6, 7)],
            [F(6, 7), F(3, 7), F(-12, 7)],
            [F(-1, 14), F(3, 14), F(1, 7)],
        ]
    )
    assert B @ Binv == MatrixQ.identity(3)


def test_solve_or_invert_singular_and_shape():
    assert solve_or_invert(mat([[1, 2], [2, 4]])) is None
    with pytest.raises(ValueError):
        solve_or_invert(mat([[1, 2, 3], [4, 5, 6]]))


def test_solve_linear():
    M = mat([[1, 2], [3, 4]])
    x = solve_linear(M, [5, 11])
    assert x == (F(1), F(2))
    assert solve_linear(mat([[1, 1], [1, 1]]), [0, 1]) is None


@seed(1)
@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=4, max_size=4))
def test_inverse_roundtrip(entries):
    M = mat([entries[:2], entries[2:]])
    Minv = solve_or_invert(M)
    if Minv is not None:
        assert M @ Minv == MatrixQ.identity(2)
        assert Minv @ M == MatrixQ.identity(2)


# ------------------------------------------------------ elimination kernel


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j] != 0
    )


def _rank_by_minors(rows):
    """Largest size of a nonzero minor: a rank that uses no elimination."""
    if not rows:
        return 0
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                if _det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


@st.composite
def rational_matrices(draw):
    """1x1 to 5x6 rational matrices of every rank, built as a product L @ R."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(small_fractions) for _ in range(r)] for _ in range(nrows)]
    right = [[draw(small_fractions) for _ in range(ncols)] for _ in range(r)]
    return [
        [sum((row[k] * right[k][j] for k in range(r)), F(0)) for j in range(ncols)]
        for row in left
    ]


@seed(3)
@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rref_is_reduced_and_spans_the_rows(rows):
    ncols = len(rows[0])
    ech = Subspace(ncols, rows)
    R, pivots = ech.basis, ech.pivots()
    assert len(pivots) == len(R) == _rank_by_minors(rows)
    assert list(pivots) == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert all(x == 0 for x in R[r][:p])
        assert [R[i][p] for i in range(len(pivots))] == [int(i == r) for i in range(len(pivots))]
    # every input row is the combination of pivot rows read off its pivot
    # entries; with equal dimensions the two row spaces coincide
    for row in rows:
        combo = [sum((row[p] * R[r][j] for r, p in enumerate(pivots)), F(0)) for j in range(ncols)]
        assert combo == row


@seed(4)
@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rank_plus_nullity(rows):
    A = mat(rows)
    ns = nullspace(A)
    assert A.rank() + len(ns) == A.ncols
    for v in ns:
        assert all(x == 0 for x in A.apply(v))


def _product(rng, nrows, ncols, r, entry):
    """L @ R with L nrows x r and R r x ncols drawn entry by entry: rank at most r."""
    left = [[entry() for _ in range(r)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(r)]
    return [[sum((row[k] * right[k][j] for k in range(r)), F(0)) for j in range(ncols)] for row in left]


def test_rank_by_rank_nullity_and_row_order():
    """MatrixQ.rank (forward elimination) against nullspace (reduced rows) on
    seeded rational matrices, rank-deficient products with a zero row, and
    products over Q(sqrt d): the two add up to the column count, and no row
    permutation changes the rank."""
    rng = random.Random(41)
    frac = lambda: F(rng.randint(-5, 5), rng.randint(1, 4))
    cases = [_product(rng, rng.randint(1, 6), rng.randint(1, 7), 7, frac) for _ in range(20)]
    for _ in range(30):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 7)
        rows = _product(rng, nrows, ncols, rng.randint(0, min(nrows, ncols) - 1), frac)
        rows[rng.randrange(nrows)] = [F(0)] * ncols
        cases.append(rows)
    for d in (2, 3, 5):
        quad = lambda: QuadExt(rng.randint(-3, 3), rng.randint(-3, 3), d)
        cases += [_product(rng, 4, 4, r, quad) for r in range(5)]
    ranks = set()
    for rows in cases:
        A = mat(rows)
        rank = A.rank()
        ranks.add(rank)
        assert rank + len(nullspace(A)) == A.ncols, rows
        for _ in range(3):
            perm = list(rows)
            rng.shuffle(perm)
            assert mat(perm).rank() == rank, rows
    assert ranks == set(range(6))  # every rank from 0 to 5 occurs


@seed(5)
@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_echelon_add_rejects_exactly_the_span(rows, data):
    ncols = len(rows[0])
    extra = data.draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
    ech = Subspace(ncols)
    for i, row in enumerate(rows + [extra]):
        grew = _rank_by_minors(rows[:i] + [row]) > _rank_by_minors(rows[:i])
        inside = ech.coordinates(row)
        assert (inside is None) == grew
        if inside is not None:
            basis = ech.basis
            assert [sum((c * b[j] for c, b in zip(inside, basis)), F(0)) for j in range(ncols)] == row
        assert ech.add(row) == grew
    assert len(ech.pivots()) == len(ech.basis) == _rank_by_minors(rows + [extra])


def _combination(data, rows, ncols):
    """A drawn rational combination of rows: a vector inside their span."""
    cs = data.draw(st.lists(small_fractions, min_size=len(rows), max_size=len(rows)))
    return [sum((c * row[j] for c, row in zip(cs, rows)), F(0)) for j in range(ncols)]


@seed(11)
@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_subspace_grown_after_a_basis_read_matches_a_fresh_one(rows, data):
    ncols = len(rows[0])
    span = Subspace(ncols, rows)
    free = [f for f in range(ncols) if f not in span.pivots()]
    assume(free)
    f = data.draw(st.sampled_from(free))
    outside = [x + int(j == f) for j, x in enumerate(_combination(data, rows, ncols))]
    assert span.basis == Subspace(ncols, rows).basis
    assert span.add(outside) is True
    fresh = Subspace(ncols, rows + [outside])
    assert span.basis == fresh.basis
    assert span.dim == fresh.dim == len(span.basis)


@seed(12)
@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_subspace_add_inside_changes_nothing(rows, data):
    ncols = len(rows[0])
    span = Subspace(ncols, rows)
    basis, pivots, key = span.basis, span.pivots(), hash(span)
    assert span.add(_combination(data, rows, ncols)) is False
    assert (span.basis, span.pivots(), hash(span)) == (basis, pivots, key)


@seed(13)
@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_subspace_grown_in_two_orders_is_one_span(rows, data):
    ncols = len(rows[0])
    vectors = rows + [data.draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))]
    spans = []
    for order in (vectors, data.draw(st.permutations(vectors))):
        span = Subspace(ncols)
        for v in order:
            span.basis  # a read between adds must not pin the basis
            span.add(v)
        spans.append(span)
    a, b = spans
    assert a == b and hash(a) == hash(b)
    assert a.basis == b.basis == Subspace(ncols, vectors).basis


@st.composite
def quadratic_matrices(draw):
    """1x1 to 4x4 square matrices over one Q(sqrt d) of every rank, built as a product L @ R."""
    d = draw(st.sampled_from([2, 3, 5]))
    entry = st.one_of(small_fractions, st.builds(lambda a, b: QuadExt(a, b, d), small_fractions, small_fractions))
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    left = [[draw(entry) for _ in range(r)] for _ in range(n)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return [[sum((row[k] * right[k][j] for k in range(r)), F(0)) for j in range(n)] for row in left]


@seed(6)
@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_matrices(), quadratic_matrices()))
def test_solve_or_invert_none_exactly_when_singular(rows):
    n = min(len(rows), len(rows[0]))
    S = mat([row[:n] for row in rows[:n]])
    inv = solve_or_invert(S)
    assert (inv is None) == (_rank_by_minors([row[:n] for row in rows[:n]]) < n)
    if inv is not None:
        assert all(type(x) in (F, QuadExt) for x in inv.flat())
        assert S @ inv == MatrixQ.identity(n)


def _reference_rref(ncols, rows):
    """Dense Gauss-Jordan over Fraction/QuadExt, written independently of Subspace.

    Returns whether each row grew the span, and the unit-pivot reduced rows by
    pivot column.  Zero tests are `!= 0`, never truthiness.
    """
    reduced, grew = {}, []
    for v in rows:
        w = [x if isinstance(x, QuadExt) else F(x) for x in v]
        for p, row in reduced.items():
            if w[p] != 0:
                c = w[p]
                w = [a - c * b for a, b in zip(w, row)]
        p = next((k for k, x in enumerate(w) if x != 0), None)
        grew.append(p is not None)
        if p is None:
            continue
        w = [x / w[p] for x in w]
        for q, row in reduced.items():
            if row[p] != 0:
                c = row[p]
                reduced[q] = [a - c * b for a, b in zip(row, w)]
        reduced[p] = w
    return grew, dict(sorted(reduced.items()))


R2 = QuadExt(0, 1, 2)
_small_ints = st.integers(-3, 3)
KERNEL_ENTRIES = {
    "int": _small_ints,
    "mixed_denominators": st.one_of(_small_ints, st.fractions(-3, 3, max_denominator=6)),
    "sqrt2": st.one_of(
        _small_ints,
        st.fractions(-2, 2, max_denominator=3),
        st.builds(lambda a, b: QuadExt(a, b, 2), _small_ints, _small_ints),
    ),
}


@st.composite
def kernel_rows(draw, entries):
    """Up to 4 drawn rows and up to 3 combinations of them, shuffled, plus a probe vector."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=4))
    combos = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(entries, min_size=len(base), max_size=len(base)))
        combos.append([sum((c * r[j] for c, r in zip(coeffs, base)), 0) for j in range(ncols)])
    rows = draw(st.permutations(base + combos))
    probe = draw(st.one_of(row, st.sampled_from(combos or [[0] * ncols])))
    return ncols, rows, probe


def _exact_entries(vectors):
    return all(type(x) in (F, QuadExt) for v in vectors for x in v)


@pytest.mark.parametrize("kind", sorted(KERNEL_ENTRIES))
@seed(7)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_echelon_matches_dense_reference(kind, data):
    ncols, rows, probe = data.draw(kernel_rows(KERNEL_ENTRIES[kind]))
    grew, reduced = _reference_rref(ncols, rows)
    ech = Subspace(ncols)
    assert [ech.add(r) for r in rows] == grew
    assert ech.pivots() == tuple(reduced)
    assert ech.basis == tuple(tuple(r) for r in reduced.values())
    assert _exact_entries(ech.basis)
    inside = not _reference_rref(ncols, rows + [probe])[0][-1]
    expected = tuple(F(probe[p]) if not isinstance(probe[p], QuadExt) else probe[p] for p in reduced)
    assert ech.coordinates(probe) == (expected if inside else None)
    kernel = nullspace(MatrixQ(rows)) if rows else []
    assert _exact_entries(kernel)
    for v in kernel:
        assert all(sum((a * x for a, x in zip(r, v)), 0) == 0 for r in rows)
    if rows:
        assert len(kernel) == ncols - len(reduced)


def _echelon_entry(rng, d):
    """An int, an integral or non-integral Fraction, or (with d) a Q(sqrt d) entry."""
    kind = rng.randrange(5 if d else 4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return F(rng.randint(-9, 9))
    if kind == 3:
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    return QuadExt(F(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2), d)


def _echelon_cases(count):
    """Seeded sparse rows for one Subspace each, a third over Q(sqrt d): ints, integral and
    non-integral Fractions, negative pivots, and combinations that fall into the span."""
    rng = random.Random("echelon-digest")
    for case in range(count):
        ncols = rng.randint(1, 9)
        d = rng.choice((2, 3, 5)) if case % 3 == 0 else None
        rows = []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.25:
                a, b = rng.choice(rows), rng.choice(rows)
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                rows.append({k: a.get(k, 0) + c * b.get(k, 0) for k in range(ncols)})
                continue
            w = {k: _echelon_entry(rng, d) for k in range(ncols) if rng.random() < 0.6}
            if w and rng.random() < 0.5:  # a negative pivot
                p = min(w)
                w[p] = -abs(w[p]) if not isinstance(w[p], QuadExt) else w[p] - 7
            rows.append(w)
        probe = [_echelon_entry(rng, d) for _ in range(ncols)]
        yield ncols, [{k: x for k, x in w.items() if x} for w in rows], probe


def _typed(x):
    return f"{type(x).__name__}:{x!r}"


def test_echelon_rows_and_basis_digest_frozen():
    """The stored sparse rows, basis and probe coordinates of 600 seeded echelons, types
    included, frozen before `_primitive` took its int fast path."""
    digest = hashlib.sha256()
    for ncols, rows, probe in _echelon_cases(600):
        ech = Subspace(ncols)
        grew = [ech._add(dict(w)) if i % 2 else ech.add([w.get(k, 0) for k in range(ncols)])
                for i, w in enumerate(rows)]
        stored = {p: {k: _typed(x) for k, x in sorted(row.items())}
                  for p, row in sorted(ech._rows.items())}
        basis = [[_typed(x) for x in v] for v in ech.basis]
        coords = ech.coordinates(probe)
        coords = None if coords is None else [_typed(x) for x in coords]
        digest.update(f"{grew}|{stored}|{basis}|{coords}\n".encode())
    assert digest.hexdigest() == "aa970aefcb2fc54a90e3514427a0e7b78f4e0fa3d4320cf4a00703cfe63ac910"


def test_zero_quadext_is_falsy():
    assert not QuadExt(0)
    assert not (QuadExt(0, 1, 2) - QuadExt(0, 1, 2))
    assert R2 and QuadExt(1, -1, 2) and QuadExt(F(1, 2))
    # [2, sqrt2] = sqrt2 * [sqrt2, 1] cancels to zero against the stored row
    ech = Subspace(2, [[R2, 1]])
    assert ech.add([2, R2]) is False
    assert ech.coordinates([2, R2]) == (2,)
    assert ech.basis == ((1, R2 / 2),)


# ---------------------------------------------------------- char polynomial

def test_char_poly_frozen():
    # oracle: charpoly_* (ascending coefficients of det(M - x I))
    assert char_poly(mat([[0, -1], [1, 0]])) == PolyQ([1, 0, 1])
    assert char_poly(mat([[2, 1], [0, 2]])) == PolyQ([4, -4, 1])
    M3 = mat([[F(1, 2), 3, 0], [-1, 0, F(2, 3)], [5, 1, -2]])
    assert char_poly(M3) == PolyQ([F(11, 3), F(-4, 3), F(-3, 2), -1])
    M4 = mat([[1, 2, 3, 0], [0, -1, 0, 1], [2, 0, -1, -2], [1, 1, 0, 1]])
    assert char_poly(M4) == PolyQ([18, 4, -9, 0, 1])
    M7 = mat([
        [F(1, 2), 3, 0, -1, F(2, 3), 0, 1],
        [-1, 0, F(2, 7), 0, 1, F(-3, 4), 0],
        [5, 1, -2, F(1, 3), 0, 0, 2],
        [0, F(-2, 5), 1, 0, 3, 1, 0],
        [1, 0, 0, 4, F(-1, 6), 2, -1],
        [0, F(1, 9), -3, 0, 1, 0, F(5, 2)],
        [2, 0, 1, -1, 0, F(7, 8), 0],
    ])
    assert char_poly(M7) == PolyQ([
        F(1296787, 6048), F(-53780497, 181440), F(169943, 11340), F(-3735649, 60480),
        F(109513, 5040), F(6431, 336), F(-5, 3), -1,
    ])


def test_char_poly_size_cap():
    with pytest.raises(ValueError):
        char_poly(MatrixQ.identity(8))


def test_char_poly_conjugation_invariant():
    rng = random.Random(1)
    M = mat([[1, 2, 0], [0, 3, -1], [1, 0, 0]])
    p = char_poly(M)
    for _ in range(N_RANDOM_CONJUGATIONS):
        P = rand_invertible(rng, 3)
        Pinv = solve_or_invert(P)
        assert char_poly(Pinv @ M @ P) == p


def test_cayley_hamilton():
    M = mat([[1, 2, 3, 0], [0, -1, 0, 1], [2, 0, -1, -2], [1, 1, 0, 1]])
    assert char_poly(M).eval_matrix(M).is_zero()


def _reference_matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)] for row in A]


def _reference_det(rows):
    """Dense Gaussian elimination over Fraction/QuadExt, zero tests by `!= 0`."""
    a, det = [list(r) for r in rows], F(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det = det * a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _reference_char_poly(rows):
    """Ascending coefficients of det(M - x I), interpolated from its values at x = 0..n."""
    n = len(rows)
    values = [_reference_det([[x - t if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)])
              for t in range(n + 1)]
    coeffs = [F(0)] * (n + 1)
    for i, v in enumerate(values):
        basis, scale = [F(1)], v
        for j in range(n + 1):
            if j != i:
                basis = [F(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= j * basis[k + 1]
                scale = scale / (i - j)
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return coeffs


_near_2_64 = st.builds(lambda a, k: F(a, 2**64 + k), st.integers(-(2**70), 2**70), st.integers(-3, 3))
PRODUCT_ENTRIES = {
    "mixed_denominators": KERNEL_ENTRIES["mixed_denominators"],
    "near_2_64": st.one_of(_small_ints, _near_2_64),
    "sqrt2": KERNEL_ENTRIES["sqrt2"],
}


@st.composite
def product_operands(draw, entries):
    """A square n x n and an n x m matrix, sizes 1..7, with some rows and columns zeroed."""
    n, m = draw(st.integers(1, MAX_DIM)), draw(st.integers(1, MAX_DIM))
    mats = []
    for rows, cols in ((n, n), (n, m)):
        M = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
        mats.append([[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
                     for i, r in enumerate(M)])
    return mats


@pytest.mark.parametrize("kind", sorted(PRODUCT_ENTRIES))
@seed(8)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_and_char_poly_match_dense_reference(kind, data):
    """The integer-row kernels, and the QuadExt path, agree with dense Fraction arithmetic."""
    A, B = ([[x if isinstance(x, QuadExt) else F(x) for x in r] for r in M]
            for M in data.draw(product_operands(PRODUCT_ENTRIES[kind])))
    AB = MatrixQ(A) @ MatrixQ(B)
    assert AB == MatrixQ(_reference_matmul(A, B))
    p = char_poly(MatrixQ(A))
    assert p == PolyQ(_reference_char_poly(A))
    assert _exact_entries([AB.flat(), p.coeffs])


APPLY_ENTRIES = {"int": KERNEL_ENTRIES["int"], **PRODUCT_ENTRIES}


@pytest.mark.parametrize("kind", sorted(APPLY_ENTRIES))
@seed(9)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_matches_dense_reference(kind, data):
    """apply, on integer rows or on QuadExt entries, gives each column of the dense
    reference product and only Fraction or QuadExt values, for int vector entries too."""
    A, B = data.draw(product_operands(APPLY_ENTRIES[kind]))
    M, ref = MatrixQ(A), _reference_matmul(A, B)
    for j, v in enumerate(zip(*B)):
        got = M.apply(v)
        assert got == tuple(r[j] for r in ref)
        assert _exact_entries([got])


def test_integer_kernels_make_no_fraction_arithmetic(monkeypatch):
    """@, apply, char_poly and symmetric_signature on Fraction matrices (and vectors)
    multiply and add integer rows only."""
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        op = getattr(F, name)
        monkeypatch.setattr(F, name, lambda x, y, op=op, name=name: calls.append(name) or op(x, y))
    A = mat([[F(1, 2), 3, 0, F(-2, 3)], [-1, 0, F(2, 7), 0], [5, 1, -2, F(1, 3)], [0, F(-2, 5), 1, 0]])
    B = mat([[F(2**64 + 1, 3), 1, 0, 0], [0, F(1, 2**64), 0, 1], [1, 0, 1, 0], [0, 0, 0, F(-5, 9)]])
    S = mat([[F(1, 2), F(-2, 3), 0], [F(-2, 3), 5, F(1, 7)], [0, F(1, 7), F(-3, 4)]])
    v = (F(3, 2**64), 0, F(-7, 5), 2)
    A @ B, A.apply(v), B.apply(v), char_poly(A), char_poly(B), symmetric_signature(S)
    assert calls == []


# ---------------------------------------------------------------- factoring

def monic(coeffs):
    lead = F(coeffs[-1])
    return PolyQ([F(c) / lead for c in coeffs])


def test_factor_frozen():
    # oracle: factors_* (sympy primitive factors, made monic here)
    got = factor_over_rationals(PolyQ([-1, 0, 0, 0, 1]))
    assert [(t.poly, t.multiplicity) for t in got] == [
        (monic([-1, 1]), 1),
        (monic([1, 1]), 1),
        (monic([1, 0, 1]), 1),
    ]
    got = factor_over_rationals(PolyQ([4, 0, 0, 0, 1]))
    assert [(t.poly, t.multiplicity) for t in got] == [
        (monic([2, -2, 1]), 1),
        (monic([2, 2, 1]), 1),
    ]
    deg6 = PolyQ([1, 0, 1]) ** 2 * PolyQ([F(-1, 2), 1]) * PolyQ([3, 1])
    got = factor_over_rationals(deg6)
    assert [(t.poly, t.multiplicity) for t in got] == [
        (monic([-1, 2]), 1),
        (monic([3, 1]), 1),
        (monic([1, 0, 1]), 2),
    ]
    deg7 = PolyQ([1, 1, 0, 1]) * PolyQ([-2, 0, 1]) * PolyQ([1, 1]) * PolyQ([0, 1])
    got = factor_over_rationals(deg7)
    assert [(t.poly, t.multiplicity) for t in got] == [
        (monic([0, 1]), 1),
        (monic([1, 1]), 1),
        (monic([-2, 0, 1]), 1),
        (monic([1, 1, 0, 1]), 1),
    ]


def test_factor_irreducible_quartic_flagged():
    # oracle: factors_quartic_irred
    got = factor_over_rationals(PolyQ([2, 0, -4, 0, 1]))
    assert len(got) == 1
    term = got[0]
    assert term.poly == PolyQ([2, 0, -4, 0, 1])
    assert term.multiplicity == 1
    assert term.poly.degree == 4


def test_factor_two_cubics():
    # oracle: factors_sextic_two_cubics
    got = factor_over_rationals(PolyQ([-2, 0, 0, 1]) * PolyQ([1, 1, 0, 1]))
    assert [(t.poly, t.multiplicity, t.poly.degree) for t in got] == [
        (PolyQ([-2, 0, 0, 1]), 1, 3),
        (PolyQ([1, 1, 0, 1]), 1, 3),
    ]


def test_factor_zero_and_degree_cap():
    with pytest.raises(ValueError):
        factor_over_rationals(PolyQ.zero())
    with pytest.raises(ValueError):
        factor_over_rationals(PolyQ([0] * 8 + [1]))


@seed(1)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4))
def test_factor_product_reconstructs(coeffs):
    p = PolyQ(coeffs + [1])  # force nonzero, monic-izable
    prod = PolyQ([1])
    for term in factor_over_rationals(p):
        prod = prod * term.poly ** term.multiplicity
    assert prod == p.monic()


_FACTOR_DENOMS = (1, 1, 1, 2, 3, 4, 6, 9)


def _factor_cases(count):
    """Seeded products of small factors with mixed denominators, degrees 1..7:
    repeated factors, powers of x and irreducible parts of every degree."""
    rng = random.Random("factor-digest")
    for _ in range(count):
        deg = rng.randint(1, 7)
        k = min(rng.randint(0, 2) if rng.random() < 0.2 else 0, deg - 1)
        p = PolyQ([F(rng.choice((1, -1)) * rng.randint(1, 5), rng.choice(_FACTOR_DENOMS))]) * PolyQ([0, 1]) ** k
        left = deg - k
        while left:
            d = rng.randint(1, left)
            f = PolyQ([F(rng.randint(-4, 4), rng.choice(_FACTOR_DENOMS)) for _ in range(d)]
                      + [F(rng.randint(1, 3), rng.choice(_FACTOR_DENOMS))])
            if rng.random() < 0.15 and 2 * d <= left:
                f = f * f
            p = p * f
            left -= f.degree
        yield p


def test_factor_digest_frozen():
    """The factor lists of 1,200 seeded polynomials, frozen before factoring moved to
    integer polynomials."""
    digest = hashlib.sha256()
    for p in _factor_cases(1200):
        got = factor_over_rationals(p)
        digest.update(f"{p!r}|{[(t.poly, t.multiplicity) for t in got]!r}\n".encode())
    assert digest.hexdigest() == "eb003b96e7e36c1ec35e35aad802fe815e04650113000d223624eb2d7bdf5ae3"


# --------------------------------------------------------------- matrix exp

def test_exp_nilpotent_frozen():
    N = mat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    # oracle: exp_N
    assert matrix_exp_nilpotent(N) == mat([[1, 1, F(7, 2)], [0, 1, 3], [0, 0, 1]])
    N4 = mat([[0, 2, 0, 1], [0, 0, -1, 0], [0, 0, 0, 3], [0, 0, 0, 0]])
    # oracle: exp_N4
    assert matrix_exp_nilpotent(N4) == mat(
        [[1, 2, -1, 0], [0, 1, -1, F(-3, 2)], [0, 0, 1, 3], [0, 0, 0, 1]]
    )


def test_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError, match=r"N\^2"):
        matrix_exp_nilpotent(mat([[1, 0], [0, 0]]))


def test_exp_inverse_pairing():
    N = mat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert matrix_exp_nilpotent(N) @ matrix_exp_nilpotent(-N) == MatrixQ.identity(3)


# ---------------------------------------------------------------- signature

def test_signature_frozen():
    # oracle: sig_diag, sig_hyperbolic, sig_4x4
    assert symmetric_signature(mat([[3, 0, 0], [0, -2, 0], [0, 0, 0]])) == (1, 1, 1)
    assert symmetric_signature(mat([[0, 1], [1, 0]])) == (1, 1, 0)
    S = mat([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 5, 1], [0, 0, 1, 5]])
    assert symmetric_signature(S) == (3, 1, 0)



def _reference_signature(rows):
    """(positive, negative, zero) by symmetric LDL^T congruence: a zero pivot takes a
    later nonzero diagonal entry by a symmetric swap, or else row/column i += row/column j
    for an off-diagonal a[i][j] != 0, or else counts as a zero."""
    n = len(rows)
    a = [list(r) for r in rows]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_into(i, j):
        a[i] = [a[i][c] + a[j][c] for c in range(n)]
        for r in a:
            r[i] = r[i] + r[j]

    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if pivot is not None:
                swap(i, pivot)
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                add_into(i, off)
        d = a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / d
                a[j] = [a[j][c] - f * a[i][c] for c in range(n)]
                for r in a:
                    r[j] = r[j] - f * r[i]
        if d > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg, zero


def _symmetric_cases(rng, entry, count):
    """Seeded symmetric matrices of sizes 1..7: dense ones, and congruences P^T diag(d) P
    whose d has zero entries and whose P may be singular."""
    for t in range(count):
        n = rng.randint(1, MAX_DIM)
        if t % 2:
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = entry()
            yield rows
        else:
            d = [rng.choice((0, 1, -1)) * entry() for _ in range(n)]
            P = [[entry() if rng.random() < 0.6 else F(0) for _ in range(n)] for _ in range(n)]
            yield [[sum((P[k][i] * d[k] * P[k][j] for k in range(n)), F(0)) for j in range(n)]
                   for i in range(n)]


def test_signature_matches_ldl_reference():
    """The signature agrees with symmetric LDL^T congruence on seeded rational and
    Q(sqrt 2) matrices, singular ones included, and on a 12 x 12 matrix: no size cap."""
    rng = random.Random("signature")
    rational = lambda: F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))
    sqrt2 = lambda: QuadExt(rng.randint(-3, 3), rng.randint(-2, 2), 2) / rng.choice((1, 2))
    singular = 0
    for entry, count in ((rational, 240), (sqrt2, 120)):
        for rows in _symmetric_cases(rng, entry, count):
            want = _reference_signature(rows)
            singular += want[2] > 0
            assert symmetric_signature(MatrixQ(rows)) == want
    assert singular >= 60
    n = 12
    d = [F(k % 3 - 1, k + 1) for k in range(n)]
    P = rand_invertible(random.Random(12), n)
    rows = [[sum((P[k, i] * d[k] * P[k, j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
    assert _reference_signature(rows) == (4, 4, 4)
    assert symmetric_signature(MatrixQ(rows)) == (4, 4, 4)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_signature(mat([[0, 1], [2, 0]]))


# ------------------------------------------------------------------ QuadExt

def test_quadext_normalization():
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt(0, 1, F(4, 9)) == F(2, 3)
    assert QuadExt(0, 1, 4) == 2
    assert QuadExt(3, 0, 5) == 3
    r = QuadExt(0, 1, -18)
    assert (r.b, r.d) == (F(3), -2)


def test_quadext_arithmetic():
    r2 = QuadExt(0, 1, 2)
    assert r2 * r2 == 2
    assert (1 + r2) * (1 - r2) == -1
    assert (r2 + r2) / 2 == r2
    x = QuadExt(1, 2, 3)
    assert x * x.inverse() == 1
    assert x - x == 0
    assert x ** 2 == QuadExt(13, 4, 3)


def test_quadext_ordering():
    r2, r3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    assert r2 < r3
    assert -r3 < -r2
    assert r2 > 1 and r2 < 2
    assert QuadExt(1, -1, 2) < 0  # 1 - sqrt(2)
    assert QuadExt(3, -2, 2) > 0  # 3 - 2 sqrt(2)
    assert abs(QuadExt(1, -1, 2)) == QuadExt(-1, 1, 2)
    with pytest.raises(ValueError):
        QuadExt(0, 1, -1) < 1


def test_quadext_cross_field_rejected():
    with pytest.raises(TypeError):
        QuadExt(1, 1, 2) < QuadExt(1, 1, 3)


def test_sqrt_exact():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(2) == QuadExt(0, 1, 2)
    assert sqrt_exact(0) == 0
    with pytest.raises(ValueError):
        sqrt_exact(-1)
    # the square-free search stops once the cofactor left is a perfect square,
    # so a 61-bit prime squared costs no trial division up to the prime
    p = 2 ** 61 - 1
    assert sqrt_exact(p * p) == p
    assert sqrt_exact(F(12 * p * p, 25)) == QuadExt(0, F(2 * p, 5), 3)
    assert repr(QuadExt(0, 1, -8 * p * p)) == f"{2 * p}*sqrt(-2)"


def test_quadext_and_sqrt_exact_refuse_floats():
    """a, b, d and q are int, Fraction or str; a float, exact or not, is a TypeError
    rather than the rational value of its binary expansion."""
    for make in (lambda: sqrt_exact(0.1), lambda: sqrt_exact(4.0), lambda: QuadExt(0.5),
                 lambda: QuadExt(1, 0.5, 2), lambda: QuadExt(0, 1, 2.0)):
        with pytest.raises(TypeError, match="cannot use float"):
            make()
    with pytest.raises(TypeError, match="radicand must be rational"):
        QuadExt(0, 1, QuadExt(0, 1, 2))
    assert sqrt_exact("9/4") == F(3, 2)
    assert QuadExt("1/2", 1, "3/4") == QuadExt(F(1, 2), F(1, 2), 3)


def test_quadext_matrix_ops():
    r2 = QuadExt(0, 1, 2)
    M = MatrixQ([[r2, 1], [0, r2]])
    assert (M @ M)[0, 0] == 2
    inv = solve_or_invert(M)
    assert inv is not None
    assert M @ inv == MatrixQ.identity(2)
    p = char_poly(M)
    assert p == PolyQ([2, -2 * r2, 1])


# -------------------------------------------------------------------- PolyQ

def test_poly_negative_power_rejected():
    p = PolyQ([1, 1])
    assert p ** 0 == PolyQ([1]) and p ** 2 == PolyQ([1, 2, 1])
    with pytest.raises(ValueError):
        p ** -2


def test_poly_divmod_and_eval():
    p = PolyQ([2, -3, 1])  # (x-1)(x-2)
    q, r = p.divmod(PolyQ([-1, 1]))
    assert q == PolyQ([-2, 1]) and r.is_zero
    assert p.evaluate(F(5)) == 12
    M = mat([[1, 1], [0, 2]])
    assert p.eval_matrix(M) == (M - MatrixQ.identity(2)) @ (M - MatrixQ.identity(2).scale(2))


@seed(1)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_fractions, min_size=1, max_size=5),
    st.lists(small_fractions, min_size=1, max_size=3),
)
def test_poly_divmod_roundtrip(a_coeffs, b_coeffs):
    a, b = PolyQ(a_coeffs), PolyQ(b_coeffs)
    if b.is_zero:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree
