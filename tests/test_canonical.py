"""Canonical-form tests: membership predicates, real Jordan shapes, and the
two exact 4x4 classifiers with their certified rational witnesses.

Frozen expectations (Jordan block multisets, shape-catalog counts, and the
dissimilarity of the sign pairs) come from tests/oracles/canonical_oracle.py,
which recomputes them with sympy's jordan_form and by solving the intertwiner
systems symbolically.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lieq import canonical
from lieq.canonical import (
    CanonicalLabel,
    MembershipError,
    UnsupportedFactorError,
    WitnessPrecisionError,
    J_SP4,
    J_HJ2_1,
    J_HJ2_2,
    eigen_pairing_check,
    group_membership,
    hJ2_canonical_form,
    hJ2_canonical_matrix,
    hJ2_similar,
    lie_membership,
    rjcf_catalog,
    rjcf_shape,
    sp4_canonical_form,
    sp4_canonical_matrix,
    symplectically_similar,
)
from lieq.linalg import (
    MatrixQ,
    PolyQ,
    QuadExt,
    char_poly,
    factor_over_rationals,
    matrix_exp_nilpotent,
    solve_or_invert,
    sqrt_exact,
)

RESIDUAL_BOUND = 1e-9
N_CONJUGATIONS = 100

# oracle: shape-catalog sizes per dimension
CATALOG_COUNTS = {1: 1, 2: 3, 3: 4, 4: 9, 5: 12, 6: 23}

F = Fraction


def diag(*entries):
    return MatrixQ.diagonal(list(entries))


def label(family, **params):
    order = {"lambda": 0, "mu": 1, "epsilon": 2, "eta": 3, "delta": 4}
    items = sorted(params.items(), key=lambda kv: order[kv[0].rstrip("_")])
    return CanonicalLabel(family, tuple((k.rstrip("_"), v) for k, v in items))


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------

def test_zero_matrix_in_both_lie_families():
    z = MatrixQ.zeros(4, 4)
    assert lie_membership(z, "sp4")
    assert lie_membership(z, "hJ2")


def test_trace_free_diagonal_in_both_families():
    x1 = diag(1, 1, -1, -1)
    assert lie_membership(x1, "sp4")
    assert lie_membership(x1, "hJ2")


def test_identity_not_in_lie_but_in_group():
    eye = MatrixQ.identity(4)
    assert not lie_membership(eye, "sp4")
    assert not lie_membership(eye, "hJ2")
    assert group_membership(eye, "Sp4")
    assert group_membership(eye, "HJ2")


def test_pair_swap_permutation_in_symplectic_group():
    a1 = MatrixQ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert group_membership(a1, "Sp4")


def test_non_symplectic_diagonal_rejected():
    assert not group_membership(diag(2, 1, 1, 1), "Sp4")
    assert not group_membership(diag(2, 1, 1, 1), "HJ2")


def test_membership_needs_4x4():
    with pytest.raises(MembershipError):
        lie_membership(MatrixQ.zeros(3, 3), "sp4")
    with pytest.raises(MembershipError):
        group_membership(MatrixQ.identity(3), "Sp4")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        lie_membership(MatrixQ.zeros(4, 4), "sp6")


def _sp4_member(vals):
    a11, a12, a21, a22, b1, b2, b3, c1, c2, c3 = vals
    return MatrixQ([
        [a11, a12, b1, b2],
        [a21, a22, b2, b3],
        [c1, c2, -a11, -a21],
        [c2, c3, -a12, -a22],
    ])


@seed(3)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=16, max_size=16))
def test_lie_membership_matches_defining_equation(vals):
    # lie_membership tests that J a is symmetric; compare with a^T J + J a = 0
    def defining(a, js):
        return all((a.transpose() @ J + J @ a).is_zero() for J in js)

    member = _sp4_member(vals[:10])
    assert lie_membership(member, "sp4")
    for a in (MatrixQ([vals[4 * i:4 * i + 4] for i in range(4)]), member):
        assert lie_membership(a, "sp4") == defining(a, [J_SP4])
        assert lie_membership(a, "hJ2") == defining(a, [J_HJ2_1, J_HJ2_2])


# ---------------------------------------------------------------------------
# real Jordan shapes
# ---------------------------------------------------------------------------

WORKED_6X6 = MatrixQ([
    [2, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 0],
    [0, 0, 3, 0, 0, 0],
    [0, 0, 0, 5, 1, 0],
    [0, 0, 0, 0, 5, 1],
    [0, 0, 0, 0, 0, 5],
])
# invertible conjugator used by the oracle run
Q_6X6 = MatrixQ([
    [1, 2, 0, -1, 0, 0],
    [0, 1, 1, 0, 0, 2],
    [1, 0, 1, 0, -1, 0],
    [0, 0, 2, 1, 0, 1],
    [0, 1, 0, 0, 1, 0],
    [1, 0, 0, 1, 0, 1],
])
# oracle: jordan_block_multiset for both the matrix and its conjugate
WORKED_BLOCKS = [(F(2), 1), (F(2), 1), (F(3), 1), (F(5), 3)]


def test_worked_example_blocks():
    shape, P = rjcf_shape(WORKED_6X6)
    assert sorted(shape.blocks) == WORKED_BLOCKS
    assert P is not None
    assert solve_or_invert(P) @ WORKED_6X6 @ P == WORKED_6X6


def test_conjugated_worked_example_same_blocks_exact_witness():
    A = solve_or_invert(Q_6X6) @ WORKED_6X6 @ Q_6X6
    shape, P = rjcf_shape(A)
    assert sorted(shape.blocks) == WORKED_BLOCKS
    target = solve_or_invert(P) @ A @ P
    # the witness conjugates A to a genuine block-diagonal Jordan matrix
    re_shape, _ = rjcf_shape(target)
    assert sorted(re_shape.blocks) == WORKED_BLOCKS
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            if j == i + 1:
                assert target[(i, j)] in (F(0), F(1))
            else:
                assert target[(i, j)] == 0


def test_zero_3x3_blocks():
    shape, P = rjcf_shape(MatrixQ.zeros(3, 3))
    assert sorted(shape.blocks) == [(F(0), 1)] * 3
    assert P is not None


def test_companion_of_squared_quadratic():
    # companion matrix of (x^2+1)^2 = x^4 + 2x^2 + 1
    C = MatrixQ([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 0]])
    assert char_poly(C) == PolyQ([1, 0, 2, 0, 1])
    shape, P = rjcf_shape(C)
    # oracle: kernel dims of q(C)^k are [2, 4] -> a single size-2 block
    assert list(shape.blocks) == [(PolyQ([1, 0, 1]), 2)]
    assert P is None  # witness only for all-rational spectra


def test_cubic_factor_unsupported():
    C3 = MatrixQ([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # companion of x^3 - 2
    with pytest.raises(UnsupportedFactorError) as err:
        rjcf_shape(C3)
    assert "x^3 - 2" in str(err.value)


def test_rjcf_needs_square():
    with pytest.raises(ValueError):
        rjcf_shape(MatrixQ.zeros(2, 3))


def test_catalog_counts():
    for dim, count in CATALOG_COUNTS.items():
        assert len(rjcf_catalog(dim)) == count
    with pytest.raises(ValueError):
        rjcf_catalog(0)
    with pytest.raises(ValueError):
        rjcf_catalog(8)


def _random_jordan(rng, dim):
    """A random block-diagonal real Jordan matrix of the given dimension."""
    rows = [[F(0)] * dim for _ in range(dim)]
    i = 0
    while i < dim:
        if dim - i >= 2 and rng.random() < 0.3:
            # rotation-style block for an irreducible quadratic x^2 - 2px + s
            p = rng.randint(-2, 2)
            m = rng.randint(1, 3)
            rows[i][i] = F(p); rows[i][i + 1] = F(m)
            rows[i + 1][i] = F(-m); rows[i + 1][i + 1] = F(p)
            i += 2
            continue
        size = rng.randint(1, min(3, dim - i))
        lam = F(rng.randint(-3, 3))
        for k in range(size):
            rows[i + k][i + k] = lam
            if k + 1 < size:
                rows[i + k][i + k + 1] = F(1)
        i += size
    return MatrixQ(rows)


def _random_invertible(rng, dim):
    while True:
        M = MatrixQ([[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)])
        if solve_or_invert(M) is not None:
            return M


def test_shape_similarity_invariance():
    rng = random.Random(1)
    trials = 0
    for dim in range(2, 7):
        for _ in range(5):
            J = _random_jordan(rng, dim)
            base_shape, _ = rjcf_shape(J)
            assert base_shape.catalog_key() in rjcf_catalog(dim)
            for _ in range(5):
                Q = _random_invertible(rng, dim)
                A = solve_or_invert(Q) @ J @ Q
                shape, _ = rjcf_shape(A)
                assert shape == base_shape
                trials += 1
    assert trials >= N_CONJUGATIONS


def test_rational_witness_roundtrip():
    rng = random.Random(2)
    for dim in (2, 3, 4, 5):
        for _ in range(3):
            J = _random_jordan(rng, dim)
            shape, _ = rjcf_shape(J)
            if any(isinstance(cls, PolyQ) for cls, _ in shape.blocks):
                continue
            Q = _random_invertible(rng, dim)
            A = solve_or_invert(Q) @ J @ Q
            shape2, P = rjcf_shape(A)
            assert shape2 == shape
            assert P is not None
            target = solve_or_invert(P) @ A @ P
            assert rjcf_shape(target)[0] == shape


def _rational_jordan(rng, dim):
    """A block-diagonal Jordan matrix with eigenvalues in {-1, 0, 1, 2}."""
    rows = [[F(0)] * dim for _ in range(dim)]
    i = 0
    while i < dim:
        size = rng.randint(1, dim - i)
        lam = F(rng.choice((-1, 0, 0, 1, 2)))
        for k in range(size):
            rows[i + k][i + k] = lam
            if k + 1 < size:
                rows[i + k][i + k + 1] = F(1)
        i += size
    return MatrixQ(rows)


def _unimodular(rng, dim, steps):
    """A product of shears I + c E_ij with c in {-2, -1, 1, 2}."""
    W = MatrixQ.identity(dim)
    for _ in range(steps if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        E = [[F(int(r == c)) for c in range(dim)] for r in range(dim)]
        E[i][j] = F(rng.choice((-2, -1, 1, 2)))
        W = W @ MatrixQ(E)
    return W


def test_rjcf_shape_digest_frozen():
    # shape and witness P of 400 conjugated rational Jordan matrices of sizes
    # 1..7, hashed; 42 have repeated blocks of one size and one eigenvalue
    # and 74 blocks of several sizes for one eigenvalue.  A refactor of the
    # chain selection must keep every byte of P.
    rng = random.Random(12)
    digest = hashlib.sha256()
    blocks = 0
    for count in range(400):
        dim = count % 7 + 1
        J = _rational_jordan(rng, dim)
        W = _unimodular(rng, dim, 4)
        shape, P = rjcf_shape(solve_or_invert(W) @ J @ W)
        digest.update(f"{shape!r}|{P!r}\n".encode())
        blocks += len(shape.blocks)
    assert blocks == 757
    assert digest.hexdigest() == "df5e1276ac02726d190cbeae05fd1509bcc76960f749409c640eca11159dd2c0"


# quadratic classes x^2 - 2px + (p^2 + m^2) of the mixed-class generator; few,
# so that a class repeats
MIXED_ROTATIONS = ((0, 1), (1, 1), (-1, 2))


def _mixed_jordan(rng, dim):
    """A block-diagonal real Jordan matrix mixing rational blocks (eigenvalues in
    {-1, 0, 1}, sizes 1..3) with realified quadratic blocks of sizes 1 and 2."""
    rows = [[F(0)] * dim for _ in range(dim)]
    i = 0
    while i < dim:
        if dim - i >= 2 and rng.random() < 0.45:
            size = 2 if dim - i >= 4 and rng.random() < 0.4 else 1
            p, m = rng.choice(MIXED_ROTATIONS)
            for k in range(size):
                r = i + 2 * k
                rows[r][r] = rows[r + 1][r + 1] = F(p)
                rows[r][r + 1], rows[r + 1][r] = F(m), F(-m)
                if k + 1 < size:
                    rows[r][r + 2] = rows[r + 1][r + 3] = F(1)
            i += 2 * size
            continue
        size = rng.randint(1, min(3, dim - i))
        lam = F(rng.choice((-1, 0, 0, 1)))
        for k in range(size):
            rows[i + k][i + k] = lam
            if k + 1 < size:
                rows[i + k][i + k + 1] = F(1)
        i += size
    return MatrixQ(rows)


def test_rjcf_mixed_class_digest_frozen():
    # shape and witness P of 300 conjugated Jordan matrices of sizes 2..7 that
    # mix rational and quadratic classes, hashed: P is None whenever a class is
    # quadratic, and the digest pins both that path and the rational chains
    rng = random.Random(14)
    digest = hashlib.sha256()
    quadratic = size_two = 0
    for count in range(300):
        dim = count % 6 + 2
        W = _unimodular(rng, dim, 4)
        shape, P = rjcf_shape(solve_or_invert(W) @ _mixed_jordan(rng, dim) @ W)
        digest.update(f"{shape!r}|{P!r}\n".encode())
        quadratic += P is None
        size_two += any(isinstance(cls, PolyQ) and s == 2 for cls, s in shape.blocks)
    assert (quadratic, size_two) == (196, 59)
    assert digest.hexdigest() == "d1886264bf92d820666780169dcd10b6547c4f05d314dee517b65982ebf7c85a"


# ---------------------------------------------------------------------------
# the ten-form classifier
# ---------------------------------------------------------------------------

def assert_good_witness(wit):
    assert wit.residual_similarity <= RESIDUAL_BOUND
    assert wit.residual_group <= RESIDUAL_BOUND


def test_distinct_real_spectrum_label_is_ordered():
    lbl, wit = sp4_canonical_form(diag(3, 5, -3, -5))
    # parameters normalize to lambda >= mu >= 0
    assert lbl == label("ThmE-1", lambda_=F(5), mu=F(3))
    assert_good_witness(wit)


def test_zero_matrix_label():
    lbl, wit = sp4_canonical_form(MatrixQ.zeros(4, 4))
    assert lbl == label("ThmE-1", lambda_=F(0), mu=F(0))
    assert_good_witness(wit)


def test_classifier_requires_membership():
    with pytest.raises(MembershipError):
        sp4_canonical_form(MatrixQ.identity(4))
    with pytest.raises(MembershipError):
        symplectically_similar(MatrixQ.identity(4), MatrixQ.zeros(4, 4))


def test_irreducible_quartic_unsupported():
    # [[0, B], [C, 0]] with B = diag(1,-1), C = [[0,1],[1,-1]]: char poly
    # x^4 - x^2 + 1, irreducible over the rationals
    a = MatrixQ([[0, 0, 1, 0], [0, 0, 0, -1], [0, 1, 0, 0], [1, -1, 0, 0]])
    assert lie_membership(a, "sp4")
    assert char_poly(a) == PolyQ([1, 0, -1, 0, 1])
    with pytest.raises(UnsupportedFactorError):
        sp4_canonical_form(a)
    # h(J2): complex eigenvalues +-w with w^2 = i (p = 0, q = 1), so the
    # eigenvalue quartic is x^4 + 1
    b = _realify_complex_pairs([[(0, 0), (1, 0)], [(0, 1), (0, 0)]])
    assert lie_membership(b, "hJ2")
    assert char_poly(b) == PolyQ([1, 0, 0, 0, 1])
    with pytest.raises(UnsupportedFactorError):
        hJ2_canonical_form(b)
    assert eigen_pairing_check(b)


SP4_SAMPLE_LABELS = [
    label("ThmE-1", lambda_=F(5), mu=F(3)),
    label("ThmE-1", lambda_=F(2), mu=F(2)),
    label("ThmE-1", lambda_=F(3), mu=F(0)),
    label("ThmE-1", lambda_=F(0), mu=F(0)),
    label("ThmE-2", lambda_=F(2), epsilon=1),
    label("ThmE-2", lambda_=F(2), epsilon=-1),
    label("ThmE-2", lambda_=F(0), epsilon=1),
    label("ThmE-2", lambda_=F(0), epsilon=-1),
    label("ThmE-3", lambda_=F(3)),
    label("ThmE-3", lambda_=F(0)),
    label("ThmE-4", epsilon=1),
    label("ThmE-4", epsilon=-1),
    label("ThmE-5", epsilon=1),
    label("ThmE-5", epsilon=-1),
    label("ThmE-6", lambda_=F(2), mu=F(3), epsilon=1),
    label("ThmE-6", lambda_=F(2), mu=F(3), epsilon=-1),
    label("ThmE-6", lambda_=F(0), mu=F(1), epsilon=1),
    label("ThmE-7", mu=F(2), epsilon=1, delta=-1),
    label("ThmE-7", mu=F(2), epsilon=-1, delta=1),
    label("ThmE-7", mu=F(1), epsilon=1, delta=1),
    label("ThmE-8", lambda_=F(1), mu=F(2)),
    label("ThmE-8", lambda_=F(0), mu=F(3)),
    label("ThmE-9", mu=F(3), epsilon=1, eta=F(2)),
    label("ThmE-9", mu=F(2), epsilon=-1, eta=F(2)),
    label("ThmE-9", mu=F(2), epsilon=1, eta=F(-1)),
    label("ThmE-9", mu=F(2), epsilon=-1, eta=F(-1)),
    label("ThmE-10", mu=F(2), epsilon=1),
    label("ThmE-10", mu=F(2), epsilon=-1),
]


@pytest.mark.parametrize("lbl", SP4_SAMPLE_LABELS, ids=str)
def test_ten_form_idempotence(lbl):
    m = sp4_canonical_matrix(lbl)
    assert lie_membership(m, "sp4")
    got, wit = sp4_canonical_form(m)
    assert got == lbl
    assert_good_witness(wit)


def _rand_sym2(rng, bound):
    a, b, c = (F(rng.randint(-bound, bound)) for _ in range(3))
    return [[a, b], [b, c]]


def _rand_nilpotent_sp4(rng, bound):
    kind = rng.randrange(3)
    if kind == 0:
        B = _rand_sym2(rng, bound)
        return MatrixQ([[0, 0, B[0][0], B[0][1]], [0, 0, B[1][0], B[1][1]],
                        [0, 0, 0, 0], [0, 0, 0, 0]])
    if kind == 1:
        C = _rand_sym2(rng, bound)
        return MatrixQ([[0, 0, 0, 0], [0, 0, 0, 0],
                        [C[0][0], C[0][1], 0, 0], [C[1][0], C[1][1], 0, 0]])
    x = F(rng.randint(-bound, bound))
    return MatrixQ([[0, x, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -x, 0]])


def random_symplectic(rng, steps=3, bound=2):
    """Exact symplectic matrix: product of exponentials of square-zero members
    with entries in [-bound, bound]."""
    W = MatrixQ.identity(4)
    for _ in range(steps):
        W = W @ matrix_exp_nilpotent(_rand_nilpotent_sp4(rng, bound))
    return W


def test_label_invariance_under_symplectic_conjugation():
    rng = random.Random(7)
    trials = 0
    for lbl in SP4_SAMPLE_LABELS:
        m = sp4_canonical_matrix(lbl)
        for _ in range(4):
            W = random_symplectic(rng)
            assert group_membership(W, "Sp4")
            a = solve_or_invert(W) @ m @ W
            assert lie_membership(a, "sp4")
            got, wit = sp4_canonical_form(a)
            assert got == lbl
            assert_good_witness(wit)
            assert symplectically_similar(a, m)
            trials += 1
    assert trials >= N_CONJUGATIONS


# the four sign pairs: one-plane nilpotent, one-plane rotation, chain-4
# nilpotent, rotation+chain.  Oracle: all dissimilar over the reals.
SIGN_PAIRS = [
    (
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        MatrixQ([[0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        ("ThmE-2", "ThmE-2"),
    ),
    (
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]]),
        MatrixQ([[0, 0, -1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]),
        ("ThmE-6", "ThmE-6"),
    ),
    (
        MatrixQ([[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, -1, 0]]),
        MatrixQ([[0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, -1, 0]]),
        ("ThmE-5", "ThmE-5"),
    ),
    (
        MatrixQ([[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]]),
        MatrixQ([[0, 1, -1, 0], [-1, 0, 0, -1], [0, 0, 0, 1], [0, 0, -1, 0]]),
        ("ThmE-10", "ThmE-10"),
    ),
]


@pytest.mark.parametrize("a,b,families", SIGN_PAIRS,
                         ids=["plane-nilpotent", "plane-rotation", "chain-4", "rotation-chain"])
def test_sign_pairs_dissimilar(a, b, families):
    la, wa = sp4_canonical_form(a)
    lb, wb = sp4_canonical_form(b)
    assert la.family == families[0]
    assert lb.family == families[1]
    assert la.param("epsilon") == -lb.param("epsilon")
    assert not symplectically_similar(a, b)
    assert_good_witness(wa)
    assert_good_witness(wb)


def test_two_rotation_planes_share_one_label():
    # three similar members and the explicit conjugators between them
    a1 = MatrixQ([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    a2 = MatrixQ([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
    a3 = MatrixQ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    A1 = MatrixQ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    A2 = MatrixQ([
        [1, 1, F(1, 2), 0],
        [1, 1, 0, F(1, 2)],
        [-1, 1, 0, F(1, 2)],
        [1, -1, F(1, 2), 0],
    ])
    assert group_membership(A1, "Sp4")
    assert group_membership(A2, "Sp4")
    assert solve_or_invert(A1) @ a1 @ A1 == a2
    assert solve_or_invert(A2) @ a2 @ A2 == a3
    labels = [sp4_canonical_form(m)[0] for m in (a1, a2, a3)]
    assert labels[0] == labels[1] == labels[2]
    assert symplectically_similar(a1, a3)


def test_irrational_parameter_labels():
    # char poly (x^2 - 2)(x^2 - 3): eigenvalues +-sqrt(2), +-sqrt(3)
    a = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 3, 0, 0]])
    assert lie_membership(a, "sp4")
    lbl, wit = sp4_canonical_form(a)
    assert lbl.family == "ThmE-1"
    assert lbl.param("lambda") == sqrt_exact(F(3))
    assert lbl.param("mu") == sqrt_exact(F(2))
    assert_good_witness(wit)
    # char poly (x^2 + 2)(x^2 + 5): distinct imaginary frequencies
    b = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -5, 0, 0]])
    lblb, witb = sp4_canonical_form(b)
    assert lblb.family == "ThmE-9"
    assert lblb.param("mu") == sqrt_exact(F(5))
    root2 = sqrt_exact(F(2))
    assert lblb.param("eta") in (root2, root2 * F(-1))
    assert_good_witness(witb)
    # char poly (x^2 - 2x - 1)(x^2 + 2x - 1): irrational roots of quadratics
    # with a linear term, 1 +- sqrt(2) and -1 +- sqrt(2)
    c = MatrixQ([[1, 2, 0, 0], [1, 1, 0, 0], [0, 0, -1, -1], [0, 0, -2, -1]])
    assert lie_membership(c, "sp4")
    lblc, witc = sp4_canonical_form(c)
    assert lblc.family == "ThmE-1"
    assert lblc.param("lambda") == root2 + 1
    assert lblc.param("mu") == root2 - 1
    assert_good_witness(witc)
    W = random_symplectic(random.Random(7))
    lblw, witw = sp4_canonical_form(solve_or_invert(W) @ c @ W)
    assert lblw == lblc
    assert_good_witness(witw)


def test_eigen_pairing_examples():
    assert eigen_pairing_check(diag(1, 2, -1, -2))
    with pytest.raises(MembershipError):
        eigen_pairing_check(MatrixQ.identity(4))


@seed(1)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=10, max_size=10))
def test_eigen_pairing_random_members(vals):
    a = _sp4_member([F(v) for v in vals])
    assert lie_membership(a, "sp4")
    assert eigen_pairing_check(a)


# ---------------------------------------------------------------------------
# the two-structure (three-form) classifier
# ---------------------------------------------------------------------------

HJ2_SAMPLE_LABELS = [
    label("ThmEE-1", lambda_=F(2)),
    label("ThmEE-1", lambda_=F(0)),
    CanonicalLabel("ThmEE-2", ()),
    label("ThmEE-3", lambda_=F(1), mu=F(1), epsilon=1),
    label("ThmEE-3", lambda_=F(1), mu=F(1), epsilon=-1),
    label("ThmEE-3", lambda_=F(0), mu=F(2), epsilon=1),
    label("ThmEE-3", lambda_=F(2), mu=F(3), epsilon=-1),
]


def test_double_real_pair_label():
    lbl, wit = hJ2_canonical_form(diag(2, 2, -2, -2))
    assert lbl == label("ThmEE-1", lambda_=F(2))
    assert_good_witness(wit)


def test_zero_matrix_two_structure_label():
    lbl, wit = hJ2_canonical_form(MatrixQ.zeros(4, 4))
    assert lbl == label("ThmEE-1", lambda_=F(0))
    assert_good_witness(wit)


@pytest.mark.parametrize("lbl", HJ2_SAMPLE_LABELS, ids=str)
def test_three_form_idempotence(lbl):
    m = hJ2_canonical_matrix(lbl)
    assert lie_membership(m, "hJ2")
    got, wit = hJ2_canonical_form(m)
    assert got == lbl
    assert_good_witness(wit)


def test_two_structure_pair_dissimilar():
    # oracle: no real intertwiner preserves both structure matrices
    nn1 = MatrixQ([[1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, -1, 1], [0, 0, -1, -1]])
    nn2 = MatrixQ([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, -1, -1], [0, 0, 1, -1]])
    l1, w1 = hJ2_canonical_form(nn1)
    l2, w2 = hJ2_canonical_form(nn2)
    assert l1 == label("ThmEE-3", lambda_=F(1), mu=F(1), epsilon=1)
    assert l2 == label("ThmEE-3", lambda_=F(1), mu=F(1), epsilon=-1)
    assert not hJ2_similar(nn1, nn2)
    assert_good_witness(w1)
    assert_good_witness(w2)


def _realify_complex_pairs(T):
    """Exact real 4x4 of a complex 2x2 given as ((re, im), ...) rows."""
    cols = []
    for z in (((1, 0), (0, 0)), ((0, -1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))):
        img = []
        for i in range(2):
            re = sum(F(T[i][j][0]) * F(z[j][0]) - F(T[i][j][1]) * F(z[j][1]) for j in range(2))
            im = sum(F(T[i][j][0]) * F(z[j][1]) + F(T[i][j][1]) * F(z[j][0]) for j in range(2))
            img.append((re, im))
        cols.append([img[0][0], -img[0][1], img[1][0], img[1][1]])
    return MatrixQ([[cols[j][i] for j in range(4)] for i in range(4)])


def _cmul2(A, B):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            re = sum(A[i][k][0] * B[k][j][0] - A[i][k][1] * B[k][j][1] for k in range(2))
            im = sum(A[i][k][0] * B[k][j][1] + A[i][k][1] * B[k][j][0] for k in range(2))
            row.append((re, im))
        out.append(row)
    return out


def random_structure_group_element(rng, steps=3, bound=2):
    """Exact group element: realified product of alternating upper and lower
    complex shears with entries in [-bound, bound]^2, so det 1."""
    one, zero = (F(1), F(0)), (F(0), F(0))
    T = [[one, zero], [zero, one]]
    for k in range(steps):
        z = (F(rng.randint(-bound, bound)), F(rng.randint(-bound, bound)))
        T = _cmul2(T, [[one, z], [zero, one]] if k % 2 == 0 else [[one, zero], [z, one]])
    return _realify_complex_pairs(T)


def test_two_structure_label_invariance():
    rng = random.Random(11)
    trials = 0
    for lbl in HJ2_SAMPLE_LABELS:
        m = hJ2_canonical_matrix(lbl)
        for _ in range(8):
            W = random_structure_group_element(rng)
            assert group_membership(W, "HJ2")
            a = solve_or_invert(W) @ m @ W
            assert lie_membership(a, "hJ2")
            got, wit = hJ2_canonical_form(a)
            assert got == lbl
            assert_good_witness(wit)
            assert hJ2_similar(a, m)
            assert eigen_pairing_check(a)
            trials += 1
    assert trials >= 50


def test_kernel_pairing_for_two_structure_members():
    # eigenspace pairing: dim ker (a - w)^k = dim ker (a + w)^k, and the
    # kernel of a itself has even dimension
    rng = random.Random(13)
    mats = [hJ2_canonical_matrix(lbl) for lbl in HJ2_SAMPLE_LABELS]
    for lbl in HJ2_SAMPLE_LABELS[:4]:
        W = random_structure_group_element(rng)
        mats.append(solve_or_invert(W) @ hJ2_canonical_matrix(lbl) @ W)
    for a in mats:
        terms = factor_over_rationals(char_poly(a))
        for t in terms:
            if t.poly.degree != 1:
                continue
            lam = -t.poly.coeff(0)
            if lam == 0:
                ker = 4 - a.rank()
                assert ker % 2 == 0
                continue
            mirror = PolyQ([lam, 1])
            assert any(u.poly == mirror and u.multiplicity == t.multiplicity
                       for u in terms)
            for k in (1, 2):
                dplus = 4 - ((a - MatrixQ.identity(4).scale(lam)) ** k).rank()
                dminus = 4 - ((a + MatrixQ.identity(4).scale(lam)) ** k).rank()
                assert dplus == dminus


def test_hJ2_requires_membership():
    with pytest.raises(MembershipError):
        hJ2_canonical_form(MatrixQ.identity(4))
    # sp4 member that does not respect the second structure matrix
    a = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert lie_membership(a, "sp4")
    assert not lie_membership(a, "hJ2")
    with pytest.raises(MembershipError):
        hJ2_canonical_form(a)
    for pair in ((a, MatrixQ.zeros(4, 4)), (MatrixQ.zeros(4, 4), a)):
        with pytest.raises(MembershipError):
            hJ2_similar(*pair)


def test_irrational_entries_rejected_with_location():
    # the classifiers take rational matrices: a QuadExt entry is a TypeError
    # naming the first such entry, while the membership and pairing tests
    # still accept it
    r = sqrt_exact(F(2))
    a = diag(r, 1, -r, -1)
    b = diag(r, r, -r, -r)
    c = MatrixQ([[1, 0, 0, 0], [0, r, 0, 0], [0, 0, -1, 0], [0, 0, 0, -r]])
    calls = [
        (sp4_canonical_form, (a,), "(0, 0)"),
        (symplectically_similar, (diag(1, 2, -1, -2), c), "(1, 1)"),
        (symplectically_similar, (a, diag(1, 2, -1, -2)), "(0, 0)"),
        (rjcf_shape, (a,), "(0, 0)"),
        (rjcf_shape, (c,), "(1, 1)"),
        (hJ2_canonical_form, (b,), "(0, 0)"),
        (hJ2_similar, (diag(1, 1, -1, -1), b), "(0, 0)"),
    ]
    for call, args, where in calls:
        with pytest.raises(TypeError) as err:
            call(*args)
        assert f"entry {where}" in str(err.value)
        assert "rational matrices" in str(err.value)
    for m in (a, b, c):
        assert lie_membership(m, "sp4")
        assert eigen_pairing_check(m)
    assert lie_membership(b, "hJ2")


def test_large_rational_eigenvalues_classify_fast():
    # a 61-bit prime eigenvalue: its square roots are read off with isqrt, so
    # the time does not grow with the size of the eigenvalue
    big = F(2 ** 61 - 1)
    ee3 = label("ThmEE-3", lambda_=big, mu=F(3), epsilon=1)
    cases = [
        (sp4_canonical_form, diag(big, 3, -big, -3), label("ThmE-1", lambda_=big, mu=F(3))),
        (hJ2_canonical_form, diag(big, big, -big, -big), label("ThmEE-1", lambda_=big)),
        (hJ2_canonical_form, hJ2_canonical_matrix(ee3), ee3),
    ]
    for form, a, lbl in cases:
        start = time.perf_counter()
        got, wit = form(a)
        assert time.perf_counter() - start < 1.0
        assert got == lbl
        assert wit.precision_bits == 0


# ---------------------------------------------------------------------------
# the witness contract
# ---------------------------------------------------------------------------

def test_witness_contract_under_deep_shear_conjugation():
    # every nonzero representative, conjugated by products of 10 square-zero
    # shears with entries in [-4, 4]: the witness is certified, it is an exact
    # group element exactly when its group residual is 0, and an exact witness
    # conjugates exactly to the representative
    rng = random.Random(23)
    trials = 0
    for lbl in SP4_SAMPLE_LABELS + HJ2_SAMPLE_LABELS:
        sp4 = lbl.family.startswith("ThmE-")
        m = sp4_canonical_matrix(lbl) if sp4 else hJ2_canonical_matrix(lbl)
        if m.is_zero():
            continue
        for _ in range(4):
            if sp4:
                W = random_symplectic(rng, steps=10, bound=4)
            else:
                W = random_structure_group_element(rng, steps=10, bound=4)
            a = solve_or_invert(W) @ m @ W
            got, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
            assert got == lbl
            assert_good_witness(wit)
            assert all(isinstance(x, F) for x in wit.W.flat())
            assert group_membership(wit.W, "Sp4" if sp4 else "HJ2") == (wit.residual_group == 0)
            if wit.precision_bits == 0:
                assert solve_or_invert(wit.W) @ a @ wit.W == m
            trials += 1
    assert trials >= 130


def _exact_witness_cases():
    """Members whose constructions take only rational square roots, with their labels."""
    W = random_structure_group_element(random.Random(5))
    ee3 = label("ThmEE-3", lambda_=F(2), mu=F(3), epsilon=-1)
    return [
        (diag(3, 5, -3, -5), label("ThmE-1", lambda_=F(5), mu=F(3))),
        (solve_or_invert(W) @ hJ2_canonical_matrix(ee3) @ W, ee3),
    ]


def test_rational_roots_give_exact_witnesses():
    # every square root these constructions take is rational, so W is exact
    for a, lbl in _exact_witness_cases():
        sp4 = lbl.family.startswith("ThmE-")
        got, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
        assert got == lbl
        assert (wit.residual_similarity, wit.residual_group, wit.precision_bits) == (0.0, 0.0, 0)
        assert group_membership(wit.W, "Sp4" if sp4 else "HJ2")
        target = sp4_canonical_matrix(lbl) if sp4 else hJ2_canonical_matrix(lbl)
        assert solve_or_invert(wit.W) @ a @ wit.W == target


def test_exact_witnesses_meet_a_zero_tolerance(monkeypatch):
    # a residual equal to the tolerance passes: with RESIDUAL_TOLERANCE = 0 the
    # exact witnesses of test_rational_roots_give_exact_witnesses still come back
    monkeypatch.setattr(canonical, "RESIDUAL_TOLERANCE", 0)
    for a, lbl in _exact_witness_cases():
        sp4 = lbl.family.startswith("ThmE-")
        got, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
        assert got == lbl
        assert (wit.residual_similarity, wit.residual_group, wit.precision_bits) == (0.0, 0.0, 0)


def test_witness_out_of_tolerance_fails_loudly(monkeypatch):
    # ThmE-2 whose chain pair needs sqrt(2): certified at the default tolerance,
    # and no rounded root meets a tolerance of 0
    m = MatrixQ([[2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0], [0, 0, 0, 0]])
    W = MatrixQ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])
    assert group_membership(W, "Sp4")
    a = solve_or_invert(W) @ m @ W
    lbl, wit = sp4_canonical_form(a)
    assert lbl == label("ThmE-2", lambda_=F(2), epsilon=1)
    assert wit.precision_bits > 0
    assert_good_witness(wit)
    monkeypatch.setattr(canonical, "RESIDUAL_TOLERANCE", 0)
    with pytest.raises(WitnessPrecisionError):
        sp4_canonical_form(a)


def _sqrt2_chain_member():
    """The ThmE-2 member of test_witness_out_of_tolerance_fails_loudly, whose witness
    needs sqrt(2) and is certified from 64-bit roots."""
    m = MatrixQ([[2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0], [0, 0, 0, 0]])
    W = MatrixQ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])
    return solve_or_invert(W) @ m @ W


def _patch_builds(monkeypatch, rebuild):
    """Make every sp4 witness build return rebuild(bits, W) in place of the W it builds."""
    classify = canonical._sp4_classify

    def patched(a, Ja):
        lbl, build = classify(a, Ja)
        return lbl, lambda bits: rebuild(bits, build(bits))

    monkeypatch.setattr(canonical, "_sp4_classify", patched)


def test_singular_witness_is_rebuilt_at_more_bits(monkeypatch):
    a = _sqrt2_chain_member()
    assert sp4_canonical_form(a)[1].precision_bits == 64
    _patch_builds(monkeypatch, lambda bits, W: MatrixQ.zeros(4, 4) if bits == 64 else W)
    lbl, wit = sp4_canonical_form(a)
    assert lbl == label("ThmE-2", lambda_=F(2), epsilon=1)
    assert wit.precision_bits == 128
    assert 0 < wit.residual_similarity + wit.residual_group
    assert_good_witness(wit)


def test_always_singular_witness_fails_loudly(monkeypatch):
    _patch_builds(monkeypatch, lambda bits, W: MatrixQ.zeros(4, 4))
    with pytest.raises(WitnessPrecisionError):
        sp4_canonical_form(_sqrt2_chain_member())


def test_exact_shortcut_needs_a_group_element(monkeypatch):
    # 2 W for an exact witness W still has a (2 W) = (2 W) C, but (2 W)^T J (2 W) = 4 J:
    # it is never certified, so no build at any precision comes back
    a, _ = _exact_witness_cases()[0]
    _patch_builds(monkeypatch, lambda bits, W: W * 2)
    with pytest.raises(WitnessPrecisionError):
        sp4_canonical_form(a)


def test_exact_shortcut_needs_a_conjugation(monkeypatch):
    # W S for an exact witness W and a symplectic shear S near the identity is a
    # group element with W^-1 a W != C: it reports the exact residual, not 0
    a, lbl = _exact_witness_cases()[0]
    S = MatrixQ([[1, 0, F(1, 2 ** 40), 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert group_membership(S, "Sp4")
    _patch_builds(monkeypatch, lambda bits, W: W @ S)
    got, wit = sp4_canonical_form(a)
    assert got == lbl
    sim, grp = _exact_residuals(a, sp4_canonical_matrix(lbl), wit.W, (J_SP4,))
    assert max(grp) == 0 and wit.residual_group == 0.0
    assert 0 < wit.residual_similarity == float(max(sim))
    assert wit.precision_bits == 64


def test_witness_digest_frozen():
    # label text, repr(W), both residuals and precision_bits of 70 witnesses,
    # hashed: every nonzero representative and the two irrational-spectrum
    # members of test_irrational_parameter_labels, each conjugated by 3 and by
    # 6 shears.  A refactor of the builders must keep every byte.
    irrational = [
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 3, 0, 0]]),
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -5, 0, 0]]),
    ]
    cases = ([(sp4_canonical_matrix(lbl), True) for lbl in SP4_SAMPLE_LABELS]
             + [(m, True) for m in irrational]
             + [(hJ2_canonical_matrix(lbl), False) for lbl in HJ2_SAMPLE_LABELS])
    rng = random.Random(31)
    digest = hashlib.sha256()
    count = 0
    for m, sp4 in cases:
        if m.is_zero():
            continue
        for steps in (3, 6):
            if sp4:
                W = random_symplectic(rng, steps=steps)
            else:
                W = random_structure_group_element(rng, steps=steps)
            a = solve_or_invert(W) @ m @ W
            lbl, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
            digest.update(f"{lbl}|{wit.W!r}|{wit.residual_similarity!r}|"
                          f"{wit.residual_group!r}|{wit.precision_bits}\n".encode())
            count += 1
    assert count == 70
    assert digest.hexdigest() == "5095d6eb771d575b8e5b0477a8886a71d4f7485466bf93f5783603e3868c634b"


def _exact_residuals(a, target, W, js):
    """The entries of |W^-1 a W - C| and of |W^T J W - J| over js, as exact Fraction or
    QuadExt values (entries in two quadratic fields are not ordered, so no max is taken)."""
    sim = [abs(x) for x in (solve_or_invert(W) @ a @ W - target).flat()]
    grp = [abs(x) for J in js for x in (W.transpose() @ J @ W - J).flat()]
    return sim, grp


def test_witness_residuals_are_rounded_exact_residuals():
    # both reported residuals are the largest float() of the exact entries, bit for bit:
    # seeded conjugates of every representative, the three irrational members
    # of test_irrational_parameter_labels (QuadExt targets) as they are and
    # conjugated, and the sqrt(2) chain member certified from 64-bit roots
    irrational = [
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 3, 0, 0]]),
        MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -5, 0, 0]]),
        MatrixQ([[1, 2, 0, 0], [1, 1, 0, 0], [0, 0, -1, -1], [0, 0, -2, -1]]),
    ]
    rng = random.Random(37)
    cases = [(m, True) for m in irrational + [_sqrt2_chain_member()]]
    for m in irrational:
        W = random_symplectic(rng)
        cases.append((solve_or_invert(W) @ m @ W, True))
    for lbl in SP4_SAMPLE_LABELS:
        W = random_symplectic(rng)
        cases.append((solve_or_invert(W) @ sp4_canonical_matrix(lbl) @ W, True))
    for lbl in HJ2_SAMPLE_LABELS:
        W = random_structure_group_element(rng)
        cases.append((solve_or_invert(W) @ hJ2_canonical_matrix(lbl) @ W, False))
    bits, irrational_targets = set(), 0
    for a, sp4 in cases:
        lbl, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
        target = sp4_canonical_matrix(lbl) if sp4 else hJ2_canonical_matrix(lbl)
        js = (J_SP4,) if sp4 else (J_HJ2_1, J_HJ2_2)
        sim, grp = _exact_residuals(a, target, wit.W, js)
        assert max(map(float, sim)) == wit.residual_similarity
        assert max(map(float, grp)) == wit.residual_group
        assert (wit.precision_bits == 0) == (not any(sim + grp))
        bits.add(wit.precision_bits)
        irrational_targets += any(isinstance(x, QuadExt) for x in target.flat())
    assert irrational_targets == 6
    assert {0, 64} <= bits


def _spectrum_sp4_member(rng, kind):
    """A seeded sp(4,R) member whose spectrum depends on the kind: a random
    member (mostly an irreducible quartic), A (+) -A^T (real pairs such as
    3/2 +- sqrt(17)/2, complex pairs), [[0, B], [C, 0]] with diagonal B and C
    (pure radicals and imaginary pairs), or [[A, B], [0, -A^T]] (rational
    eigenvalues with nilpotent parts)."""
    def ints(n, bound):
        return [F(rng.randint(-bound, bound)) for _ in range(n)]

    if kind == 0:
        return _sp4_member(ints(10, 2))
    a11, a12, a21, a22 = ints(4, 3)
    zero = [F(0)] * 3
    if kind == 1:
        return _sp4_member([a11, a12, a21, a22] + zero + zero)
    if kind == 2:
        b1, b3, c1, c3 = ints(4, 3)
        return _sp4_member([F(0)] * 4 + [b1, F(0), b3, c1, F(0), c3])
    return _sp4_member([a11, F(0), a21, a22] + ints(3, 2) + zero)


def _spectrum_hJ2_member(rng, kind):
    """A seeded h(J2) member: the realified trace-free complex 2x2 matrix with
    Gaussian-integer entries (mostly an irreducible quartic), with eigenvalues
    +-w for a Gaussian integer w, or [[0, 1], [c, 0]] for an integer c (pure
    radicals, and the nilpotent form at c = 0)."""
    def gauss(bound):
        return (rng.randint(-bound, bound), rng.randint(-bound, bound))

    zero = (0, 0)
    if kind == 0:
        z1, z2, z3 = gauss(2), gauss(2), gauss(2)
        return _realify_complex_pairs([[z1, z2], [z3, (-z1[0], -z1[1])]])
    if kind == 1:
        w = gauss(3)
        return _realify_complex_pairs([[w, zero], [zero, (-w[0], -w[1])]])
    return _realify_complex_pairs([[zero, (1, 0)], [(rng.randint(-6, 6), 0), zero]])


# fixed members the seeded draw might miss: a real pair 3/2 +- sqrt(17)/2, the
# irreducible x^4 - x^2 + 1, a complex pair 1 +- 2i, pure radicals sqrt(2), sqrt(3)
SPECTRUM_FIXED_SP4 = [
    _sp4_member([F(x) for x in (3, 2, 1, 0, 0, 0, 0, 0, 0, 0)]),
    MatrixQ([[0, 0, 1, 0], [0, 0, 0, -1], [0, 1, 0, 0], [1, -1, 0, 0]]),
    _sp4_member([F(x) for x in (1, 2, -2, 1, 0, 0, 0, 0, 0, 0)]),
    MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 3, 0, 0]]),
]


def test_spectrum_classifier_digest_frozen():
    # label text (or the exception's type), repr(W), both residuals,
    # precision_bits and eigen_pairing_check of 200 sp(4) and 100 h(J2)
    # members, each conjugated by 3 shears, hashed.  A rework of how the
    # spectrum is read off the characteristic polynomial must keep every byte.
    rng = random.Random(41)
    cases = [(m, True) for m in SPECTRUM_FIXED_SP4]
    cases += [(_spectrum_sp4_member(rng, count % 4), True) for count in range(196)]
    cases += [(_spectrum_hJ2_member(rng, count % 3), False) for count in range(100)]
    digest = hashlib.sha256()
    outcomes = set()
    for m, sp4 in cases:
        assert lie_membership(m, "sp4" if sp4 else "hJ2")
        W = random_symplectic(rng) if sp4 else random_structure_group_element(rng)
        a = solve_or_invert(W) @ m @ W
        try:
            lbl, wit = sp4_canonical_form(a) if sp4 else hJ2_canonical_form(a)
            text = (f"{lbl}|{wit.W!r}|{wit.residual_similarity!r}|"
                    f"{wit.residual_group!r}|{wit.precision_bits}")
            outcomes.add(lbl.family)
        except (UnsupportedFactorError, ArithmeticError) as err:
            text = type(err).__name__
            outcomes.add(text)
        digest.update(f"{text}|{eigen_pairing_check(a)}\n".encode())
    assert outcomes == {f"ThmE-{k}" for k in range(1, 10)} | {
        "ThmEE-1", "ThmEE-2", "ThmEE-3", "UnsupportedFactorError"}
    assert digest.hexdigest() == "fe9c714ecc3578a22057580af916d1b30d9befeddc741c5482209ffe03092605"


# ---------------------------------------------------------------------------
# label mechanics
# ---------------------------------------------------------------------------

def test_label_accessors_and_format():
    lbl = label("ThmE-1", lambda_=F(5), mu=F(3))
    assert lbl.param("lambda") == 5
    assert str(lbl) == "ThmE-1 lambda=5 mu=3"
    with pytest.raises(KeyError):
        lbl.param("epsilon")


def test_label_distinguishes_extension_values():
    a = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 3, 0, 0]])
    b = diag(2, 1, -2, -1)
    assert not symplectically_similar(a, b)
