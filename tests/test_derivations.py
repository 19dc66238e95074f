"""Derivation/automorphism machinery tests.

Expected derivation-algebra dimensions are frozen from
tests/oracles/structure_oracle.py (independent sympy Leibniz nullspace).
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lieq.corpus import instantiate, packaged_corpus, sample_parameters
from lieq.derivations import (
    INTERTWINER_GRID_BUDGET,
    EquivalenceResult,
    TableMismatch,
    _derivation_dim,
    check_bracket_table,
    derivation_basis,
    exp_derivation,
    is_automorphism,
    is_derivation,
    representation_equivalence,
)
from lieq.liealg import LieAlgebra
from lieq.linalg import MatrixQ, QuadExt, solve_or_invert

from test_corpus import _unimodular
from test_liealg import FIXTURES, HEISENBERG3, SL2, SOLV2

N_INNER_SAMPLES = 50
MAX_ENTRY = 4

small_fractions = st.fractions(
    min_value=-MAX_ENTRY, max_value=MAX_ENTRY, max_denominator=3
)

CHAIN6 = LieAlgebra(
    6,
    {
        (1, 5): [1, 0, 0, 0, 0, 0],
        (2, 5): [0, 1, 0, 0, 0, 0],
        (3, 5): [0, 0, 1, 0, 0, 0],
        (4, 5): [0, 0, 0, 1, 0, 0],
    },
)

# oracle: derivation-algebra dimensions
DERIVATION_DIMS = {
    "abelian2": 4,
    "solv2": 2,
    "heisenberg3": 6,
    "sl2": 3,
    "nilp41": 10,
    "nilp42": 7,
    "solv5": 8,
    "nilp64": 15,
    "nilp65": 21,
    "nilp69": 16,
    "nilp616": 9,
}


def unit(n, p, q):
    return MatrixQ([[1 if (r, c) == (p, q) else 0 for c in range(n)] for r in range(n)])


# ------------------------------------------------------------ derivation basis


@pytest.mark.parametrize("tag", sorted(DERIVATION_DIMS))
def test_derivation_basis_dim(tag):
    der = derivation_basis(FIXTURES[tag])
    assert der.dim == DERIVATION_DIMS[tag]
    assert der.algebra_dim == FIXTURES[tag].dim
    assert _derivation_dim(FIXTURES[tag]) == DERIVATION_DIMS[tag]


@pytest.mark.parametrize("tag", sorted(DERIVATION_DIMS))
def test_derivation_basis_elements_are_derivations(tag):
    g = FIXTURES[tag]
    for D in derivation_basis(g).basis:
        assert is_derivation(g, D)


def test_derivation_basis_digest_frozen():
    """sha256 over repr of every derivation basis of appendix A and every 7th
    appendix-B entry, each after a seeded unimodular base change.  It pins the
    Leibniz rows and the kernel: the reduced echelon form is unique, so any
    exact elimination must reproduce it byte for byte."""
    rng = random.Random(11)
    entries = list(packaged_corpus("appendix_a.lalg")) + list(packaged_corpus("appendix_b.lalg"))[::7]
    assert len(entries) == 149
    digest = hashlib.sha256()
    for entry in entries:
        (env,) = sample_parameters(entry, seed=1, k=1)
        g = instantiate(entry, env)
        der = derivation_basis(g.change_basis(_unimodular(rng, g.dim)))
        digest.update(f"{entry.id}|{der.basis!r}\n".encode())
    assert digest.hexdigest() == (
        "77796108390ef438b8f9045d8cccb7c99acd69e8c86aea13fcdbe4f5b56c6fa8"
    )


def test_derivation_dim_matches_basis_after_base_change():
    """The rank path (forward elimination of the Leibniz columns) and the kernel
    path (reduced rows of the transposed system) agree on every 10th appendix-B
    entry after a seeded unimodular base change."""
    rng = random.Random(13)
    entries = list(packaged_corpus("appendix_b.lalg"))[::10]
    assert len(entries) == 74
    for entry in entries:
        (env,) = sample_parameters(entry, seed=1, k=1)
        g = instantiate(entry, env)
        h = g.change_basis(_unimodular(rng, g.dim))
        assert _derivation_dim(h) == derivation_basis(h).dim, entry.id


@pytest.mark.parametrize("tag", ["heisenberg3", "sl2", "nilp69", "solv5"])
def test_derivation_basis_closed_under_commutator(tag):
    g = FIXTURES[tag]
    der = derivation_basis(g)
    for a, Da in enumerate(der.basis):
        for Db in der.basis[a + 1 :]:
            assert der.contains(Da @ Db - Db @ Da)


def test_abelian_derivations_are_all_linear_maps():
    g = LieAlgebra(3, {})
    der = derivation_basis(g)
    assert der.dim == 9
    assert der.contains(MatrixQ([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


def test_derivation_basis_membership_and_coordinates():
    der = derivation_basis(HEISENBERG3)
    D = der.basis[0] * Fraction(2) + der.basis[3] * Fraction(-1, 2)
    coords = der.coordinates(D)
    assert coords is not None
    assert coords[0] == 2 and coords[3] == Fraction(-1, 2)
    assert not der.contains(MatrixQ.identity(2))
    # the identity is never a derivation of a non-abelian algebra
    assert not der.contains(MatrixQ.identity(3))


# -------------------------------------------------------------- is_derivation


def test_zero_and_identity_maps():
    assert is_derivation(HEISENBERG3, MatrixQ.zeros(3, 3))
    assert not is_derivation(HEISENBERG3, MatrixQ.identity(3))


@pytest.mark.parametrize("tag", ["sl2", "heisenberg3", "solv5"])
def test_is_derivation_agrees_with_basis_membership(tag):
    """Each basis derivation, a seeded combination of them, and each of those
    plus a unit matrix E_pq: is_derivation (the columns combined to zero)
    accepts a candidate exactly when the basis span contains it."""
    g = FIXTURES[tag]
    n = g.dim
    der = derivation_basis(g)
    rng = random.Random(f"is_derivation/{tag}")
    combo = sum((D * Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for D in der.basis), MatrixQ.zeros(n, n))
    accepted = 0
    for D in (*der.basis, combo):
        assert is_derivation(g, D)
        for p in range(n):
            for q in range(n):
                cand = D + unit(n, p, q) * rng.randint(1, 3)
                inside = der.contains(cand)
                assert is_derivation(g, cand) == inside, (p, q)
                accepted += inside
    assert accepted < (der.dim + 1) * n * n  # some perturbations leave the span


def test_is_derivation_shape_error():
    with pytest.raises(ValueError, match="must be 3x3"):
        is_derivation(HEISENBERG3, MatrixQ.identity(2))


@seed(1)
@settings(max_examples=N_INNER_SAMPLES, deadline=None)
@given(x=st.tuples(*[small_fractions] * 3))
def test_inner_derivations_sl2(x):
    assert is_derivation(SL2, SL2.ad_matrix(x))


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_inner_derivations_all_fixtures(tag):
    g = FIXTURES[tag]
    der = derivation_basis(g)
    for i in range(g.dim):
        adi = g.ad_basis(i)
        assert is_derivation(g, adi)
        assert der.contains(adi)


# ------------------------------------------------------------- is_automorphism


def test_identity_is_automorphism():
    assert is_automorphism(HEISENBERG3, MatrixQ.identity(3))


def test_singular_is_not_automorphism():
    assert not is_automorphism(HEISENBERG3, MatrixQ.zeros(3, 3))


def test_non_structure_preserving_map():
    # swapping e1 and e2 sends [e2,e3]=e1 to [e1,e3]=0 while A e1 = e2
    A = MatrixQ([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not is_automorphism(HEISENBERG3, A)


def test_automorphism_shape_error():
    with pytest.raises(ValueError, match="must be 3x3"):
        is_automorphism(HEISENBERG3, MatrixQ.identity(4))


@pytest.mark.parametrize("A", [
    MatrixQ.diagonal([QuadExt(0, 2, 2), QuadExt(0, 1, 2), 2]),  # e1 -> 2 sqrt2 e1: an automorphism over R
    MatrixQ([[QuadExt(0, 1, 2), 0, 0], [0, 1, 0], [QuadExt(0, 1, 2), 0, 0]]),  # singular
])
def test_quadratic_automorphism_candidate_is_type_error(A):
    # A is inverted inside change_basis, which takes rational matrices only
    with pytest.raises(TypeError, match="must be rational"):
        is_automorphism(HEISENBERG3, A)


def test_scaling_automorphism_heisenberg():
    # e1 -> st*e1, e2 -> s*e2, e3 -> t*e3 preserves [e2,e3]=e1
    A = MatrixQ.diagonal([6, 2, 3])
    assert is_automorphism(HEISENBERG3, A)
    assert not is_automorphism(HEISENBERG3, MatrixQ.diagonal([5, 2, 3]))


# -------------------------------------------------------------- exp_derivation


def test_exp_zero_derivation():
    assert exp_derivation(HEISENBERG3, MatrixQ.zeros(3, 3)) == MatrixQ.identity(3)


def test_exp_single_entry_derivation():
    # e2 -> e1 on the Heisenberg algebra
    D = unit(3, 0, 1)
    assert is_derivation(HEISENBERG3, D)
    E = exp_derivation(HEISENBERG3, D)
    assert E == MatrixQ.identity(3) + D
    assert is_automorphism(HEISENBERG3, E)


def test_exp_rejects_non_derivation():
    with pytest.raises(ValueError, match="not a derivation"):
        exp_derivation(HEISENBERG3, MatrixQ.identity(3))


def test_exp_rejects_non_nilpotent_derivation():
    D = SOLV2.ad_basis(1)
    assert is_derivation(SOLV2, D)
    with pytest.raises(ValueError, match="not nilpotent"):
        exp_derivation(SOLV2, D)


def test_chain_algebra_shift_derivation():
    # the shift e_k -> e_{k-1} on the 6-dim chain algebra is strictly upper
    S = unit(6, 0, 1) + unit(6, 1, 2) + unit(6, 2, 3) + unit(6, 3, 4)
    der = derivation_basis(CHAIN6)
    assert der.contains(S)
    E = exp_derivation(CHAIN6, S)
    assert is_automorphism(CHAIN6, E)


def test_exp_of_nilpotent_basis_derivations_heisenberg():
    g = HEISENBERG3
    for D in derivation_basis(g).basis:
        if (D ** g.dim).is_zero():
            assert is_automorphism(g, exp_derivation(g, D))


# --------------------------------------------------------- bracket table check


def test_bracket_table_sl2_adjoint():
    mats = [SL2.ad_basis(i) for i in range(3)]
    assert check_bracket_table(mats, SL2) is None


def test_bracket_table_first_mismatch():
    mats = [SL2.ad_basis(i) for i in range(3)]
    wrong = LieAlgebra(
        3, {(0, 1): [2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}
    )
    m = check_bracket_table(mats, wrong)
    assert isinstance(m, TableMismatch)
    assert (m.i, m.j) == (0, 1)
    assert m.actual == mats[0] @ mats[1] - mats[1] @ mats[0]
    assert m.expected == mats[0] * 2


def test_bracket_table_shape_errors():
    with pytest.raises(ValueError, match="expected 3 matrices"):
        check_bracket_table([MatrixQ.identity(2)], SL2)
    with pytest.raises(ValueError, match="square and of equal size"):
        check_bracket_table(
            [MatrixQ.identity(2), MatrixQ.identity(3), MatrixQ.identity(3)],
            SL2,
        )


# --------------------------------------------------- representation equivalence


def test_equivalence_identity_family():
    res = representation_equivalence([MatrixQ.identity(2)], [MatrixQ.identity(2)])
    assert res.certain and res.intertwiner is not None
    assert res.equivalent is True
    assert res.intertwiner.rank() == 2


def test_equivalence_under_conjugation():
    A = [SL2.ad_basis(i) for i in range(3)]
    rng = random.Random(7)
    while True:
        P = MatrixQ([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
        Pinv = solve_or_invert(P)
        if Pinv is not None:
            break
    B = [Pinv @ M @ P for M in A]
    res = representation_equivalence(A, B)
    assert res.certain and res.intertwiner is not None
    T = res.intertwiner
    for MA, MB in zip(A, B):
        assert T @ MA == MB @ T
    assert T.rank() == 3


def test_equivalence_certain_negative():
    res = representation_equivalence([MatrixQ.zeros(1, 1)], [MatrixQ.identity(1)])
    assert res == EquivalenceResult(None, True, 0)
    assert res.equivalent is False
    # T E_11 = E_12 T leaves only T = b E_12: equal ranks, and every point of
    # the grid gives a singular T, so det(sum c_k T_k) vanishes identically
    res = representation_equivalence([unit(2, 0, 0)], [unit(2, 0, 1)])
    assert res == EquivalenceResult(None, True, 1)
    assert res.equivalent is False


def test_equivalence_rank_mismatch_is_certain():
    # T * 0 = N * T forces the second row of T to vanish: a nonzero
    # intertwiner space with no invertible element, and rank 0 != rank 1
    N = MatrixQ([[0, 1], [0, 0]])
    res = representation_equivalence([MatrixQ.zeros(2, 2)], [N])
    assert res.intertwiner is None
    assert res.certain
    assert res.nullspace_dim == 2
    assert res.equivalent is False


def test_equivalence_random_fallback():
    # n = 4 takes the grid values 0, +-1, +-2, and 5^d points exceed the
    # budget for d = 16, 12 and 9, so the search draws random coefficients
    assert 5 ** 9 > INTERTWINER_GRID_BUDGET
    Z = MatrixQ.zeros(4, 4)
    res = representation_equivalence([Z], [Z])
    assert res.nullspace_dim == 16
    assert res.certain and res.equivalent is True
    assert res.intertwiner.rank() == 4
    # T * 0 = E_12 * T forces the second row of T to vanish; rank 0 != rank 1
    res = representation_equivalence([Z], [unit(4, 0, 1)])
    assert res.nullspace_dim == 12
    assert res.intertwiner is None
    assert res.certain
    assert res.equivalent is False
    # T E_11 = E_12 T forces the first column and second row of T to vanish:
    # equal ranks, 5^9 grid points over the budget, and no random draw is
    # invertible, so the answer stays undetermined
    res = representation_equivalence([unit(4, 0, 0)], [unit(4, 0, 1)])
    assert res.nullspace_dim == 9
    assert res.intertwiner is None
    assert not res.certain
    assert res.equivalent is None


def test_equivalence_shape_errors():
    with pytest.raises(ValueError, match="family sizes differ"):
        representation_equivalence([MatrixQ.identity(2)], [])
    with pytest.raises(ValueError, match="square and of equal size"):
        representation_equivalence([MatrixQ.identity(2)], [MatrixQ.identity(3)])
