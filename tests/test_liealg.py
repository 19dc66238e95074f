"""Structure-constant Lie algebra tests.

Frozen expected values come from tests/oracles/structure_oracle.py (sympy,
independent of this package).
"""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lieq import corpus, liealg
from lieq.corpus import fingerprint, instantiate, packaged_corpus, sample_parameters, verify_entry
from lieq.derivations import derivation_basis
from lieq.liealg import JacobiViolation, LieAlgebra, SeriesProfile, Subspace
from lieq.linalg import MatrixQ, QuadExt, nullspace

N_RANDOM_BASE_CHANGES = 50
N_BRACKET_SAMPLES = 100
MAX_ENTRY = 5

small_fractions = st.fractions(
    min_value=-MAX_ENTRY, max_value=MAX_ENTRY, max_denominator=3
)


def e(n, i, three=None):
    return tuple(1 if t == i else 0 for t in range(n))


def span(n, indices):
    return Subspace(n, [e(n, i) for i in indices])


def _appendix_b_entry(entry_id):
    (entry,) = [e for e in packaged_corpus("appendix_b.lalg") if e.id == entry_id]
    return entry


def _unit_bidiagonal(n):
    """A fixed unimodular base change: ones on the diagonal, +-1, +-2 above."""
    above = (1, -2, 2, -1)
    return MatrixQ(
        [[int(i == j) + (above[i % 4] if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    )


# All fixture tables use 0-based (i, j) keys with [e_i, e_j] = coeff vector.
ABELIAN2 = LieAlgebra(2, {})
SOLV2 = LieAlgebra(2, {(0, 1): [1, 0]})
HEISENBERG3 = LieAlgebra(3, {(1, 2): [1, 0, 0]})
SL2 = LieAlgebra(3, {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]})
NILP41 = LieAlgebra(4, {(1, 2): [1, 0, 0, 0]})
NILP42 = LieAlgebra(4, {(1, 3): [1, 0, 0, 0], (2, 3): [0, 1, 0, 0]})
SOLV5 = LieAlgebra(
    5,
    {
        (0, 4): [Fraction(3, 2), 0, 0, 0, 0],
        (1, 2): [1, 0, 0, 0, 0],
        (1, 4): [0, 1, 0, 0, 0],
        (2, 4): [0, 0, Fraction(1, 2), 0, 0],
        (3, 4): [0, 0, 0, 1, 0],
    },
)
NILP64 = LieAlgebra(
    6,
    {
        (3, 4): [0, 1, 0, 0, 0, 0],
        (3, 5): [0, 0, 1, 0, 0, 0],
        (4, 5): [0, 0, 0, 1, 0, 0],
    },
)
NILP65 = LieAlgebra(6, {(2, 4): [0, 1, 0, 0, 0, 0], (3, 5): [0, 1, 0, 0, 0, 0]})
NILP69 = LieAlgebra(
    6,
    {
        (2, 4): [0, 1, 0, 0, 0, 0],
        (2, 5): [1, 0, 0, 0, 0, 0],
        (3, 4): [-1, 0, 0, 0, 0, 0],
        (3, 5): [0, 1, 0, 0, 0, 0],
    },
)
NILP616 = LieAlgebra(
    6,
    {
        (1, 4): [1, 0, 0, 0, 0, 0],
        (2, 3): [-1, 0, 0, 0, 0, 0],
        (2, 5): [0, 1, 0, 0, 0, 0],
        (3, 5): [0, 0, 1, 0, 0, 0],
        (4, 5): [0, 0, 0, 1, 0, 0],
    },
)

FIXTURES = {
    "abelian2": ABELIAN2,
    "solv2": SOLV2,
    "heisenberg3": HEISENBERG3,
    "sl2": SL2,
    "nilp41": NILP41,
    "nilp42": NILP42,
    "solv5": SOLV5,
    "nilp64": NILP64,
    "nilp65": NILP65,
    "nilp69": NILP69,
    "nilp616": NILP616,
}

# oracle: series/center/killing table
EXPECTED = {
    # tag: (derived_dims, lcs_dims, center_dim, killing_rank)
    "abelian2": ((0,), (0,), 2, 0),
    "solv2": ((1, 0), (1, 1), 0, 1),
    "heisenberg3": ((1, 0), (1, 0), 1, 0),
    "sl2": ((3,), (3,), 0, 3),
    "nilp41": ((1, 0), (1, 0), 2, 0),
    "nilp42": ((2, 0), (2, 1, 0), 1, 0),
    "solv5": ((4, 1, 0), (4, 4), 0, 1),
    "nilp64": ((3, 0), (3, 2, 0), 3, 0),
    "nilp65": ((1, 0), (1, 0), 2, 0),
    "nilp69": ((2, 0), (2, 0), 2, 0),
    "nilp616": ((4, 1, 0), (4, 3, 2, 1, 0), 1, 0),
}


# ---------------------------------------------------------------- construction


def test_dimension_bounds():
    with pytest.raises(ValueError, match="outside supported range"):
        LieAlgebra(0, {})
    with pytest.raises(ValueError, match="outside supported range"):
        LieAlgebra(8, {})
    assert LieAlgebra(7, {}).dim == 7


def test_bad_bracket_indices():
    with pytest.raises(ValueError, match=r"\(2,2\) out of range"):
        LieAlgebra(3, {(1, 1): [1, 0, 0]})
    with pytest.raises(ValueError, match=r"\(3,2\) out of range"):
        LieAlgebra(3, {(2, 1): [1, 0, 0]})
    with pytest.raises(ValueError, match=r"\(1,4\) out of range"):
        LieAlgebra(3, {(0, 3): [1, 0, 0]})


def test_bad_coefficient_length():
    with pytest.raises(ValueError, match="length 2, expected 3"):
        LieAlgebra(3, {(0, 1): [1, 0]})


def test_zero_rows_dropped():
    g = LieAlgebra(3, {(0, 1): [0, 0, 0], (1, 2): [1, 0, 0]})
    assert set(g.table) == {(1, 2)}


def test_table_is_a_snapshot():
    """table is built on each read: changing the dict it returns changes nothing
    in the algebra, and its keys come in pair order whatever order the
    constructor was given."""
    g, h = LieAlgebra(4, NILP42.table), LieAlgebra(4, NILP42.table)
    snapshot = g.table
    snapshot.clear()
    snapshot[(0, 1)] = (0, 0, 0, 1)
    assert g == h == NILP42 and g.table == h.table
    assert g.derived_algebra() == span(4, [0, 1])
    assert g.series_profile() == NILP42.series_profile()
    assert g.bracket(e(4, 1), e(4, 3)) == (1, 0, 0, 0)
    shuffled = LieAlgebra(4, {(2, 3): [0, 1, 0, 0], (0, 1): [0, 0, 1, 0], (1, 3): [1, 0, 0, 0]})
    assert list(shuffled.table) == [(0, 1), (1, 3), (2, 3)]


# -------------------------------------------------------------------- brackets


def test_bracket_heisenberg():
    assert HEISENBERG3.bracket(e(3, 1), e(3, 2)) == (1, 0, 0)
    assert HEISENBERG3.bracket(e(3, 2), e(3, 1)) == (-1, 0, 0)
    assert HEISENBERG3.bracket(e(3, 0), e(3, 2)) == (0, 0, 0)
    assert HEISENBERG3.bracket((2, 3, 0), (0, 1, 5)) == (15, 0, 0)


def test_structure_constant_both_orders():
    assert SL2.structure_constant(0, 1) == (-2, 0, 0)
    assert SL2.structure_constant(1, 0) == (2, 0, 0)
    assert SL2.structure_constant(2, 2) == (0, 0, 0)
    assert SL2.structure_constant(0, 2) == (0, 1, 0)


@pytest.mark.parametrize("i, j", [(5, 2), (0, 9), (-1, 1), (3, 0), (0, -3)])
def test_structure_constant_rejects_bad_indices(i, j):
    with pytest.raises(IndexError, match=rf"\({i}, {j}\) outside 0\.\.2"):
        HEISENBERG3.structure_constant(i, j)


@seed(1)
@settings(max_examples=N_BRACKET_SAMPLES, deadline=None)
@given(
    x=st.tuples(*[small_fractions] * 5),
    y=st.tuples(*[small_fractions] * 5),
    z=st.tuples(*[small_fractions] * 5),
    c=small_fractions,
)
def test_bracket_antisymmetric_bilinear(x, y, z, c):
    lhs = SOLV5.bracket(x, y)
    assert lhs == tuple(-v for v in SOLV5.bracket(y, x))
    xs = tuple(a + c * b for a, b in zip(x, z))
    assert SOLV5.bracket(xs, y) == tuple(
        a + c * b for a, b in zip(lhs, SOLV5.bracket(z, y))
    )


# ---------------------------------------------------------------------- jacobi


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_jacobi_holds(tag):
    assert FIXTURES[tag].check_jacobi() is None


def test_jacobi_violation_witness():
    # corrupted table: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2
    bad = LieAlgebra(
        3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]}
    )
    v = bad.check_jacobi()
    # oracle: jacobi_bad triple (0, 1, 2) -> [0, 0, -2]
    assert v == JacobiViolation(0, 1, 2, (0, 0, -2))


def _dense_bracket(g, x, y):
    """Reference: the table scan, two multiplies per stored bracket."""
    xv = [Fraction(c) for c in x]
    yv = [Fraction(c) for c in y]
    out = [Fraction(0)] * g.dim
    for (i, j), cij in g.table.items():
        f = xv[i] * yv[j] - xv[j] * yv[i]
        if f != 0:
            for k in range(g.dim):
                if cij[k] != 0:
                    out[k] += f * cij[k]
    return tuple(out)


def _dense_check_jacobi(g):
    """Reference: three full brackets per triple i < j < k."""
    n = g.dim
    for i, j, k in combinations(range(n), 3):
        r1 = _dense_bracket(g, g.structure_constant(i, j), e(n, k))
        r2 = _dense_bracket(g, g.structure_constant(j, k), e(n, i))
        r3 = _dense_bracket(g, g.structure_constant(k, i), e(n, j))
        res = tuple(a + b + c for a, b, c in zip(r1, r2, r3))
        if any(x != 0 for x in res):
            return JacobiViolation(i, j, k, res)
    return None


@st.composite
def _tables_and_vectors(draw):
    """A table of dim 2-5, mostly not Lie, or a Lie fixture; plus int,
    Fraction and zero vectors of its dimension."""
    lie = [g for g in FIXTURES.values() if g.dim <= 5]
    if draw(st.booleans()):
        g = draw(st.sampled_from(lie))
    else:
        n = draw(st.integers(min_value=2, max_value=5))
        entries = st.one_of(st.just(0), small_fractions)
        table = {}
        for pair in combinations(range(n), 2):
            if draw(st.booleans()):
                table[pair] = draw(st.lists(entries, min_size=n, max_size=n))
        g = LieAlgebra(n, table)
    ints = st.tuples(*[st.integers(min_value=-3, max_value=3)] * g.dim)
    fracs = st.tuples(*[small_fractions] * g.dim)
    zero = st.just((0,) * g.dim)
    return g, [draw(st.one_of(ints, fracs, zero)) for _ in range(4)]


@seed(1)
@settings(max_examples=200, deadline=None)
@given(_tables_and_vectors())
def test_sparse_kernels_match_dense_reference(case):
    g, (x, y, z, w) = case
    for a, b in ((x, y), (y, x), (z, w), (x, (0,) * g.dim)):
        got = g.bracket(a, b)
        assert got == _dense_bracket(g, a, b)
        assert all(type(c) is Fraction for c in got)
    expected = _dense_check_jacobi(g)
    got = g.check_jacobi()
    assert got == expected
    if got is not None:
        assert all(type(c) is Fraction for c in got.residual)


def test_jacobi_reports_first_triple_in_scan_order():
    # [e1,e2] = 2e3, [e1,e3] = -e4, [e3,e4] = e1: (0,1,2) holds, while both
    # (0,1,3) and (1,2,3) fail
    g = LieAlgebra(4, {(0, 1): [0, 0, 2, 0], (0, 2): [0, 0, 0, -1], (2, 3): [1, 0, 0, 0]})
    expected = JacobiViolation(0, 1, 3, (2, 0, 0, 0))
    assert g.check_jacobi() == expected
    assert _dense_check_jacobi(g) == expected


# -------------------------------------------------------------------- adjoints


def test_ad_matrix_columns():
    ad3 = HEISENBERG3.ad_matrix(e(3, 2))
    assert ad3 == MatrixQ([[0, -1, 0], [0, 0, 0], [0, 0, 0]])
    adH = SL2.ad_basis(1)
    assert adH == MatrixQ([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


@seed(1)
@settings(max_examples=N_BRACKET_SAMPLES, deadline=None)
@given(x=st.tuples(*[small_fractions] * 3), y=st.tuples(*[small_fractions] * 3))
def test_ad_is_bracket_homomorphism(x, y):
    lhs = SL2.ad_matrix(SL2.bracket(x, y))
    ax, ay = SL2.ad_matrix(x), SL2.ad_matrix(y)
    assert lhs == ax @ ay - ay @ ax


# ---------------------------------------------------------------------- series


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_series_dims(tag):
    derived, lcs, _, _ = EXPECTED[tag]
    p = FIXTURES[tag].series_profile()
    assert p.derived_dims == derived
    assert p.lcs_dims == lcs


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_solvability_flags(tag):
    g = FIXTURES[tag]
    p = g.series_profile()
    assert g.is_solvable() == p.solvable == (p.derived_dims[-1] == 0)
    assert g.is_nilpotent() == p.nilpotent == (p.lcs_dims[-1] == 0)
    if p.nilpotent:
        assert p.solvable


def test_solvability_expected_flags():
    assert SOLV2.is_solvable() and not SOLV2.is_nilpotent()
    assert SOLV5.is_solvable() and not SOLV5.is_nilpotent()
    assert not SL2.is_solvable() and not SL2.is_nilpotent()
    assert HEISENBERG3.is_nilpotent()
    assert ABELIAN2.is_nilpotent()


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_center_dim(tag):
    assert FIXTURES[tag].center().dim == EXPECTED[tag][2]


def test_center_witnesses():
    assert HEISENBERG3.center() == span(3, [0])
    assert NILP41.center() == span(4, [0, 3])


def test_invariants_read_cached_ad_matrices(monkeypatch):
    """The centre, Killing matrix and nilradical never call the public
    bracket: all three read the term table, the nilradical search taking the
    integer rows of _den ad(e_i) from it when it forms words."""
    # a fresh copy of a solvable, non-nilpotent dim-6 algebra
    entry = _appendix_b_entry("[6,[5,0],2,1]")
    g0 = instantiate(entry, sample_parameters(entry, seed=1, k=1)[0])
    g = LieAlgebra(g0.dim, g0.table)
    p = g.series_profile()
    assert p.solvable and not p.nilpotent
    calls = []
    original = LieAlgebra.bracket

    def counting(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counting)
    g.center()
    g.killing_matrix()
    g.nilradical_codim_search()
    # rebuilding ad(e_i) through bracket for each of the three took 108 calls
    assert calls == []


def _count_calls(monkeypatch, targets):
    """Wrap each (owner, name) so that calls[name] counts its calls."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:

        def counting(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_invariants_skip_dense_ad_products(monkeypatch):
    """fingerprint forms no matrix product when [g, g] has codimension 1
    (t = 1), and center and killing_matrix never build ad(e_i)."""
    from test_corpus import _unimodular

    rng = random.Random(5)
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::25]
    algebras = [SOLV2, SOLV5, SL2]
    for entry in entries:
        g = instantiate(entry, sample_parameters(entry, seed=1, k=1)[0])
        algebras.append(g.change_basis(_unimodular(rng, g.dim)))
    calls = _count_calls(
        monkeypatch, [(MatrixQ, "__matmul__"), (LieAlgebra, "ad_basis"), (liealg, "_matmul")]
    )
    t_one = 0
    for g0 in algebras:
        g = LieAlgebra(g0.dim, g0.table)
        if g.is_solvable() and g.derived_algebra().dim == g.dim - 1:
            fingerprint(g)
            t_one += 1
        g.center()
        g.killing_matrix()
    assert t_one >= 10
    assert calls == {"__matmul__": 0, "ad_basis": 0, "_matmul": 0}


@pytest.mark.parametrize("tag", sorted(FIXTURES))
def test_killing_rank(tag):
    assert FIXTURES[tag].killing_matrix().rank() == EXPECTED[tag][3]


def test_killing_matrix_sl2():
    assert SL2.killing_matrix() == MatrixQ([[0, 0, 4], [0, 8, 0], [4, 0, 0]])


def _killing_cases():
    yield "solv5", SOLV5
    yield "nilp616", NILP616
    yield "sl2", SL2
    for entry_id in ("[5,[4,0],1,1]", "[6,[5,0],2,1]", "[7,[6,1],1,1]"):
        entry = _appendix_b_entry(entry_id)
        g = instantiate(entry, sample_parameters(entry, seed=1, k=1)[0])
        yield entry_id, g.change_basis(_unit_bidiagonal(g.dim))


def test_killing_matrix_matches_product_form():
    for tag, g in _killing_cases():
        n = g.dim
        ads = [g.ad_basis(i) for i in range(n)]
        K = g.killing_matrix()
        assert K == MatrixQ([[(ads[i] @ ads[j]).trace() for j in range(n)] for i in range(n)]), tag
        assert K == K.transpose(), tag


def test_derived_algebra_solv5():
    assert SOLV5.derived_algebra() == span(5, [0, 1, 2, 3])


# ------------------------------------------------------- ideals and restriction


def test_is_ideal():
    assert SOLV5.is_ideal(span(5, [0, 1, 2, 3]))
    assert HEISENBERG3.is_ideal(span(3, [0]))
    assert not HEISENBERG3.is_ideal(span(3, [1]))
    for tag, g in FIXTURES.items():
        assert g.is_ideal(g.derived_algebra()), tag


def test_restrict_to_nilradical_of_solv5():
    inner = SOLV5.restrict(span(5, [0, 1, 2, 3]))
    assert inner == LieAlgebra(4, {(1, 2): [1, 0, 0, 0]})


def test_restriction_computed_once_per_span(monkeypatch):
    # verify_nilradical decides through the nilradical search and builds no algebra
    # on the subspace; restrict still gives that algebra on request
    g = LieAlgebra(SOLV5.dim, SOLV5.table)
    calls = []
    original = LieAlgebra.restrict

    def counting(self, s):
        calls.append(s)
        return original(self, s)

    monkeypatch.setattr(LieAlgebra, "restrict", counting)
    assert g.verify_nilradical(span(5, [0, 1, 2, 3]))
    assert not g.verify_nilradical(span(5, [0, 1, 2, 3, 4]))
    assert calls == []
    assert g.restrict(span(5, [0, 1, 2, 3])) == LieAlgebra(4, {(1, 2): [1, 0, 0, 0]})


def test_restrict_rejects_unclosed_subspace():
    with pytest.raises(ValueError, match=r"\[u_1, u_2\] lies outside"):
        HEISENBERG3.restrict(span(3, [1, 2]))


def test_subspaces_of_another_ambient_dimension_refused():
    """A subspace of Q^m handed to an algebra or subspace of dimension n != m is
    a ValueError that names both dimensions, not a silent answer or a crash."""
    four = Subspace(4, [[1, 0, 0, 0]])
    cases = [
        # s.contains([g, g]) is the first step to see a subspace of the other space
        (lambda: SOLV2.verify_nilradical(Subspace(1, [[1]])), 2, 1),
        (lambda: HEISENBERG3.is_ideal(four), 4, 3),
        (lambda: HEISENBERG3.restrict(four), 4, 3),
        (lambda: Subspace(2, [[1, 0]]).contains(Subspace(3, [[1, 0, 0]])), 3, 2),
        (lambda: HEISENBERG3.product_space(Subspace.full(3), four), 4, 3),
        (lambda: HEISENBERG3.product_space(four, four), 4, 3),
    ]
    for call, m, n in cases:
        with pytest.raises(ValueError, match=rf"subspace of Q\^{m} against Q\^{n}$"):
            call()


def test_restrictions_interned_by_term_table():
    # SOLV5 and a second algebra acting differently on the same 4-dim nilradical
    other = LieAlgebra(5, {(0, 4): [1, 0, 0, 0, 0], (1, 2): [1, 0, 0, 0, 0], (2, 4): [0, 0, -1, 0, 0]})
    inner = SOLV5.restrict(span(5, [0, 1, 2, 3]))
    assert other.restrict(span(5, [0, 1, 2, 3])) == inner
    # a fresh copy of the same algebra gives an equal table too
    assert LieAlgebra(SOLV5.dim, SOLV5.table).restrict(span(5, [0, 1, 2, 3])) == inner
    abelian = LieAlgebra(5, {(0, 4): [1, 0, 0, 0, 0]}).restrict(span(5, [0, 1, 2, 3]))
    assert abelian != inner and abelian == LieAlgebra(4, {})
    with pytest.raises(ValueError, match="not closed"):
        HEISENBERG3.restrict(span(3, [1, 2]))


def _count_profiles(monkeypatch):
    """The dimensions of the algebras whose series profile is built from now on, with
    the reference tables cleared first."""
    corpus._reference_table.cache_clear()
    profiled = []
    original = LieAlgebra.series_profile

    def counting(self):
        if self._profile is None:
            profiled.append(self.dim)
        return original(self)

    monkeypatch.setattr(LieAlgebra, "series_profile", counting)
    return profiled


def test_verify_entry_profiles_the_shared_nilradical_once(monkeypatch):
    entry = _appendix_b_entry("[7,[6,4],1,1]")
    assert len(sample_parameters(entry, seed=1, k=3)) == 3
    profiled = _count_profiles(monkeypatch)
    assert verify_entry(entry, seed=1, k=3).passed
    # [g, g] lies in span(e1..e6) and each restriction is the nilpotent reference,
    # so the nilradical claims follow from ad(e7): only their shared nilradical of
    # dim 6 is profiled, and none of the three instantiations of dim 7
    assert profiled == [6]


SYNTHETIC_LEAVING_N = """\
algebra [7,[6,4],99,1]
dim 7
param a : real
constraint a != 0
bracket e1 e7 = a*e7
bracket e4 e5 = 1*e2
bracket e4 e6 = 1*e3
bracket e5 e6 = 1*e4
"""


def test_verify_entry_profiles_g_where_the_implication_fails(monkeypatch):
    """A renamed reference and a bracket with an e_n term each take the full path:
    their dim-7 algebras are profiled, and no algebra on span(e1..e6) is, and their
    failures keep their details."""
    entry = _appendix_b_entry("[7,[6,4],1,1]")
    renamed = dataclasses.replace(entry, id="[7,[6,5],99,1]")
    # g = n5 + r2 with [e1, e7] = a e7: [g, g] leaves span(e1..e6), whose table is [6,4]
    (synthetic,) = corpus.parse_corpus(SYNTHETIC_LEAVING_N)
    cases = [
        (renamed, [7, 7, 7], {("nilradical_table", "restricted table differs from [6,5]")}),
        (synthetic, [7, 7, 7], {("derived_in_nilradical", "derived algebra leaves span(e1..e6)"),
                                ("nilradical", "span(e1..e6) is not the nilradical")}),
    ]
    for case, dims, fails in cases:
        profiled = _count_profiles(monkeypatch)
        report = verify_entry(case, seed=1, k=3)
        assert sorted(profiled) == dims, case.id
        assert len(report.records) == 3 * 6
        assert {(r.claim, r.detail) for r in report.failures()} == fails, case.id
        assert len(report.failures()) == 3 * len(fails)


def _codim_one_rule(g, s):
    """The nilradical test verify_nilradical made before it went through the search
    alone: s holds [g, g], the algebra on s is nilpotent, and at codimension 1 g itself
    is not nilpotent."""
    if not s.contains(g.derived_algebra()):
        return False
    if s.dim > 0 and not g.restrict(s).is_nilpotent():
        return False
    if s.dim == g.dim:
        return True
    if s.dim == g.dim - 1:
        return not g.is_nilpotent()
    return s == g.nilradical_codim_search()[0]


def test_verify_nilradical_matches_the_codim_one_rule():
    appendix_b = list(packaged_corpus("appendix_b.lalg"))
    renamed = [dataclasses.replace(e, id=e.id.replace("[6,4]", "[6,5]"))
               for e in appendix_b if e.nilradical_ref == "[6,4]"]
    (synthetic,) = corpus.parse_corpus(SYNTHETIC_LEAVING_N)
    verdicts = set()
    for entry in appendix_b[::10] + renamed + [synthetic]:
        for env in sample_parameters(entry, seed=1, k=3):
            g = instantiate(entry, env)
            n = g.dim
            derived = g.derived_algebra()
            # [g, g] + R e_n has the nilradical's dimension when [g, g] has codimension 2
            subspaces = (span(n, range(n - 1)), derived, Subspace(n, [*derived.basis, e(n, n - 1)]),
                         g.nilradical_codim_search()[0], g.center())
            for s in subspaces:
                verdict = g.verify_nilradical(s)
                assert verdict == _codim_one_rule(g, s), (entry.id, env, s)
                verdicts.add(verdict)
    assert verdicts == {False, True}


SYNTHETIC_NOT_A_DERIVATION = """\
algebra [7,[6,4],98,1]
dim 7
param a : real
param b : real
constraint b <= a
constraint a^2+b^2 != 0
bracket e1 e7 = 1*e1
bracket e2 e7 = (2*a+b)*e2
bracket e3 e7 = (a+2*b)*e3
bracket e4 e5 = 1*e2
bracket e4 e6 = 1*e3
bracket e4 e7 = (a+b+1)*e4
bracket e5 e6 = 1*e4
bracket e5 e7 = a*e5
bracket e6 e7 = b*e6
"""


def test_verify_entry_fails_jacobi_only_through_e_n():
    """[7,[6,4],1,1] with [e4, e7] shifted by e4: its table on span(e1..e6) is still
    [6,4], but ad(e7) is no derivation of it, since [e4, e5] = e2 would need weight
    2a + b + 1.  The jacobi claim fails on the first bad triple, as the full scan
    finds it, and is the only record at each assignment."""
    (entry,) = corpus.parse_corpus(SYNTHETIC_NOT_A_DERIVATION)
    report = verify_entry(entry, seed=1, k=3)
    assert [(r.claim, r.status, r.detail) for r in report.records] == 3 * [
        ("jacobi", "fail", "fails on (e4,e5,e7)")
    ]
    g = instantiate(entry, sample_parameters(entry, seed=1, k=1)[0])
    assert g._extends(corpus._reference_table("[6,4]"))
    through_e7 = g._jacobi_violation((i, j, 6) for i, j in combinations(range(6), 2))
    assert through_e7 == g.check_jacobi()
    assert (through_e7.i, through_e7.j, through_e7.k) == (3, 4, 6)


def test_verify_entry_settles_jacobi_without_restricting_g(monkeypatch):
    """On the short path g is neither restricted nor scanned for Jacobi in full: the
    table compare reads the term table and only the triples through e7 are checked."""
    entry = _appendix_b_entry("[7,[6,4],1,1]")
    corpus._reference_table("[6,4]")  # building the reference restricts its table once
    restricted, scanned = [], []
    restrict, check_jacobi = LieAlgebra.restrict, LieAlgebra.check_jacobi

    def counting_restrict(self, s):
        restricted.append(self.dim)
        return restrict(self, s)

    def counting_jacobi(self):
        scanned.append(self.dim)
        return check_jacobi(self)

    monkeypatch.setattr(LieAlgebra, "restrict", counting_restrict)
    monkeypatch.setattr(LieAlgebra, "check_jacobi", counting_jacobi)
    report = verify_entry(entry, seed=1, k=3)
    assert report.passed and len(report.records) == 3 * 6
    assert restricted == []
    assert 7 not in scanned


def test_extends_compares_constants_as_rationals():
    """_extends agrees with restricting to span(e1..e_{n-1}) and comparing, across
    different denominators: g's is 6 here (its [e1, e4] = e1 / 3), the reference's 2."""
    reference = LieAlgebra(3, {(1, 2): ["1/2", 0, 0]})
    assert reference._den == 2
    cases = [
        ({(1, 2): ["1/2", 0, 0, 0], (0, 3): ["1/3", 0, 0, 0]}, True),
        ({(1, 2): ["1/3", 0, 0, 0], (0, 3): ["1/3", 0, 0, 0]}, False),
        ({(1, 2): [0, "1/2", 0, 0]}, False),
        ({(1, 2): ["1/2", 0, 0, 0], (0, 1): [0, 0, "1/3", 0]}, False),
    ]
    assert LieAlgebra(4, cases[0][0])._den == 6
    span = corpus._nilradical_span(4)
    for table, same in cases:
        g = LieAlgebra(4, table)
        assert g._extends(reference) is same
        assert (g.restrict(span) == reference) is same
    assert not LieAlgebra(3, {(1, 2): ["1/2", 0, 0]})._extends(reference)


def test_check_jacobi_is_cached():
    g = LieAlgebra(3, {(0, 1): [0, 0, 2], (0, 2): [1, 0, 0]})
    violation = g.check_jacobi()
    assert violation is not None and g.check_jacobi() is violation
    assert HEISENBERG3.check_jacobi() is None and HEISENBERG3._jacobi is None


def test_product_space():
    full = Subspace.full(3)
    assert HEISENBERG3.product_space(full, full) == span(3, [0])
    assert HEISENBERG3.product_space(span(3, [0]), full).dim == 0


# ------------------------------------------------------------------ nilradical


def test_verify_nilradical_solv5():
    assert SOLV5.verify_nilradical(span(5, [0, 1, 2, 3]))
    # proper nilpotent ideal missing the derived algebra
    assert not SOLV5.verify_nilradical(span(5, [0, 1, 2]))
    # the whole algebra is not nilpotent
    assert not SOLV5.verify_nilradical(Subspace.full(5))
    # ... but a nilpotent algebra is its own nilradical
    assert HEISENBERG3.verify_nilradical(Subspace.full(3))


def test_verify_nilradical_solv2():
    assert SOLV2.verify_nilradical(span(2, [0]))
    assert not SOLV2.verify_nilradical(Subspace(2, []))
    # codimension 2: r2+r2 with [e1,e2] = e2, [e3,e4] = e4, and r2+R^2
    r2_r2 = LieAlgebra(4, {(0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]})
    assert r2_r2.verify_nilradical(span(4, [1, 3]))
    r2_abelian2 = LieAlgebra(4, {(0, 1): [0, 1, 0, 0]})
    # contains [g, g] and is nilpotent, but N = span(e2, e3, e4) is larger
    assert not r2_abelian2.verify_nilradical(span(4, [1, 2]))
    assert r2_abelian2.verify_nilradical(span(4, [1, 2, 3]))


def test_verify_nilradical_requires_solvable():
    with pytest.raises(ValueError, match="requires a solvable algebra"):
        SL2.verify_nilradical(span(3, [0]))


# oracle: nilradical_dim of NILRADICAL_CASES
KILLING_DEGENERATE6 = LieAlgebra(
    6,
    {
        (0, 4): [0, -1, 0, 0, 0, 0],
        (1, 4): [3, -2, 0, 0, 0, 0],
        (2, 4): [0, 0, 1, 0, 0, 0],
        (3, 4): [0, 0, 0, 1, 0, 0],
    },
)
R2_CUBED = LieAlgebra(
    6, {(0, 1): [1, 0, 0, 0, 0, 0], (2, 3): [0, 0, 1, 0, 0, 0], (4, 5): [0, 0, 0, 0, 1, 0]}
)
NILRADICAL_DIMS = {"killing_degenerate6": 5, "r2_cubed": 3, "solv5_moved": 4}


def test_nilradical_codim_search():
    s, codim = SOLV5.nilradical_codim_search()
    assert s == span(5, [0, 1, 2, 3])
    assert codim == 1
    s2, codim2 = SOLV2.nilradical_codim_search()
    assert (s2, codim2) == (span(2, [0]), 1)
    s3, codim3 = HEISENBERG3.nilradical_codim_search()
    assert (s3, codim3) == (Subspace.full(3), 0)
    # r2 + r2 + r2: the traces of degrees 0 and 1 leave no kernel in T
    s4, codim4 = R2_CUBED.nilradical_codim_search()
    assert s4 == span(6, [0, 2, 4]) == R2_CUBED.derived_algebra()
    assert (s4.dim, codim4) == (NILRADICAL_DIMS["r2_cubed"], 3)


def test_nilpotent_elements_subspace():
    assert SOLV2.nilradical_codim_search()[0] == span(2, [0])
    assert SOLV5.nilradical_codim_search()[0] == span(5, [0, 1, 2, 3])
    assert HEISENBERG3.nilradical_codim_search()[0] == Subspace.full(3)
    assert ABELIAN2.nilradical_codim_search()[0] == Subspace.full(2)
    with pytest.raises(ValueError, match="requires a solvable algebra"):
        SL2.nilradical_codim_search()


def test_nilradical_search_goes_past_vanishing_traces(monkeypatch):
    """tr ad e5 = K(e5, e5) = 0, so degrees 0 and 1 leave all of T = span(e5, e6)
    in the kernel; e5 is not ad-nilpotent, so words of degree 2 are needed."""
    g = LieAlgebra(KILLING_DEGENERATE6.dim, KILLING_DEGENERATE6.table)
    assert g.ad_basis(4).trace() == 0 and g.killing_matrix()[4, 4] == 0
    assert g.derived_algebra() == span(6, [0, 1, 2, 3])
    calls = _count_calls(monkeypatch, [(liealg, "_matmul")])
    nil, codim = g.nilradical_codim_search()
    assert calls["_matmul"] >= 2  # ad(T) times ad(T)
    assert nil == span(6, [0, 1, 2, 3, 5])
    assert (nil.dim, codim) == (NILRADICAL_DIMS["killing_degenerate6"], 1)


def test_nilradical_shortcut_after_base_change(monkeypatch):
    """[g, g] has codimension 1 and g is not nilpotent: N = [g, g], no word formed."""
    g = SOLV5.change_basis(_unit_bidiagonal(5))
    # the table the oracle computes for this base change
    assert g == LieAlgebra(
        5,
        {
            (0, 4): [Fraction(3, 2), 0, 0, 0, 0],
            (1, 2): [1, 0, 0, 0, 0],
            (1, 3): [2, 0, 0, 0, 0],
            (1, 4): [Fraction(1, 2), 1, 0, 0, 0],
            (2, 3): [-4, 0, 0, 0, 0],
            (2, 4): [1, -1, Fraction(1, 2), 0, 0],
            (3, 4): [2, -2, -1, 1, 0],
        },
    )
    calls = _count_calls(
        monkeypatch, [(MatrixQ, "__matmul__"), (LieAlgebra, "ad_basis"), (liealg, "_matmul")]
    )
    nil, codim = g.nilradical_codim_search()
    assert calls == {"__matmul__": 0, "ad_basis": 0, "_matmul": 0}
    assert nil is g.derived_algebra()
    assert (nil.dim, codim) == (NILRADICAL_DIMS["solv5_moved"], 1)
    for x in nil.basis:
        assert (g.ad_matrix(x) ** 5).is_zero()


def _full_closure_nilradical(g):
    """Reference: the kernel of tr(ad(x) w), w over the unital algebra
    generated by all n matrices ad(e_i), each built column by column from
    brackets.  Matrices are plain nested lists."""
    n = g.dim
    identity = [e(n, i) for i in range(n)]
    ads = [list(zip(*(g.bracket(x, y) for y in identity))) for x in identity]
    span = Subspace(n * n)
    words = [W for W in [identity, *ads] if span.add([c for row in W for c in row])]
    frontier = list(words)
    while frontier:
        fresh = [
            [[sum(a * b for a, b in zip(row, col) if a) for col in zip(*W)] for row in A]
            for W in frontier
            for A in ads
        ]
        frontier = [P for P in fresh if span.add([c for row in P for c in row])]
        words += frontier
    rows = MatrixQ(
        [
            [sum(a[p][q] * W[q][p] for p in range(n) for q in range(n) if a[p][q]) for a in ads]
            for W in words
        ]
    )
    return Subspace(n, nullspace(rows))


def _rational_base_change(n):
    """_unit_bidiagonal(n) with column j divided by j + 1: not unimodular."""
    return _unit_bidiagonal(n) @ MatrixQ.diagonal([Fraction(1, j + 1) for j in range(n)])


def test_nilradical_matches_full_closure_reference():
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::25]
    cases = []
    for entry in entries:
        for env in sample_parameters(entry, seed=1, k=1):
            g0 = instantiate(entry, env)
            cases += [(entry.id, g0), (entry.id, g0.change_basis(_unit_bidiagonal(g0.dim)))]
    # constants over a denominator > 1; KILLING_DEGENERATE6 needs words of degree 2
    for tag, g0 in (("killing_degenerate6", KILLING_DEGENERATE6), ("solv5", SOLV5),
                    ("r2_cubed", R2_CUBED)):
        g = g0.change_basis(_rational_base_change(g0.dim))
        assert g._den > 1, tag
        cases.append((tag, g))
    checked = 0
    for tag, g in cases:
        if not g.is_solvable():
            continue
        nil = g.nilradical_codim_search()[0]
        assert nil == _full_closure_nilradical(g), tag
        for x in nil.basis:
            assert (g.ad_matrix(x) ** g.dim).is_zero(), tag
        checked += 1
    assert checked == 2 * len(entries) + 3


def _ad_power_is_zero(g, z):
    """The independent criterion: ad(z)^n == 0, n = dim, as a product of matrices."""
    A = g.ad_matrix([z.get(i, 0) for i in range(g.dim)])
    power = A
    for _ in range(g.dim - 1):
        power = power @ A
    return power.is_zero()


def test_ad_nilpotent_matches_the_matrix_power(monkeypatch):
    """`_ad_nilpotent` agrees with ad(z)^n == 0 on e_n of corpus algebras after a
    unimodular base change, and on the Fraction kernel vectors that the nilradical
    search hands it; both verdicts occur in each set."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::10]
    algebras = [
        instantiate(entry, env).change_basis(_unit_bidiagonal(entry.dim))
        for entry in entries
        for env in sample_parameters(entry, seed=1, k=1)
    ]
    last = [(g, {g.dim - 1: 1}) for g in algebras]
    searched = []
    original = LieAlgebra._ad_nilpotent

    def recording(self, z):
        searched.append((self, dict(z)))
        return original(self, z)

    monkeypatch.setattr(LieAlgebra, "_ad_nilpotent", recording)
    for g0 in [*algebras, KILLING_DEGENERATE6, R2_CUBED]:
        g = g0.change_basis(_rational_base_change(g0.dim))
        if g.is_solvable():
            g.nilradical_codim_search()
    monkeypatch.undo()
    assert any(x.denominator > 1 for _, z in searched for x in z.values())
    for cases in (last, searched):
        verdicts = [g._ad_nilpotent(z) for g, z in cases]
        assert verdicts == [_ad_power_is_zero(g, z) for g, z in cases]
        assert set(verdicts) == {True, False}


def test_invariants_computed_once(monkeypatch):
    # a fresh copy, so that no earlier test has filled its caches
    g = LieAlgebra(SOLV5.dim, SOLV5.table)
    calls = []
    original = LieAlgebra._series_dims

    def counting(self, step):
        if self is g:
            calls.append(step)
        return original(self, step)

    monkeypatch.setattr(LieAlgebra, "_series_dims", counting)
    g.series_profile()
    assert g.is_solvable()
    assert not g.is_nilpotent()
    assert g.verify_nilradical(span(5, [0, 1, 2, 3]))
    # one derived and one lower central series; the restricted algebra's own
    # series are not counted
    assert len(calls) == 2
    assert g.series_profile() is g.series_profile()
    assert g.derived_algebra() is g.derived_algebra()
    assert g.nilradical_codim_search()[0] is g.nilradical_codim_search()[0]


# ----------------------------------------------------------------- base change


def _random_invertible(rng, n, max_den=2):
    while True:
        P = MatrixQ(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, max_den)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if P.rank() == n:
            return P


def test_change_basis_identity_and_roundtrip():
    rng = random.Random(1)
    P = _random_invertible(rng, 5)
    moved = SOLV5.change_basis(P)
    from lieq.linalg import solve_or_invert

    assert moved.change_basis(solve_or_invert(P)) == SOLV5
    assert SOLV5.change_basis(MatrixQ.identity(5)) == SOLV5


def test_change_basis_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        SOLV5.change_basis(MatrixQ.zeros(5, 5))
    with pytest.raises(ValueError, match="must be 5x5"):
        SOLV5.change_basis(MatrixQ.identity(4))


def test_change_basis_permutation():
    # swapping e1 and e2 in the Heisenberg table flips the sign of [e2,e3]
    P = MatrixQ([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = HEISENBERG3.change_basis(P)
    assert g == LieAlgebra(3, {(0, 2): [0, 1, 0]})
    assert g.check_jacobi() is None


def _typed_terms(terms):
    """A term table with each constant's type made visible: ints stay ints."""
    return [[tuple((k, type(c).__name__, c) for k, c in ts) for ts in row] for row in terms]


def _dense_inverse(rows):
    """The inverse of an invertible square matrix, by Gauss-Jordan on Fraction rows."""
    n = len(rows)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _reference_change_basis(g, P):
    """The dense table of P^-1 [P e_i, P e_j], in Fractions, the lcm den of its
    denominators and the typed term table of den [P e_i, P e_j], in ints."""
    n = g.dim
    rows = [list(P.row(i)) for i in range(n)]
    inv_cols, cols = list(zip(*_dense_inverse(rows))), list(zip(*rows))

    def combine(coeffs, vectors):
        return [sum((c * v[k] for c, v in zip(coeffs, vectors) if c), Fraction(0)) for k in range(n)]

    consts = [[g.structure_constant(a, b) for b in range(n)] for a in range(n)]
    # left[i][b] = [P e_i, e_b]
    left = [[combine(cols[i], [consts[a][b] for a in range(n)]) for b in range(n)] for i in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        v = combine(combine(cols[j], left[i]), inv_cols)
        if any(v):
            table[(i, j)] = tuple(v)
    den = math.lcm(*[c.denominator for v in table.values() for c in v])
    terms = [[() for _ in range(n)] for _ in range(n)]
    for (i, j), v in table.items():
        terms[i][j] = tuple((r, int(c * den)) for r, c in enumerate(v) if c)
        terms[j][i] = tuple((r, -c) for r, c in terms[i][j])
    return table, den, _typed_terms(terms)


def _base_change_cases():
    """The solv5, nilp616 and sl2 fixtures and 20 sampled corpus algebras with a
    non-integral structure constant."""
    yield from (SOLV5, NILP616, SL2)
    found = 0
    for entry in list(packaged_corpus("appendix_b.lalg"))[::7]:
        for env in sample_parameters(entry, seed=1, k=3):
            g = instantiate(entry, env)
            if found < 20 and g._den > 1:
                found += 1
                yield g
                break
    assert found == 20


def test_change_basis_matches_dense_reference():
    """change_basis gives P^-1 [P e_i, P e_j] exactly, in its table (keys in pair
    order), its denominator and its integer term table, for rational P with
    denominators up to 3 and for unimodular P."""
    from test_corpus import _unimodular

    rng = random.Random(23)
    count = 0
    for g in _base_change_cases():
        rational = [_random_invertible(rng, g.dim, max_den=3) for _ in range(4)]
        for P in rational + [_unimodular(rng, g.dim) for _ in range(2)]:
            table, den, terms = _reference_change_basis(g, P)
            moved = g.change_basis(P)
            assert moved.table == table and list(moved.table) == list(table)
            assert moved._den == den and _typed_terms(moved._terms) == terms
            count += 1
    assert count == 138


def test_change_basis_refuses_quadext():
    """A base change must be rational, refused up front even where the new
    table would be rational: Heisenberg under diag(sqrt 2, sqrt 2, 2) has
    [f2, f3] = f1, and an abelian table is the same under any P."""
    root2 = QuadExt(0, 1, 2)
    for P in (MatrixQ.diagonal([root2, root2, 2]), MatrixQ.diagonal([QuadExt(1), 1, 1])):
        for g in (HEISENBERG3, LieAlgebra(3, {})):
            with pytest.raises(TypeError, match="base change matrix must be rational, not QuadExt"):
                g.change_basis(P)


def test_integral_tables_built_without_fraction_arithmetic(monkeypatch):
    """instantiate of a parameter-free corpus entry and change_basis by an
    integer P on an integral table make the term table from ints only."""
    (entry,) = [
        e for e in packaged_corpus("appendix_b.lalg") if e.dim == 7 and not e.params
    ][:1]
    g = instantiate(entry, {})
    P = _unit_bidiagonal(7)
    assert all(type(c) is int for row in g._terms for ts in row for _, c in ts)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda x, y, op=op, name=name: calls.append(name) or op(x, y)
        )
    moved = instantiate(entry, {}).change_basis(P)
    monkeypatch.undo()
    assert calls == []
    assert moved == g.change_basis(P) and moved.table


@pytest.mark.parametrize("tag", ["solv5", "nilp616", "sl2"])
def test_invariants_under_random_base_change(tag):
    g = FIXTURES[tag]
    expected_profile = g.series_profile()
    expected_center = g.center().dim
    expected_killing = g.killing_matrix().rank()
    if expected_profile.solvable:
        expected_nilradical = g.nilradical_codim_search()[0].dim
        expected_derivations = derivation_basis(g).dim
    rng = random.Random(1)
    for _ in range(N_RANDOM_BASE_CHANGES):
        moved = g.change_basis(_random_invertible(rng, g.dim))
        assert moved.check_jacobi() is None
        assert moved.series_profile() == expected_profile
        assert moved.center().dim == expected_center
        assert moved.killing_matrix().rank() == expected_killing
        if expected_profile.solvable:
            assert moved.nilradical_codim_search()[0].dim == expected_nilradical
            assert derivation_basis(moved).dim == expected_derivations


# ------------------------------------------------------------------- subspaces


def test_subspace_coordinates_and_membership():
    s = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    assert s.dim == 2
    assert s.contains_vector([2, 2, 5])
    assert s.coordinates([2, 2, 5]) == (2, 5)
    assert s.coordinates([1, 0, 0]) is None
    assert not s.contains_vector([1, 0, 0])
    # entries are exact scalars, as `_sparse` takes them: a float is rejected
    with pytest.raises(TypeError):
        Subspace(3, [[0.5, 0, 0]])
    with pytest.raises(TypeError):
        s.coordinates([0.5, 0.5, 0])


def test_algebra_entry_points_refuse_floats():
    # the table, bracket and ad_matrix take exact rationals only: int,
    # Fraction or str; a float or a QuadExt (even a rational one) is refused
    with pytest.raises(TypeError, match="float"):
        LieAlgebra(2, {(0, 1): [0.5, 0]})
    with pytest.raises(TypeError, match="QuadExt"):
        LieAlgebra(2, {(0, 1): [QuadExt(1, 1, 2), 0]})
    g = LieAlgebra(2, {(0, 1): ["1/2", 0]})
    assert g.structure_constant(0, 1) == (Fraction(1, 2), 0)
    with pytest.raises(TypeError, match="float"):
        g.bracket([0.1, 0], [0, 1])
    with pytest.raises(TypeError, match="QuadExt"):
        g.bracket([QuadExt(1), 0], [0, 1])
    with pytest.raises(TypeError, match="float"):
        g.ad_matrix([0.1, 0])
    assert g.bracket([2, 0], [0, Fraction(1, 3)]) == (Fraction(1, 3), 0)


def test_subspace_canonical_equality():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[1, 1, 1], [0, 0, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace(3, [[1, 0, 0], [0, 0, 1]])


def test_subspace_full_and_empty():
    assert Subspace.full(3).dim == 3
    assert Subspace(3, []).dim == 0


_SPAN_ENTRIES = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-3, 3, max_denominator=4),
    # rational spans given over Q(sqrt d): stored divided by the pivot, not as integer rows
    "rational_quadext": st.builds(QuadExt, st.fractions(-3, 3, max_denominator=4)),
}


def _rational(x):
    return x.as_fraction() if isinstance(x, QuadExt) else Fraction(x)


def _dense_rank(rows, n):
    """Rank over Q by dense Gaussian elimination, independent of Subspace."""
    m = [[_rational(x) for x in r] for r in rows]
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("kind", sorted(_SPAN_ENTRIES))
@seed(11)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subspace_equality_is_span_equality(kind, data):
    """Two generating sets of one span give == subspaces with equal hashes,
    whatever the entry type; subspaces of different spans are not ==."""
    n = data.draw(st.integers(1, 5))
    vec = st.lists(_SPAN_ENTRIES[kind], min_size=n, max_size=n)
    gens = data.draw(st.lists(vec, max_size=4))
    a = Subspace(n, gens)
    # generator i scaled by a nonzero integer plus integer multiples of earlier
    # ones, then integer combinations of all: the same span, other rows
    regen = []
    for i, v in enumerate(gens):
        c = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        ds = data.draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
        regen.append([c * x + sum(d * w[k] for d, w in zip(ds, gens)) for k, x in enumerate(v)])
    for _ in range(data.draw(st.integers(0, 2))):
        ds = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        regen.append([sum((d * w[k] for d, w in zip(ds, gens)), 0) for k in range(n)])
    b = Subspace(n, data.draw(st.permutations(regen)))
    plain = Subspace(n, [[_rational(x) for x in v] for v in gens])
    for same in (b, plain):
        assert a == same and same == a
        assert hash(a) == hash(same)
    other_gens = data.draw(st.lists(vec, max_size=4))
    other = Subspace(n, other_gens)
    r = _dense_rank(gens, n)
    equal = r == _dense_rank(other_gens, n) == _dense_rank(gens + other_gens, n)
    assert (a == other) == equal
    assert (a != other) == (not equal)
    if equal:
        assert hash(a) == hash(other)
    assert a.dim == r


def _fractions_only(values):
    return all(type(x) is Fraction for x in values)


def test_public_readers_return_fractions():
    """The term table holds integral constants as int; nothing public does."""
    # the Heisenberg algebra [e2, e3] = e1 extended by e4 acting as diag(2, 1, 1)
    g = LieAlgebra(
        4, {(1, 2): [1, 0, 0, 0], (0, 3): [-2, 0, 0, 0], (1, 3): [0, -1, 0, 0], (2, 3): [0, 0, -1, 0]}
    )
    assert any(type(c) is int for row in g._terms for ts in row for _, c in ts)
    n = g.dim
    assert all(_fractions_only(g.structure_constant(i, j)) for i in range(n) for j in range(n))
    assert _fractions_only(g.bracket([1, 1, 0, 0], [0, 0, 0, 3]))
    assert _fractions_only(g.bracket([0, 1, 0, 0], [0, 0, 1, 0]))  # a zero bracket
    violation = LieAlgebra(3, {(0, 1): [0, 0, 2], (0, 2): [1, 0, 0]}).check_jacobi()
    assert violation is not None and _fractions_only(violation.residual)
    # stored as the integer rows e1, 2e2 + e3 and e4: a pivot entry of 2
    s = Subspace(n, [[3, 0, 0, 0], [0, 1, Fraction(1, 2), 0], [0, 0, 0, 2]])
    assert all(_fractions_only(v) for v in s.basis)
    inner = g.restrict(s)
    assert inner == LieAlgebra(3, {(0, 2): [-2, 0, 0], (1, 2): [0, -1, 0]})
    assert all(_fractions_only(v) for v in inner.table.values())
    assert all(_fractions_only(inner.structure_constant(i, j)) for i in range(3) for j in range(3))
    moved = g.change_basis(_unit_bidiagonal(n))
    assert moved.table and all(_fractions_only(v) for v in moved.table.values())
    assert all(_fractions_only(g.ad_basis(i).flat()) for i in range(n))
    assert _fractions_only(g.ad_matrix([1, 0, 2, 1]).flat())
    assert _fractions_only(g.ad_matrix([0, 0, 0, 0]).flat())
    assert _fractions_only(g.killing_matrix().flat())
    assert all(_fractions_only(v) for v in g.center().basis)


def _input_constants(n, table):
    """c[i][j] = [e_i, e_j] as a list of Fractions, read straight off a table of
    pairs i < j, with no LieAlgebra involved."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in table.items():
        c[i][j] = [Fraction(x) for x in v]
        c[j][i] = [-x for x in c[i][j]]
    return c


def _input_jacobi(n, nonzero):
    """The first triple i < j < k where the Jacobi identity fails, and its residual,
    from nonzero[i][j], the (k, c_ij^k) with c_ij^k nonzero."""
    for i, j, k in combinations(range(n), 3):
        res = [Fraction(0)] * n
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for l, a in nonzero[p][q]:
                for m, b in nonzero[l][r]:
                    res[m] += a * b
        if any(res):
            return JacobiViolation(i, j, k, tuple(res))
    return None


def _assert_readers_match_input(g, table):
    """table, structure_constant, bracket, ad_basis, ad_matrix, killing_matrix and the
    Jacobi residual of g against values computed from its input table alone."""
    n = g.dim
    c = _input_constants(n, table)
    nonzero = [[[(l, a) for l, a in enumerate(v) if a] for v in row] for row in c]
    assert g.table == {ij: tuple(c[ij[0]][ij[1]]) for ij in table if any(c[ij[0]][ij[1]])}
    for i in range(n):
        assert g.ad_basis(i).flat() == tuple(c[i][q][p] for p in range(n) for q in range(n))
        for j in range(n):
            assert g.structure_constant(i, j) == tuple(c[i][j])
    x, y = [Fraction(k + 1, 2) for k in range(n)], [Fraction(1, n - k + 1) for k in range(n)]
    expected = [Fraction(0)] * n
    for i, j in product(range(n), repeat=2):
        for k, a in nonzero[i][j]:
            expected[k] += x[i] * y[j] * a
    assert g.bracket(x, y) == tuple(expected)
    ad_x = [sum((x[i] * c[i][q][p] for i in range(n)), Fraction(0)) for p in range(n) for q in range(n)]
    assert g.ad_matrix(x).flat() == tuple(ad_x)
    killing = [
        sum((a * c[j][l][k] for k in range(n) for l, a in nonzero[i][k]), Fraction(0))
        for i in range(n) for j in range(n)
    ]
    assert g.killing_matrix().flat() == tuple(killing)
    assert g.check_jacobi() == _input_jacobi(n, nonzero)


# hand-written tables in pair order, with mixed denominators; the last is not Lie
FRACTIONAL_TABLES = [
    (2, {(0, 1): [Fraction(1, 2), Fraction(-2, 3)]}),
    (
        4,
        {
            (0, 1): [0, 0, Fraction(3, 4), 0],
            (0, 3): [Fraction(-1, 6), 0, 0, 0],
            (1, 3): [0, Fraction(5, 2), 0, 0],
            (2, 3): [0, 0, Fraction(7, 3), 0],
        },
    ),
    (3, {(0, 1): [0, 0, Fraction(2, 5)], (0, 2): [Fraction(1, 3), 0, 0], (1, 2): [0, Fraction(-1, 4), 1]}),
]


def test_public_readers_match_input_on_non_integral_tables():
    """Every public reader of a non-integral table gives the value computed from
    the input alone, for hand-written tables and for the 683 corpus algebras at
    sample_parameters(seed=1, k=3) with a non-integral constant; equal tables
    compare equal however the algebra was built, and one changed denominator
    makes them differ."""
    for n, table in FRACTIONAL_TABLES:
        g = LieAlgebra(n, table)
        _assert_readers_match_input(g, table)
        assert list(g.table) == [ij for ij in table if any(table[ij])]
        assert g == g.restrict(Subspace.full(n)) == g.change_basis(MatrixQ.identity(n))
    assert LieAlgebra(*FRACTIONAL_TABLES[2]).check_jacobi() is not None
    count = 0
    for entry in list(packaged_corpus("appendix_a.lalg")) + list(packaged_corpus("appendix_b.lalg")):
        for env in sample_parameters(entry, seed=1, k=3):
            table = {
                (i - 1, j - 1): [poly.evaluate(env) for poly in coeffs]
                for i, j, coeffs in sorted(entry.brackets, key=lambda b: b[:2])
            }
            if all(Fraction(x).denominator == 1 for v in table.values() for x in v):
                continue
            g = instantiate(entry, env)
            _assert_readers_match_input(g, table)
            n = entry.dim
            assert g == LieAlgebra(n, table) == g.restrict(Subspace.full(n))
            assert g == g.change_basis(MatrixQ.identity(n)), entry.id
            count += 1
    assert count == 683
    half = LieAlgebra(3, {(0, 1): [0, 0, Fraction(1, 2)], (0, 2): [0, Fraction(1, 3), 0]})
    for other in (
        LieAlgebra(3, {(0, 1): [0, 0, Fraction(1, 4)], (0, 2): [0, Fraction(1, 3), 0]}),
        LieAlgebra(3, {(0, 1): [0, 0, Fraction(1, 2)], (0, 2): [0, Fraction(1, 9), 0]}),
        LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, Fraction(1, 3), 0]}),
    ):
        assert half != other and other != half
    # one constant each, so only the denominator tells the integer tensors apart
    one_half, one_third = ({(0, 1): [Fraction(1, d), 0]} for d in (2, 3))
    assert LieAlgebra(2, one_half) != LieAlgebra(2, one_third)
    assert half == LieAlgebra(3, {(0, 2): [0, Fraction(2, 6), 0], (0, 1): [0, 0, Fraction(3, 6)]})


# ------------------------------------------------------- frozen invariant digests


def _invariant_line(g):
    """The nilradical (basis, codim), centre basis and Killing matrix of g, as text."""
    nil, codim = g.nilradical_codim_search() if g.is_solvable() else (None, None)
    basis = None if nil is None else nil.basis
    return f"{basis!r}|{codim}|{g.center().basis!r}|{g.killing_matrix()}"


def test_nilradical_center_killing_digest_frozen():
    """sha256 over the nilradical, centre and Killing matrix of every appendix
    A and B entry at sample_parameters(seed=3, k=4), as given and after a
    seeded unimodular base change: 4,078 algebras.  Reduced echelon bases are
    unique, so any exact method must reproduce these bytes."""
    from test_corpus import _unimodular

    rng = random.Random(13)
    digest = hashlib.sha256()
    count = 0
    for entry in list(packaged_corpus("appendix_a.lalg")) + list(packaged_corpus("appendix_b.lalg")):
        for env in sample_parameters(entry, seed=3, k=4):
            g = instantiate(entry, env)
            moved = g.change_basis(_unimodular(rng, g.dim))
            digest.update(f"{entry.id}|{_invariant_line(g)}|{_invariant_line(moved)}\n".encode())
            count += 2
    assert count == 4078
    assert digest.hexdigest() == (
        "3e67e3612d416aab18f41ede13d77a2eb503253c70087502ccd820feab2fc4ef"
    )


def _direct_sum(*parts):
    """The direct sum of the algebras in parts, each on its own block of the basis."""
    n = sum(g.dim for g in parts)
    table, offset = {}, 0
    for g in parts:
        pad = (0,) * offset, (0,) * (n - offset - g.dim)
        for (i, j), v in g.table.items():
            table[(offset + i, offset + j)] = pad[0] + tuple(v) + pad[1]
        offset += g.dim
    return LieAlgebra(n, table)


MAX_SUM_DIM = 7


def _random_direct_sums(seed, count):
    """Seeded direct sums of two or three corpus algebras or abelian R^k, of
    total dimension at most 7, each after a unimodular base change."""
    from test_corpus import _unimodular

    rng = random.Random(seed)
    small = [
        entry
        for name in ("appendix_a.lalg", "appendix_b.lalg")
        for entry in packaged_corpus(name)
        if entry.dim <= 5
    ]
    for _ in range(count):
        parts = []
        while len(parts) < rng.choice((2, 3)):
            room = MAX_SUM_DIM - sum(g.dim for g in parts)
            fits = [entry for entry in small if entry.dim <= room]
            if not fits:
                break
            if rng.random() < 0.2:
                parts.append(LieAlgebra(rng.randint(1, min(2, room)), {}))
                continue
            entry = rng.choice(fits)
            env = rng.choice(sample_parameters(entry, seed=rng.randint(1, 9), k=2))
            parts.append(instantiate(entry, env))
        g = _direct_sum(*parts)
        yield g.change_basis(_unimodular(rng, g.dim))


def test_direct_sum_invariant_digest_frozen():
    """The digest of `_invariant_line` over 400 seeded direct sums of corpus
    algebras after a unimodular base change, nilradical codims 0 to 3."""
    digest = hashlib.sha256()
    codims = set()
    for g in _random_direct_sums(seed=17, count=400):
        digest.update(f"{g.dim}|{_invariant_line(g)}\n".encode())
        codims.add(g.nilradical_codim_search()[1])
    assert codims == {0, 1, 2, 3}
    assert digest.hexdigest() == (
        "5ed2d3c80c1b41ceebd1a8911bbbf9c3edd6593638ff7c5b12a26bd9fecfc0db"
    )
