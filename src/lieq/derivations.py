"""Derivation algebras, automorphism checks, and representation comparisons.

The derivation algebra of a structure-constant Lie algebra is computed as the
exact nullspace of the Leibniz system in the n^2 matrix unknowns; a single
matrix is a derivation when it satisfies every row of that same system, and
an automorphism when base change by it leaves the structure constants fixed.
Companion helpers exponentiate nilpotent derivations, check explicit matrix
families against the bracket relations of a `LieAlgebra`, and decide
equivalence of matrix representations via the intertwiner space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .liealg import LieAlgebra
from .linalg import Echelon, MatrixQ, _kernel, matrix_exp_nilpotent, solve_linear

# the invertible-intertwiner search enumerates an integer coefficient grid
# exhaustively when it is no larger than this; for bigger intertwiner spaces
# it falls back to a fixed number of seeded random coefficient draws
INTERTWINER_GRID_BUDGET = 100_000
INTERTWINER_RANDOM_TRIALS = 300


@dataclass(frozen=True)
class DerivationBasis:
    """Echelon-deterministic basis of the derivation algebra of one algebra."""

    algebra_dim: int
    basis: Tuple[MatrixQ, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, M: MatrixQ) -> bool:
        """Exact membership of M in the computed span, decided by coordinates()."""
        return self.coordinates(M) is not None

    def coordinates(self, M: MatrixQ) -> Optional[Tuple[Fraction, ...]]:
        """Coefficients of M over the listed basis, or None when outside."""
        if M.shape() != (self.algebra_dim, self.algebra_dim):
            return None
        if not self.basis:
            return () if M.is_zero() else None
        cols = MatrixQ(list(zip(*(D.flat() for D in self.basis))))
        return solve_linear(cols, M.flat())


def _square(v: Sequence, n: int) -> MatrixQ:
    """The n x n matrix with v[p*n+q] at (p, q): a kernel vector of n^2 matrix unknowns."""
    return MatrixQ([v[p * n:(p + 1) * n] for p in range(n)])


def _leibniz_rows(g: LieAlgebra) -> List[Dict[int, int]]:
    """Rows of D[e_i,e_j] = [De_i,e_j] + [e_i,De_j], one per i < j and coordinate k.

    The unknowns are the n^2 entries of D, (p,q) at index p*n+q as in `MatrixQ.flat`.
    Each row is {unknown: coefficient} with zeros left out, read off the integer
    term table of g; its common scale g._den leaves the solutions alone.  Rows
    that vanish are dropped.
    """
    n, terms = g.dim, g._terms
    rows: List[Dict[int, int]] = []
    for i, j in combinations(range(n), 2):
        block = [{k * n + q: c for q, c in terms[i][j]} for k in range(n)]
        for p in range(n):
            for u, ts in ((p * n + i, terms[p][j]), (p * n + j, terms[i][p])):
                for k, c in ts:
                    block[k][u] = block[k].get(u, 0) - c
        rows += filter(None, ({u: c for u, c in r.items() if c} for r in block))
    return rows


def derivation_basis(g: LieAlgebra) -> DerivationBasis:
    """The exact nullspace of the Leibniz system of g, as n x n matrices."""
    n = g.dim
    return DerivationBasis(n, tuple(_square(v, n) for v in _kernel(n * n, _leibniz_rows(g))))


def _derivation_dim(g: LieAlgebra) -> int:
    """dim Der(g): n^2 minus the rank of the Leibniz rows of g, added sparse rows first."""
    n = g.dim
    ech = Echelon(n * n)
    for w in sorted(_leibniz_rows(g), key=len):
        ech._add(w)
    return n * n - len(ech.pivots())


def is_derivation(g: LieAlgebra, D: MatrixQ) -> bool:
    """True iff the entries of D satisfy every row of the Leibniz system of g."""
    if D.shape() != (g.dim, g.dim):
        raise ValueError(f"derivation candidate must be {g.dim}x{g.dim}")
    d = D.flat()
    return all(sum(c * d[u] for u, c in row.items()) == 0 for row in _leibniz_rows(g))


def is_automorphism(g: LieAlgebra, A: MatrixQ) -> bool:
    """True iff A is invertible and A[x,y] = [Ax,Ay], i.e. g.change_basis(A) == g."""
    if A.shape() != (g.dim, g.dim):
        raise ValueError(f"automorphism candidate must be {g.dim}x{g.dim}")
    try:
        return g.change_basis(A) == g
    except ValueError:  # singular: the shape is checked above
        return False


def exp_derivation(g: LieAlgebra, D: MatrixQ) -> MatrixQ:
    """exp(D) for a nilpotent derivation D; the result is an automorphism."""
    if not is_derivation(g, D):
        raise ValueError("matrix is not a derivation of the algebra")
    return matrix_exp_nilpotent(D)


@dataclass(frozen=True)
class TableMismatch:
    i: int
    j: int
    expected: MatrixQ
    actual: MatrixQ


def check_bracket_table(mats: Sequence[MatrixQ], g: LieAlgebra) -> Optional[TableMismatch]:
    """None when the family satisfies the brackets of g; else the first mismatch.

    The expected relations come from the structure constants of g:
    [M_i, M_j] = sum over k of c_ij^k M_k, checked for i < j in
    lexicographic order, so the family must have g.dim members.
    """
    if len(mats) != g.dim:
        raise ValueError(f"expected {g.dim} matrices, got {len(mats)}")
    n = mats[0].nrows
    for M in mats:
        if M.shape() != (n, n):
            raise ValueError("matrices must be square and of equal size")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            actual = mats[i] @ mats[j] - mats[j] @ mats[i]
            terms = enumerate(g.structure_constant(i, j))
            expected = sum((mats[k] * c for k, c in terms if c), MatrixQ.zeros(n, n))
            if actual != expected:
                return TableMismatch(i, j, expected, actual)
    return None


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an intertwiner search between two matrix families.

    intertwiner is an invertible T with T A_i = B_i T when one was found.
    certain is True exactly when the answer is definitive: a witness was
    found, or none can exist (see `representation_equivalence`).
    """

    intertwiner: Optional[MatrixQ]
    certain: bool
    nullspace_dim: int

    @property
    def equivalent(self) -> Optional[bool]:
        if self.intertwiner is not None:
            return True
        return False if self.certain else None


def representation_equivalence(
    A: Sequence[MatrixQ], B: Sequence[MatrixQ]
) -> EquivalenceResult:
    """Search {T : T A_i = B_i T for all i} for an invertible element.

    The intertwiner space is solved exactly; the invertible-element search
    runs over small integer coefficient grids and is deterministic.  The
    answer is a certain negative when the space is {0}, when rank A_i !=
    rank B_i for some i, or when the whole grid holds no invertible element;
    it is undetermined (certain = False) only when random draws replace a
    grid over the budget and find none.
    """
    if len(A) != len(B):
        raise ValueError(f"family sizes differ: {len(A)} vs {len(B)}")
    if not A:
        raise ValueError("need at least one matrix per family")
    n = A[0].nrows
    for M in list(A) + list(B):
        if M.shape() != (n, n):
            raise ValueError("matrices must be square and of equal size")
    rows: List[Dict[int, Fraction]] = []  # entry (p, q) of T A = B T, T[p][r] at p*n+r
    for MA, MB in zip(A, B):
        for p, q in product(range(n), repeat=2):
            row: Dict[int, Fraction] = {}
            for r in range(n):
                row[p * n + r] = row.get(p * n + r, 0) + MA[(r, q)]
                row[r * n + q] = row.get(r * n + q, 0) - MB[(p, r)]
            rows.append({u: c for u, c in row.items() if c})
    kernel = _kernel(n * n, rows)
    d = len(kernel)
    if d == 0 or any(MA.rank() != MB.rank() for MA, MB in zip(A, B)):
        return EquivalenceResult(None, True, d)
    basis = [_square(v, n) for v in kernel]
    # grid values: det(sum c_k T_k) has degree <= n in each c_k, so with n + 1
    # values per coordinate one that vanishes on the whole grid vanishes identically
    values: List[Fraction] = [Fraction(0)]
    step = 1
    while len(values) <= n:
        values += [Fraction(step), Fraction(-step)]
        step += 1
    exhaustive = len(values) ** d <= INTERTWINER_GRID_BUDGET
    if exhaustive:
        candidates = product(values, repeat=d)
    else:
        rng = random.Random(0)
        candidates = (
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
            for _ in range(INTERTWINER_RANDOM_TRIALS)
        )
    for coeffs in candidates:
        if all(c == 0 for c in coeffs):
            continue
        T = MatrixQ.zeros(n, n)
        for c, Tk in zip(coeffs, basis):
            if c != 0:
                T = T + Tk * c
        if T.rank() == n:
            return EquivalenceResult(T, True, d)
    return EquivalenceResult(None, exhaustive, d)
