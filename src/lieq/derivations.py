"""Derivation algebras, automorphism checks, and representation comparisons.

The Leibniz system of a structure-constant Lie algebra, in the n^2 matrix
unknowns, is read by columns off the integer structure tensor: one sparse
column per unknown (`_leibniz_cols`).  The derivation algebra is the exact
nullspace of that system, its dimension n^2 minus the system's rank (the
forward-only `linalg._rank`, with no reduced form), and a single matrix is a
derivation when its entries combine the columns to zero.  A matrix is an
automorphism when base change by it leaves the structure constants fixed.
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
from .linalg import MatrixQ, _kernel, _rank, matrix_exp_nilpotent, solve_linear

# the invertible-intertwiner search enumerates an integer coefficient grid
# exhaustively when it is no larger than this; for bigger intertwiner spaces
# it falls back to a fixed number of seeded random coefficient draws
INTERTWINER_GRID_BUDGET = 100_000
INTERTWINER_RANDOM_TRIALS = 300


@dataclass(frozen=True)
class DerivationBasis:
    """Reduced-echelon (so deterministic) basis of the derivation algebra of one algebra."""

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


def _leibniz_cols(g: LieAlgebra) -> List[Dict[int, int]]:
    """The Leibniz system D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] of g, by columns.

    Column p*n+q belongs to the unknown D_pq, the (p, q) entry as in `MatrixQ.flat`;
    equation (i, j, k), i < j, coordinate k of e_k, is row (i*n+j)*n+k.  Column
    (p, q) holds c_ij^q at row (i, j, p) for each pair with q in [e_i, e_j], and
    -c_pj^k at row (q, j, k) for j > q, +c_pj^k at row (j, q, k) for j < q.  Each
    column is {row: coefficient} with zeros left out, read off the integer term
    table of g; its common scale g._den leaves the solutions alone.
    """
    n, terms = g.dim, g._terms
    lhs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # q -> (row of (i, j, 0), c_ij^q)
    for i, j in combinations(range(n), 2):
        for q, c in terms[i][j]:
            lhs[q].append(((i * n + j) * n, c))
    cols: List[Dict[int, int]] = []
    for p in range(n):
        tp = terms[p]
        for q in range(n):
            col = {}
            for j in range(n):
                if j != q and tp[j]:
                    base, s = ((q * n + j) * n, -1) if j > q else ((j * n + q) * n, 1)
                    col.update((base + k, s * c) for k, c in tp[j])
            for base, c in lhs[q]:
                r = base + p
                x = col.get(r, 0) + c
                if x:
                    col[r] = x
                else:
                    del col[r]
            cols.append(col)
    return cols


def derivation_basis(g: LieAlgebra) -> DerivationBasis:
    """The exact nullspace of the Leibniz system of g, as n x n matrices."""
    n = g.dim
    rows: Dict[int, Dict[int, int]] = {}
    for u, col in enumerate(_leibniz_cols(g)):
        for r, c in col.items():
            rows.setdefault(r, {})[u] = c
    return DerivationBasis(n, tuple(_square(v, n) for v in _kernel(n * n, rows.values())))


def _derivation_dim(g: LieAlgebra) -> int:
    """dim Der(g): n^2 minus the rank of the Leibniz columns of g."""
    return g.dim * g.dim - _rank(_leibniz_cols(g))


def is_derivation(g: LieAlgebra, D: MatrixQ) -> bool:
    """True iff the entries d_u of D satisfy the Leibniz system of g: sum d_u col_u = 0."""
    if D.shape() != (g.dim, g.dim):
        raise ValueError(f"derivation candidate must be {g.dim}x{g.dim}")
    acc: Dict[int, Fraction] = {}
    for d, col in zip(D.flat(), _leibniz_cols(g)):
        if d:
            for r, c in col.items():
                acc[r] = acc.get(r, 0) + c * d
    return not any(acc.values())


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
