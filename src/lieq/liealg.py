"""Finite-dimensional Lie algebras over Q given by structure constants.

A `LieAlgebra` stores its structure constants once, as a sparse integer
tensor over one positive denominator `_den`, the lcm of the constants'
denominators: for every ordered pair (i, j), `_terms[i][j]` holds the nonzero
terms (k, _den c_ij^k) of [e_i, e_j], signs already applied for j < i, every
one an `int`.  Everything else (Jacobi checking, adjoint matrices, series,
centers, ideals, nilradical checks, base change, and `table`, the dense dict
of the brackets for i < j) is derived from it with exact arithmetic, and
every internal computation runs on it in integers.

A common scale changes no subspace, so series, centre, closure and ideal tests
and the nilradical's words and trace rows run on the integer tensor as it is.
`MatrixQ` and `Fraction` appear only at the public boundary, where readers
that return values divide once: `structure_constant`, `bracket`, `ad_basis`
and `ad_matrix` by `_den`, the Jacobi residual and the Killing form by _den^2;
`restrict` and `change_basis` fold it into their own denominators and hand the
constructor exact terms.  The tensor is built from exact terms by
`LieAlgebra._of_terms`, the one entry point for `Fraction` terms, and from
integers by `LieAlgebra._of_ints`.  Only the public constructor checks each
entry (`_vec`): `change_basis` and `restrict` make exact terms from integer
rows, one Fraction per constant, and `corpus.instantiate` hands the integer
tensor of its parsed polynomials' values straight to `_of_ints`.  Brackets run
over the nonzero coordinates of their arguments only.  The Jacobi check, the
centre (one sparse row {i: c_ij^k} per (j, k)) and the Killing form (sum of
c_ik^l c_jl^k) contract the tensor directly, without forming any bracket or
adjoint matrix.

The nilradical search forms no matrix when [g, g] has codimension 1: N is
then [g, g] unless g is nilpotent.  Otherwise it grows words in ad(T), T the
basis vectors off the pivots of [g, g], as products (`linalg._matmul`) of the
integer rows of _den ad(e_i), only until the trace functionals they give cut
out a kernel in T whose basis vectors are all ad-nilpotent.  That kernel
contains N meet T because the functionals vanish on N, and lies in N because N
is the set of ad-nilpotent elements, so the answer is certified from both
sides and is exact.

Subspaces are `linalg.Subspace`, the package's one span type, re-exported
here: its stored sparse rows are primitive integer rows over Q.  Series,
derived algebras, ideal and nilradical tests and restrictions bracket those
rows (`Subspace._pivot_rows`) as {index: value} maps from end to end, and
hand the brackets back to `Subspace._spanned` as they are; dense `Fraction`
vectors are built only where they leave the module: `Subspace.basis` (on first
read), `coordinates`, `bracket`, `structure_constant` and `table`.

An algebra caches its invariants on first use: the result of `check_jacobi`,
its series profile, [g, g] and its nilradical.  No method changes an algebra's
table, and what it caches is a function of the table, so sharing one algebra
between callers is safe.

Dimension is capped at `MAX_DIM` (7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import MAX_DIM, MatrixQ, Subspace, _as_rational, _int_rows, _inverse, _kernel, _matmul, _same_ambient


def _vec(entries: Sequence, n: int) -> Tuple[Fraction, ...]:
    out = tuple(x if isinstance(x, Fraction) else _as_rational(x) for x in entries)
    if len(out) != n:
        raise ValueError(f"coefficient vector of length {len(out)}, expected {n}")
    return out


def _nonzero(v: Sequence) -> List[Tuple[int, Fraction]]:
    """The (index, value) pairs of the nonzero coordinates of v."""
    return [(i, a) for i, a in enumerate(v) if a]


def _dense(w: Iterable[Tuple[int, object]], n: int, den: int) -> Tuple[Fraction, ...]:
    """The length-n vector of the sparse terms (k, x) over den, every entry a Fraction."""
    out = [Fraction(0)] * n
    for k, x in w:
        out[k] = Fraction(x, den)
    return tuple(out)


@dataclass(frozen=True)
class SeriesProfile:
    """Dimension profiles of the derived and lower central series.

    Each list records the dimensions of successive terms after the algebra
    itself, stopping once a term vanishes or repeats its predecessor (the
    stable value is recorded once).
    """

    derived_dims: Tuple[int, ...]
    lcs_dims: Tuple[int, ...]
    solvable: bool
    nilpotent: bool


#: `LieAlgebra._jacobi` before the first `check_jacobi`, whose result may be None
_UNCHECKED = object()


@dataclass(frozen=True)
class JacobiViolation:
    i: int
    j: int
    k: int
    residual: Tuple[Fraction, ...]


class LieAlgebra:
    """Lie algebra on basis e_1..e_n given by brackets [e_i, e_j] for i < j.

    Table entries and the vectors passed to `bracket` and `ad_matrix` are
    exact rationals (int, Fraction or str); a float or a QuadExt is a
    TypeError.  `change_basis`, `restrict` and `instantiate` skip that check
    (`_of_terms`, `_of_ints`).
    """

    __slots__ = (
        "dim", "_den", "_terms", "_jacobi", "_profile", "_derived", "_nilradical",
    )

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Sequence]):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        for i, j in table:
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices ({i + 1},{j + 1}) out of range for dim {dim}")
        self._set_terms(dim, {ij: _nonzero(_vec(coeffs, dim)) for ij, coeffs in table.items()})

    @classmethod
    def _of_terms(cls, dim: int, terms: Dict[Tuple[int, int], list]) -> "LieAlgebra":
        """The algebra of the terms {(i, j): [(k, c_ij^k), ...]}, unchecked: 1 <= dim <=
        MAX_DIM, i < j < dim, k increasing below dim, each c a nonzero int or Fraction."""
        return cls.__new__(cls)._set_terms(dim, terms)

    @classmethod
    def _of_ints(cls, dim: int, den: int, terms: Dict[Tuple[int, int], list]) -> "LieAlgebra":
        """The algebra of the integer tensor {(i, j): [(k, den c_ij^k), ...]} over den,
        unchecked as `_of_terms`: each value a nonzero int, den > 0 the lcm of the
        constants' denominators."""
        return cls.__new__(cls)._store(dim, den, terms)

    def _set_terms(self, dim: int, terms: Dict[Tuple[int, int], list]) -> "LieAlgebra":
        """Store the constants as one integer tensor over one denominator.

        _den is the lcm of the constants' denominators, 1 for an integral table,
        and _terms[i][j] holds the nonzero (k, _den c_ij^k) of [e_i, e_j] in both
        orders, every one an int.
        """
        den = math.lcm(*[c.denominator for ts in terms.values() for _, c in ts])
        return self._store(dim, den, {ij: [(k, c.numerator * (den // c.denominator)) for k, c in ts]
                                      for ij, ts in terms.items()})

    def _store(self, dim: int, den: int, terms: Dict[Tuple[int, int], list]) -> "LieAlgebra":
        """Keep the integer tensor {(i, j): [(k, den c_ij^k), ...]}, i < j, as _terms in
        both orders over _den = den, and clear the cached invariants."""
        self.dim, self._den = dim, den
        full: List[List[Tuple[Tuple[int, int], ...]]] = [[()] * dim for _ in range(dim)]
        for (i, j), ts in terms.items():
            full[i][j] = tuple(ts)
            full[j][i] = tuple((k, -c) for k, c in ts)
        self._terms = full
        # invariants (the Jacobi check, a series profile, [g, g], the nilradical), each
        # computed on first use
        self._jacobi = _UNCHECKED
        self._profile = self._derived = self._nilradical = None
        return self

    def structure_constant(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """[e_i, e_j] as a coefficient vector, any order of indices in 0..n-1."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index pair ({i}, {j}) outside 0..{self.dim - 1}")
        return _dense(self._terms[i][j], self.dim, self._den)

    @property
    def table(self) -> Dict[Tuple[int, int], Tuple[Fraction, ...]]:
        """The nonzero brackets [e_i, e_j], i < j, as Fraction vectors in pair order.

        Built from the term table on each read, so the dict is the caller's own.
        """
        pairs = combinations(range(self.dim), 2)
        return {(i, j): self.structure_constant(i, j) for i, j in pairs if self._terms[i][j]}

    def bracket(self, x: Sequence, y: Sequence) -> Tuple[Fraction, ...]:
        """[x, y] = sum of x_i y_j [e_i, e_j] over nonzero x_i and y_j only.

        Each [e_i, e_j] is read from the term table, so a pair costs one
        multiply per nonzero structure constant and pairs with a zero
        coordinate cost nothing.
        """
        xv, yv = _vec(x, self.dim), _vec(y, self.dim)
        return _dense(self._bracket_terms(_nonzero(xv), _nonzero(yv)).items(), self.dim, self._den)

    def _bracket_terms(
        self, xs: Iterable[Tuple[int, Fraction]], ys: Collection[Tuple[int, Fraction]]
    ) -> Dict[int, Fraction]:
        """_den [x, y] as {k: nonzero value}, from the (index, value) pairs of the nonzero
        coordinates of x and y; terms that cancel are dropped.  Integer rows give
        integer values."""
        out: Dict[int, Fraction] = {}
        for i, a in xs:
            row = self._terms[i]
            for j, b in ys:
                terms = row[j]
                if terms:
                    ab = a * b
                    for k, c in terms:
                        out[k] = out.get(k, 0) + ab * c
        return {k: x for k, x in out.items() if x}

    def check_jacobi(self) -> Optional[JacobiViolation]:
        """None when the Jacobi identity holds; else the first bad triple.

        Triples i < j < k are scanned in lexicographic order.  The result is
        cached on the algebra, so an algebra shared by many callers (a
        cached reference table, say) is scanned once.
        """
        if self._jacobi is _UNCHECKED:
            self._jacobi = self._jacobi_violation(combinations(range(self.dim), 3))
        return self._jacobi

    def _jacobi_violation(self, triples: Iterable[Tuple[int, int, int]]) -> Optional[JacobiViolation]:
        """None when the Jacobi identity holds on the given triples i < j < k; else
        the first that fails.

        The residual [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
        contracted straight from the term table, with no bracket call:
        res_m = sum over l of c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m,
        summed in integers as _den^2 res_m.
        """
        terms = self._terms
        for i, j, k in triples:
            res = [0] * self.dim
            for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                for l, a in terms[p][q]:
                    for m, b in terms[l][r]:
                        res[m] += a * b
            if any(res):
                return JacobiViolation(i, j, k, tuple(Fraction(x, self._den ** 2) for x in res))
        return None

    def _extends(self, reference: "LieAlgebra") -> bool:
        """reference has dimension n - 1 and the same brackets [e_i, e_j], i < j < n - 1,
        as this algebra, compared as rationals on the two term tables: the same
        indices, and c _den(reference) = c' _den for each pair of constants."""
        m, den, ref_den = reference.dim, self._den, reference._den
        return m == self.dim - 1 and all(
            [(k, c * ref_den) for k, c in self._terms[i][j]]
            == [(k, c * den) for k, c in reference._terms[i][j]]
            for i, j in combinations(range(m), 2)
        )

    def ad_matrix(self, x: Sequence) -> MatrixQ:
        """Matrix of ad(x); column q holds [x, e_q]."""
        n, xs = self.dim, _nonzero(_vec(x, self.dim))
        cols = (self._bracket_terms(xs, [(q, 1)]).items() for q in range(n))
        return MatrixQ._exact(list(zip(*(_dense(w, n, self._den) for w in cols))))

    def ad_basis(self, i: int) -> MatrixQ:
        """ad(e_i), read off the term table on each call: entry (p, q) is c_iq^p."""
        return MatrixQ._exact([tuple(Fraction(c, self._den) for c in r) for r in self._ad_rows(i)])

    def _ad_rows(self, i: int) -> List[List[int]]:
        """_den ad(e_i) as integer rows: entry (p, q) is _den c_iq^p."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for q, terms in enumerate(self._terms[i]):
            for p, c in terms:
                rows[p][q] = c
        return rows

    def _ad_trace(self, i: int, W: Sequence[Sequence[int]]) -> int:
        """_den tr(ad(e_i) W) for W given by integer rows: the sum of _den c_iq^p W[q][p]."""
        return sum([c * W[q][p] for q, terms in enumerate(self._terms[i]) for p, c in terms])

    def _ad_nilpotent(self, z: Dict[int, object]) -> bool:
        """ad z is nilpotent, z a sparse vector {index: nonzero int or Fraction}.

        ad z is nilpotent exactly when (ad z)^n e_q = 0 for every basis vector
        e_q, n = dim.  z is scaled to integers by the lcm of its denominators,
        as a scale changes no nilpotency, and each e_q is bracketed with it at
        most n times on the term table (so _den ad z, in integers), with no
        elimination; the first e_q still nonzero after n steps answers False.
        """
        d = math.lcm(*[x.denominator for x in z.values()])
        zs = [(i, x.numerator * (d // x.denominator)) for i, x in z.items()]
        n = self.dim
        for q in range(n):
            v = {q: 1}
            for _ in range(n):
                v = self._bracket_terms(zs, v.items())
                if not v:
                    break
            else:
                return False
        return True

    # ------------------------------------------------------------- subspaces

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [x, y] over pairs of the stored rows of a and b.

        The stored rows are nonzero multiples of the basis vectors, which
        span the same brackets.  For a is b over unordered pairs only, as
        [u, u] = 0 and [v, u] = -[u, v].
        """
        _same_ambient(self.dim, a, b)
        xs = [w.items() for w in a._pivot_rows()]
        pairs = combinations(xs, 2) if a is b else product(xs, [w.items() for w in b._pivot_rows()])
        return Subspace._spanned(self.dim, (self._bracket_terms(x, y) for x, y in pairs))

    def derived_algebra(self) -> Subspace:
        """[g, g], spanned by the brackets of basis pairs, read off the term table."""
        if self._derived is None:
            pairs = combinations(range(self.dim), 2)
            self._derived = Subspace._spanned(self.dim, (dict(self._terms[i][j]) for i, j in pairs))
        return self._derived

    def _series_dims(self, step) -> Tuple[Tuple[int, ...], bool]:
        """Dimensions of a series whose second term is [g, g]."""
        prev, term = self.dim, self.derived_algebra()
        dims: List[int] = []
        while True:
            dims.append(term.dim)
            if term.dim == 0:
                return tuple(dims), True
            if term.dim == prev:
                return tuple(dims), False
            prev, term = term.dim, step(term)

    def series_profile(self) -> SeriesProfile:
        if self._profile is None:
            derived, solvable = self._series_dims(lambda t: self.product_space(t, t))
            full = Subspace.full(self.dim)
            lcs, nilpotent = self._series_dims(lambda t: self.product_space(full, t))
            self._profile = SeriesProfile(derived, lcs, solvable, nilpotent)
        return self._profile

    def is_solvable(self) -> bool:
        return self.series_profile().solvable

    def is_nilpotent(self) -> bool:
        return self.series_profile().nilpotent

    def center(self) -> Subspace:
        """The kernel of x -> [x, e_j] for all j: one sparse row {i: c_ij^k} per (j, k)."""
        n = self.dim
        rows: Dict[Tuple[int, int], Dict[int, object]] = {}
        for i, row in enumerate(self._terms):
            for j, terms in enumerate(row):
                for k, c in terms:
                    rows.setdefault((j, k), {})[i] = c
        return Subspace(n, _kernel(n, rows.values()))

    def is_ideal(self, s: Subspace) -> bool:
        """[g, s] lies in s."""
        return s.contains(self.product_space(Subspace.full(self.dim), s))

    def restrict(self, s: Subspace) -> "LieAlgebra":
        """The bracket structure on s in its echelon basis; s must be closed."""
        _same_ambient(self.dim, s)
        # each stored row is d_i u_i with d_i its pivot entry, so [u_i, u_j] is
        # the integer bracket of rows i and j over d_i d_j _den; inside s, its
        # coordinates are its entries at the pivot columns
        rows = s._pivot_rows()
        pivots = [min(w) for w in rows]
        xs = [w.items() for w in rows]
        terms = {}
        for i, j in combinations(range(s.dim), 2):
            w = self._bracket_terms(xs[i], xs[j])
            if s._reduce(dict(w)):
                raise ValueError(
                    f"subspace is not closed under the bracket: "
                    f"[u_{i + 1}, u_{j + 1}] lies outside"
                )
            if w:
                d = rows[i][pivots[i]] * rows[j][pivots[j]] * self._den
                terms[(i, j)] = tuple((c, Fraction(w[p], d)) for c, p in enumerate(pivots) if p in w)
        return LieAlgebra._of_terms(s.dim, terms)

    def verify_nilradical(self, s: Subspace) -> bool:
        """Check that s is the nilradical of a solvable algebra.

        Requires solvability.  For solvable g the nilradical is exactly the set of
        ad-nilpotent elements, which `nilradical_codim_search` certifies from both
        sides, so s is the nilradical exactly when it equals that search's answer; no
        algebra on s is built.  The nilradical holds [g, g], so a subspace that does
        not is refused first, with no search.
        """
        if not self.is_solvable():
            raise ValueError("nilradical verification requires a solvable algebra")
        if not s.contains(self.derived_algebra()):
            return False
        return s == self.nilradical_codim_search()[0]

    def nilradical_codim_search(self) -> Tuple[Subspace, int]:
        """The nilradical of a solvable algebra and its codimension.

        For solvable g, N = {x : ad x nilpotent} is where all diagonal
        characters lambda_k of ad(g), triangular over C, vanish; it contains
        [g, g].  With T the span of the basis vectors off the pivots of
        [g, g], g = [g, g] + T and N = [g, g] + (N meet T).  If [g, g] has
        codimension 1 and g is not nilpotent, N = [g, g] and no matrix is
        formed.

        Otherwise words in ad(T) are grown degree by degree from the
        identity, as integer rows: the generators are _den ad(e_i), so a word
        of degree k is _den^k times the true word, and its trace row
        (`_ad_trace`) _den^(k+1) times the true row.  A scale changes neither
        the span of the words nor the kernel of the rows.  Each new word W
        gives the functionals x -> tr(ad(x) W) on T.  They vanish on N, since
        ad x is strictly triangular for x in N, so their common kernel K in T
        contains N meet T.  After each degree, when every basis vector of K is
        ad-nilpotent, K lies in N as well and N = [g, g] + K.  Diagonals of
        words are the polynomials in the lambda_k, which separate distinct
        weights, so once the words span their algebra K is N meet T; the loop
        stops there at the latest.
        """
        if not self.is_solvable():
            raise ValueError("nilradical search requires a solvable algebra")
        n = self.dim
        if self._nilradical is None:
            derived = self.derived_algebra()
            if self.is_nilpotent():
                self._nilradical = Subspace.full(n)
            elif derived.dim == n - 1:
                self._nilradical = derived
            else:
                free = [i for i in range(n) if i not in derived._rows]
                gens = [self._ad_rows(i) for i in free]
                frontier = [[[int(p == q) for q in range(n)] for p in range(n)]]
                words = Subspace._spanned(n * n, [{p * (n + 1): 1 for p in range(n)}])
                rows: List[Dict[int, object]] = []
                while frontier:
                    for W in frontier:
                        traces = ((c, self._ad_trace(i, W)) for c, i in enumerate(free))
                        rows.append({c: x for c, x in traces if x})
                    kernel = [
                        {free[c]: x for c, x in enumerate(v) if x} for v in _kernel(len(free), rows)
                    ]
                    if all(self._ad_nilpotent(z) for z in kernel):
                        break
                    fresh = (_matmul(A, W) for W in frontier for A in gens)
                    frontier = [P for P in fresh if words._add(
                        {p * n + q: x for p, r in enumerate(P) for q, x in enumerate(r) if x})]
                # Subspace._add may keep and reduce the rows it is given
                self._nilradical = Subspace._spanned(
                    n, [*(dict(w) for w in derived._pivot_rows()), *kernel]
                )
        return self._nilradical, n - self._nilradical.dim

    # ------------------------------------------------------------ base change

    def change_basis(self, P: MatrixQ) -> "LieAlgebra":
        """Structure constants in the basis given by the columns of P, from integers.

        With P = N/d for integer N, `_inverse` stores [N | I] reduced as rows piv_r e_r | X_r,
        so N^-1 has rows X_r / piv_r.  Columns i and j of N bracket on the term table to
        W = d^2 _den [P e_i, P e_j], and new constant r is the one Fraction
        X_r.W / (piv_r d _den).  A singular P is a ValueError, a QuadExt in P a TypeError.
        """
        n = self.dim
        if P.shape() != (n, n):
            raise ValueError(f"base change must be {n}x{n}")
        N, d = _int_rows([P.row(r) for r in range(n)]) or (None, 1)
        if N is None:
            raise TypeError("base change matrix must be rational, not QuadExt")
        ech = _inverse(N)
        if ech is None:
            raise ValueError("base change matrix is singular")
        inverse = [(r, row[r] * d * self._den, [(k - n, x) for k, x in row.items() if k >= n])
                   for r, row in enumerate(ech._pivot_rows())]
        cols = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*N)]
        terms = {}
        for i, j in combinations(range(n), 2):
            w = self._bracket_terms(cols[i], cols[j])
            ys = [(r, den, sum([x * w[k] for k, x in X if k in w])) for r, den, X in inverse]
            terms[(i, j)] = [(r, Fraction(y, den)) for r, den, y in ys if y]
        return LieAlgebra._of_terms(n, terms)

    def killing_matrix(self) -> MatrixQ:
        """K[i][j] = tr(ad e_i ad e_j), the sum of c_ik^l c_jl^k over the term table,
        summed in integers and divided by _den^2 once."""
        n, terms = self.dim, self._terms
        lookup = [[dict(ts) for ts in row] for row in terms]
        K = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s = 0
                for k, ts in enumerate(terms[i]):
                    for l, a in ts:
                        b = lookup[j][l].get(k)
                        if b:
                            s += a * b
                K[i][j] = K[j][i] = Fraction(s, self._den ** 2)
        return MatrixQ._exact([tuple(r) for r in K])

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self is other or (
            (self.dim, self._den, self._terms) == (other.dim, other._den, other._terms))

    def __repr__(self):
        brackets = sum(1 for i, j in combinations(range(self.dim), 2) if self._terms[i][j])
        return f"LieAlgebra(dim={self.dim}, brackets={brackets})"

