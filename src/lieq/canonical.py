"""Canonical forms under the symplectic groups preserving one or two structure matrices.

Three classifiers live here, all exact on the label side:

* real Jordan shapes of rational matrices (block multisets, with an exact
  rational change of basis whenever every eigenvalue class is rational),
* the ten canonical forms of trace-form-compatible 4x4 matrices under
  Sp(4,R)-conjugation, labelled ``ThmE-1`` .. ``ThmE-10``,
* the three canonical forms of matrices compatible with a pair of symplectic
  structures, labelled ``ThmEE-1`` .. ``ThmEE-3``.

Labels carry exact parameters (Fraction or quadratic-extension values), so
label equality decides conjugacy.  Witnesses are exact or certified rational
basis matrices W: both residuals are computed exactly and held to
RESIDUAL_TOLERANCE.

A member of either 4x4 family has its eigenvalues in +- pairs, so its
characteristic polynomial is the even quartic x^4 + B x^2 + C (for h(J2),
B = -2p and C = p^2 + q^2 with p + iq the square of its complex eigenvalue)
and the eigenvalues are +-sqrt(y) for the roots y of y^2 + B y + C.  Both
classifiers read their spectrum off that quadratic with exact square roots
(`_even_quartic`), and `eigen_pairing_check` tests that the odd coefficients
vanish.  Only `rjcf_shape` factors a characteristic polynomial; it reads each
class's block sizes, and its Jordan chains, off one tower of kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .linalg import (
    MAX_DIM,
    MatrixQ,
    PolyQ,
    QuadExt,
    Subspace,
    _int_rows,
    _inverse,
    _matmul,
    char_poly,
    factor_over_rationals,
    nullspace,
    solve_or_invert,
    sqrt_exact,
    symmetric_signature,
)

Scalar = Union[int, Fraction, QuadExt]
Vec = Tuple[Scalar, ...]

#: residual bound every returned witness meets: both residuals are computed
#: exactly and checked against it, and a witness that misses it is not returned
RESIDUAL_TOLERANCE = 1e-9
#: bits of the first rounded square roots in a witness, doubled up to the cap
_PRECISION_START = 64
_PRECISION_CAP = 4096

J_SP4 = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
J_HJ2_1 = J_SP4
J_HJ2_2 = MatrixQ([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])

#: each group family's structure matrices J, listed once
_GROUP_FAMILIES = {"Sp4": (J_SP4,), "HJ2": (J_HJ2_1, J_HJ2_2)}
#: the same matrices by algebra family, as signed row permutations: row i holds (p, J_ip < 0) for
#: the one nonzero J_ip of that row, so row i of J a is row p of a, negated when J_ip < 0
_LIE_FAMILIES = {name: tuple(tuple(next((p, J[i, p] < 0) for p in range(4) if J[i, p]) for i in range(4))
                             for J in _GROUP_FAMILIES[group]) for name, group in (("sp4", "Sp4"), ("hJ2", "HJ2"))}


class MembershipError(ValueError):
    """A matrix fails a required algebra/group membership test (or has the wrong shape)."""


class UnsupportedFactorError(ValueError):
    """A characteristic-polynomial factor falls outside the supported catalog."""


class WitnessPrecisionError(ArithmeticError):
    """No witness meets RESIDUAL_TOLERANCE with square roots rounded to the precision cap."""


# --------------------------------------------------------------------------
# membership predicates
# --------------------------------------------------------------------------

def lie_membership(a: MatrixQ, family: str) -> bool:
    """Exact test of a^T J + J a = 0, i.e. of J a symmetric, for each structure matrix J of the family."""
    return _lie_products(a, family) is not None


def _lie_products(a: MatrixQ, family: str) -> Optional[Tuple[MatrixQ, ...]]:
    """The products J a over the family's structure matrices J when all are
    symmetric (a is a member), else None; the sp(4) classifier reuses J a.

    Each J is a signed permutation, so J a is read off a's rows, negated where
    J has a -1, and compared with its transpose as tuples: no entry is multiplied.
    """
    perms = _LIE_FAMILIES.get(family)
    if perms is None:
        raise ValueError(f"unknown algebra family {family!r}; expected 'sp4' or 'hJ2'")
    if a.shape() != (4, 4):
        raise MembershipError(f"membership test needs a 4x4 matrix, got {a.nrows}x{a.ncols}")
    products = []
    for perm in perms:
        S = tuple(tuple(-x for x in a._r[p]) if neg else a._r[p] for p, neg in perm)
        if S != tuple(zip(*S)):
            return None
        products.append(MatrixQ._exact(S))
    return tuple(products)


def group_membership(A: MatrixQ, family: str) -> bool:
    """Exact test of A^T J A = J for every structure matrix of the family."""
    mats = _GROUP_FAMILIES.get(family)
    if mats is None:
        raise ValueError(f"unknown group family {family!r}; expected 'Sp4' or 'HJ2'")
    if A.shape() != (4, 4):
        raise MembershipError(f"membership test needs a 4x4 matrix, got {A.nrows}x{A.ncols}")
    At = A.transpose()
    return all(At @ J @ A == J for J in mats)


def _check_rational(m: MatrixQ) -> None:
    """Raise TypeError at the first QuadExt entry of m, in row order: the classifiers take rational matrices."""
    for i, j in ((i, j) for i, row in enumerate(m._r) for j, x in enumerate(row) if isinstance(x, QuadExt)):
        raise TypeError(f"entry ({i}, {j}) of the matrix is {m[i, j]}: the classifiers take rational matrices")


# --------------------------------------------------------------------------
# labels and witnesses
# --------------------------------------------------------------------------

def _normalize_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x.as_fraction() if x.is_rational else x
    if isinstance(x, int):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class CanonicalLabel:
    """A canonical-form family tag plus exact named parameters.

    Two matrices are conjugate under the relevant group exactly when their
    labels compare equal, so the parameter values are kept exact (Fraction,
    quadratic-extension element, or +-1 for sign parameters).
    """

    family: str
    params: Tuple[Tuple[str, Scalar], ...] = ()

    def param(self, name: str) -> Scalar:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def __str__(self) -> str:
        return " ".join([self.family] + [f"{k}={v}" for k, v in self.params])


def _label(family: str, *params: Tuple[str, object]) -> CanonicalLabel:
    return CanonicalLabel(
        family,
        tuple((name, value if isinstance(value, int) and name in ("epsilon", "delta") else _normalize_scalar(value))
              for name, value in params),
    )


@dataclass(frozen=True, eq=False)
class Witness:
    """Rational change of basis W (a MatrixQ of Fractions) onto the canonical frame.

    ``residual_similarity`` is max|W^-1 a W - C| for the canonical matrix C and
    ``residual_group`` is max|W^T J W - J| over the structure matrices, both
    computed exactly, at most RESIDUAL_TOLERANCE, and rounded to float here:
    each float is the exact residual, correctly rounded when it is rational.
    ``precision_bits`` is 0 for an exact W (residuals 0.0), else the bits of
    the rounded square roots W was built from.
    """

    W: MatrixQ
    residual_similarity: float
    residual_group: float
    precision_bits: int


def _square_root(x: Fraction) -> Optional[Fraction]:
    """sqrt(x) when x is the square of a rational, else None."""
    if x < 0:
        return None
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def _root(x: Fraction, bits: int) -> Fraction:
    """sqrt(x) for a rational x >= 0: exact when rational, else isqrt(x 4^bits) / 2^bits."""
    r = _square_root(x)
    return r if r is not None else Fraction(math.isqrt(x.numerator * 4 ** bits // x.denominator), 2 ** bits)


def _rational(x: Scalar, bits: int) -> Fraction:
    """x when rational; a + b sqrt(d) with the root rounded by _root otherwise."""
    if not isinstance(x, QuadExt):
        return x
    r = _root(x.b * x.b * x.d, bits)
    return x.a + (r if x.b > 0 else -r)


def _assemble(cols: Sequence[Vec], bits: int) -> MatrixQ:
    return MatrixQ([[_rational(c[i], bits) for c in cols] for i in range(4)])


def _make_witness(a: MatrixQ, target: MatrixQ, build: Callable[[int], MatrixQ],
                  js: Sequence[MatrixQ]) -> Witness:
    """The first build(bits), bits = 64, 128, ..., whose exact residuals meet RESIDUAL_TOLERANCE = tn / td.

    Both residuals are compared on integer rows, with no Fraction per entry.  Write W = Wi / D,
    a = Ai / E and C = T / Dt, and take each J as integer rows.  |W^T J W - J| is
    |Wi^T J Wi - D^2 J| / D^2, computed first.  When it is 0, W^T J W = J makes W invertible,
    and W is exact when also Ai Wi Dt = Wi T E entrywise (a W = W C): then W^-1 a W = C and
    both residuals are 0, with no inverse taken.  Otherwise `_inverse` stores [Wi | I] reduced
    as rows piv_r e_r | X_r with piv_r > 0, so entry (i, j) of |W^-1 a W - C| is R / den with
    R = |(X Ai Wi)_ij Dt - piv_i E T_ij| and den = piv_i E Dt.  An entry passes when
    R td <= tn den, and is reported as R / den.  An irrational label parameter leaves a QuadExt
    in T, which takes the same expressions.
    """
    tn, td = Fraction(RESIDUAL_TOLERANCE).as_integer_ratio()
    Ai, E = a._ints()
    Dt = math.lcm(*[x.denominator for x in target.flat() if isinstance(x, Fraction)])
    T = [[x.numerator * (Dt // x.denominator) if isinstance(x, Fraction) else x * Dt for x in row]
         for row in target._r]
    Jrows = [J._ints()[0] for J in js]
    bits = _PRECISION_START
    while bits <= _PRECISION_CAP:
        W = build(bits)
        Wi, D = W._ints()
        grp = max(abs(g - D * D * Ji[i][j]) for Ji in Jrows
                  for i, row in enumerate(_matmul(list(zip(*Wi)), _matmul(Ji, Wi))) for j, g in enumerate(row))
        if grp == 0 and all(x * Dt == y * E for p, q in zip(_matmul(Ai, Wi), _matmul(Wi, T)) for x, y in zip(p, q)):
            return Witness(W, 0.0, 0.0, 0)
        ech = _inverse(Wi)
        if ech is not None:  # a singular W is no witness
            rows = [ech._rows[r] for r in range(4)]
            N = _matmul(_matmul([[row.get(4 + k, 0) for k in range(4)] for row in rows], Ai), Wi)
            pe = [rows[i][i] * E for i in range(4)]
            sim = [(abs(N[i][j] * Dt - pe[i] * T[i][j]), pe[i] * Dt) for i in range(4) for j in range(4)]
            if grp * td <= tn * D * D and all(r * td <= tn * den for r, den in sim):
                return Witness(W, max(float(r / den) for r, den in sim), grp / (D * D), bits)
        bits *= 2
    raise WitnessPrecisionError(
        f"no witness within {RESIDUAL_TOLERANCE} from square roots rounded to {_PRECISION_CAP} bits"
    )


# --------------------------------------------------------------------------
# canonical matrices for the two 4x4 families
# --------------------------------------------------------------------------

def sp4_canonical_matrix(label: CanonicalLabel) -> MatrixQ:
    """Exact canonical representative for an ``ThmE-*`` label."""
    f = label.family
    if f == "ThmE-1":
        lam, mu = label.param("lambda"), label.param("mu")
        return MatrixQ.diagonal([lam, mu, -lam, -mu])
    if f == "ThmE-2":
        lam, eps = label.param("lambda"), label.param("epsilon")
        return MatrixQ([[lam, 0, 0, 0], [0, 0, 0, eps], [0, 0, -lam, 0], [0, 0, 0, 0]])
    if f == "ThmE-3":
        lam = label.param("lambda")
        return MatrixQ([[lam, 1, 0, 0], [0, lam, 0, 0], [0, 0, -lam, 0], [0, 0, -1, -lam]])
    if f == "ThmE-4":
        eps = label.param("epsilon")
        return MatrixQ([[0, 0, eps, 0], [0, 0, 0, eps], [0, 0, 0, 0], [0, 0, 0, 0]])
    if f == "ThmE-5":
        eps = label.param("epsilon")
        return MatrixQ([[0, 1, 0, 0], [0, 0, 0, eps], [0, 0, 0, 0], [0, 0, -1, 0]])
    if f == "ThmE-6":
        lam, mu, eps = label.param("lambda"), label.param("mu"), label.param("epsilon")
        em = mu if eps == 1 else -mu
        return MatrixQ([[lam, 0, 0, 0], [0, 0, 0, em], [0, 0, -lam, 0], [0, -em, 0, 0]])
    if f == "ThmE-7":
        mu, eps, delta = label.param("mu"), label.param("epsilon"), label.param("delta")
        dm = mu if delta == 1 else -mu
        return MatrixQ([[0, 0, eps, 0], [0, 0, 0, dm], [0, 0, 0, 0], [0, -dm, 0, 0]])
    if f == "ThmE-8":
        lam, mu = label.param("lambda"), label.param("mu")
        return MatrixQ([[lam, mu, 0, 0], [-mu, lam, 0, 0], [0, 0, -lam, mu], [0, 0, -mu, -lam]])
    if f == "ThmE-9":
        mu, eps, eta = label.param("mu"), label.param("epsilon"), label.param("eta")
        em = mu if eps == 1 else -mu
        ee = eta if eps == 1 else -eta
        return MatrixQ([[0, 0, em, 0], [0, 0, 0, ee], [-em, 0, 0, 0], [0, -ee, 0, 0]])
    if f == "ThmE-10":
        mu, eps = label.param("mu"), label.param("epsilon")
        return MatrixQ([[0, mu, eps, 0], [-mu, 0, 0, eps], [0, 0, 0, mu], [0, 0, -mu, 0]])
    raise ValueError(f"unknown canonical family {f!r}")


def hJ2_canonical_matrix(label: CanonicalLabel) -> MatrixQ:
    """Exact canonical representative for an ``ThmEE-*`` label."""
    f = label.family
    if f == "ThmEE-1":
        lam = label.param("lambda")
        return MatrixQ.diagonal([lam, lam, -lam, -lam])
    if f == "ThmEE-2":
        return MatrixQ([[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]])
    if f == "ThmEE-3":
        lam, mu, eps = label.param("lambda"), label.param("mu"), label.param("epsilon")
        em = mu if eps == 1 else -mu
        return MatrixQ([[lam, em, 0, 0], [-em, lam, 0, 0], [0, 0, -lam, em], [0, 0, -em, -lam]])
    raise ValueError(f"unknown canonical family {f!r}")


# --------------------------------------------------------------------------
# real Jordan shapes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RjcfShape:
    """Multiset of real Jordan blocks as (eigenvalue class, block size) pairs.

    The class of a block is the exact rational eigenvalue or the monic
    irreducible quadratic it belongs to; quadratic classes occupy ``2 * size``
    dimensions once realified.
    """

    blocks: Tuple[Tuple[Union[Fraction, PolyQ], int], ...]

    def catalog_key(self) -> Tuple[Tuple[str, int], ...]:
        """Anonymized shape: the eigenvalue classes reduced to their kind."""
        return tuple(sorted(
            ("complex" if isinstance(cls, PolyQ) else "real", size) for cls, size in self.blocks
        ))


def _block_sort_key(block):
    cls, size = block
    if isinstance(cls, PolyQ):
        return (1, tuple(cls.coeffs), -size)
    return (0, cls, -size)


def _block_sizes(kernels: Sequence[List[Vec]], step: int) -> List[int]:
    """Block sizes, longest first, of one eigenvalue class from its kernel tower: a
    class of degree ``step`` has (dim ker N^k - dim ker N^(k-1)) / step blocks of size >= k."""
    at_least = [(len(kernels[k]) - len(kernels[k - 1])) // step for k in range(1, len(kernels))] + [0]
    sizes: List[int] = []
    for k in range(len(at_least) - 1, 0, -1):
        sizes.extend([k] * (at_least[k - 1] - at_least[k]))
    return sizes


def _jordan_chains(N: MatrixQ, powers: Sequence[MatrixQ], kernels: Sequence[List[Vec]],
                   sizes: Sequence[int]) -> List[List[Vec]]:
    """Exact Jordan chains of N = M - lam*I from its kernel tower.

    ``sizes`` lists the wanted chain lengths in descending order; the chains
    are picked longest first, so they come back in that order, each as
    columns [N^(s-1) t, ..., N t, t].
    """
    chains: List[List[Vec]] = []
    carried: List[Vec] = []
    for h in range(len(kernels) - 1, 0, -1):
        wanted = sizes.count(h)
        span = Subspace(N.nrows, kernels[h - 1] + carried)
        fresh: List[Vec] = []
        for v in kernels[h]:
            if len(fresh) == wanted:
                break
            if span.add(v):
                fresh.append(v)
        if len(fresh) != wanted:
            raise ArithmeticError("Jordan chain selection failed to reach the required block count")
        chains.extend([powers[h - 1 - j].apply(t) for j in range(h)] for t in fresh)
        carried = [N.apply(w) for w in carried + fresh]
    return chains


def rjcf_shape(M: MatrixQ) -> Tuple[RjcfShape, Optional[MatrixQ]]:
    """Real Jordan block structure of a rational matrix, with exact witness.

    Returns ``(shape, P)`` where P satisfies P^-1 M P = J exactly for the
    block-diagonal Jordan matrix J in the shape's block order; P is None as
    soon as any eigenvalue class is a quadratic (the shape itself is still
    exact, via kernel dimensions of powers of the quadratic evaluated at M).
    Each class builds one kernel tower, which gives its block sizes and,
    when every class is rational, its Jordan chains.
    """
    if not M.is_square:
        raise ValueError("real Jordan shape of a non-square matrix")
    _check_rational(M)
    towers = []
    for term in factor_over_rationals(char_poly(M)):
        q = term.poly
        if q.degree > 2:
            raise UnsupportedFactorError(
                f"characteristic factor {q!r} has degree {q.degree}; only degree <= 2 is supported"
            )
        cls = -q.coeff(0) if q.degree == 1 else q
        N = M - MatrixQ.identity(M.nrows) * cls if q.degree == 1 else q.eval_matrix(M)
        # the powers of N and their kernels, up to the first kernel of dimension deg * multiplicity
        powers, kernels = [MatrixQ.identity(M.nrows)], [[]]
        while len(kernels[-1]) < q.degree * term.multiplicity:
            powers.append(powers[-1] @ N)
            kernels.append(nullspace(powers[-1]))
        towers.append((cls, N, powers, kernels, _block_sizes(kernels, q.degree)))
    blocks = [(cls, size) for cls, *_, sizes in towers for size in sizes]
    shape = RjcfShape(tuple(sorted(blocks, key=_block_sort_key)))
    if any(isinstance(cls, PolyQ) for cls, *_ in towers):
        return shape, None
    # the shape lists each eigenvalue's blocks together, longest first, in
    # ascending eigenvalue order: the order the chains come in
    cols = [v for cls, *tower in sorted(towers, key=lambda t: t[0])
            for chain in _jordan_chains(*tower) for v in chain]
    return shape, MatrixQ(list(zip(*cols)))


def _partitions(n: int) -> List[Tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: Tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(n, n, ())
    return out


def rjcf_catalog(dim: int) -> frozenset:
    """All anonymized real Jordan shapes of the given dimension."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
    keys = set()
    for cplx_total in range(dim // 2 + 1):
        for real_part in _partitions(dim - 2 * cplx_total):
            for cplx_part in _partitions(cplx_total):
                key = tuple(sorted(
                    [("real", s) for s in real_part] + [("complex", s) for s in cplx_part]
                ))
                keys.add(key)
    return frozenset(keys)


# --------------------------------------------------------------------------
# spectrum bookkeeping for the 4x4 classifiers
# --------------------------------------------------------------------------

def _even_quartic(B: Fraction, C: Fraction):
    """The spectrum of x^4 + B x^2 + C, whose roots are +-sqrt(y) for the roots y of y^2 + B y + C.

    Returns ((y1, y2), None) with y1 >= y2 when those are rational.  Otherwise
    the quartic splits over Q only as (x^2 - 2 lam x + s)(x^2 + 2 lam x + s),
    with s^2 = C and lam^2 = (2s - B)/4 both rational squares (by unique
    factorisation for one sign of s at most), and this returns (None, (lam, s))
    with lam > 0; an irreducible quartic raises UnsupportedFactorError.
    """
    r = _square_root(B * B - 4 * C)
    if r is not None:
        return ((r - B) / 2, (-r - B) / 2), None
    root_c = _square_root(C)
    for s in () if root_c is None else (root_c, -root_c):
        lam = _square_root((2 * s - B) / 4)
        if lam is not None:
            return None, (lam, s)
    raise UnsupportedFactorError(
        f"eigenvalue quartic {PolyQ([C, 0, B, 0, 1])!r} is irreducible over the rationals; "
        "only quadratic factors are supported"
    )


def _restricted_signature(S: MatrixQ, basis_cols: Sequence[Vec]) -> Tuple[int, int, int]:
    B = MatrixQ(list(zip(*basis_cols)))
    return symmetric_signature(B.transpose() @ S @ B)


def _definite_sign(S: MatrixQ, basis_cols: Sequence[Vec]) -> int:
    pos, neg, zero = _restricted_signature(S, basis_cols)
    if zero or (pos and neg):
        raise ArithmeticError("restricted form is unexpectedly indefinite")
    return 1 if pos else -1


def _chain_sign(S: MatrixQ, basis_cols: Sequence[Vec]) -> int:
    """Sign parameter from a rank-1 restriction: one negative direction -> +1."""
    pos, neg, _ = _restricted_signature(S, basis_cols)
    if (pos, neg) == (0, 1):
        return 1
    if (pos, neg) == (1, 0):
        return -1
    raise ArithmeticError(f"expected a rank-1 definite restriction, got signature ({pos},{neg})")


# --------------------------------------------------------------------------
# sp(4) witness constructions
# --------------------------------------------------------------------------
# Vectors are column tuples of Fractions, or of QuadExts where a label parameter
# is irrational.  `_lin` and `MatrixQ.apply` combine rational ones as integer rows
# over one common denominator, one Fraction per entry, and `_shifted` adds a
# scalar to the diagonal only.  A builder takes the kernels and matrices
# (a^2, a^2 + m, ...) that its classifier computed, and the bits to which it
# rounds the square roots it cannot take exactly; it returns the rational W.

_UNITS = list(MatrixQ.identity(4)._r)  # e_j is row j of the identity


def _omega(x: Vec, y: Vec) -> Scalar:
    """The symplectic form x^T J y of J_SP4."""
    return x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]


def _lin(*terms: Tuple[Scalar, Vec]) -> Vec:
    """The linear combination of (coefficient, vector) pairs: over the integer rows (c, *v)
    of one common denominator D, one Fraction per entry, unless a value is a QuadExt."""
    ints = _int_rows([(c, *v) for c, v in terms])
    if ints is None:
        return tuple(sum(c * v[i] for c, v in terms) for i in range(4))
    rows, D = ints
    return tuple(Fraction(sum([r[0] * r[i] for r in rows]), D * D) for i in range(1, 5))


def _shifted(m: MatrixQ, c: Scalar) -> MatrixQ:
    """m + c I, adding c to the diagonal entries only."""
    return MatrixQ._exact([tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(m._r)])


def _omega_perp(*vs: Vec) -> List[Vec]:
    """Basis of the vectors omega-orthogonal to every v."""
    return nullspace(MatrixQ([(-v[2], -v[3], v[0], v[1]) for v in vs]))


def _outside_kernel(a: MatrixQ, vs: Sequence[Vec]) -> Vec:
    for v in vs:
        if any(x != 0 for x in a.apply(v)):
            return v
    raise ArithmeticError("no basis column escapes the kernel")


def _frame(p: Tuple[Vec, Vec], q: Tuple[Vec, Vec], bits: int) -> MatrixQ:
    """W = [p0, q0, p1, q1] from two Darboux pairs."""
    return _assemble([p[0], q[0], p[1], q[1]], bits)


def _pair(v: Vec, w: Vec) -> Tuple[Vec, Vec]:
    """(v, w) with w rescaled so that omega(v, w) = 1."""
    return v, _lin((1 / _omega(v, w), w))


def _eigen_pair(a: MatrixQ, lam: Scalar) -> Tuple[Vec, Vec]:
    """Darboux pair of +-lam eigenvectors, or of ker a when lam = 0."""
    if lam == 0:
        return _pair(*nullspace(a)[:2])
    return _pair(nullspace(_shifted(a, -lam))[0], nullspace(_shifted(a, lam))[0])


def _chain_pair(a: MatrixQ, w: Vec, eps: int, bits: int) -> Tuple[Vec, Vec]:
    """(eps a w, w) / sqrt|omega(a w, w)|: a Darboux pair when eps is the sign of omega(a w, w)."""
    aw = a.apply(w)
    s = 1 / _root(abs(_omega(aw, w)), bits)
    return _lin((eps * s, aw)), _lin((s, w))


def _plane_pair(a: MatrixQ, m: Fraction, u: Vec, bits: int) -> Tuple[Vec, Vec]:
    """Scaled symplectic pair (u, t) spanning the a-plane of u in ker(a^2 + m), a u = -+sqrt(m) t."""
    t = _lin((-1 / _root(m, bits), a.apply(u)))
    c = _omega(u, t)
    s = 1 / _root(abs(c), bits)
    return _lin((s, u)), _lin((s if c > 0 else -s, t))


def _witness_e1(a: MatrixQ, lam: Scalar, mu: Scalar, bits: int) -> MatrixQ:
    return _frame(_eigen_pair(a, lam), _eigen_pair(a, mu), bits)


def _witness_e1_double(a: MatrixQ, lam: Scalar, bits: int) -> MatrixQ:
    Vp, Vm = nullspace(_shifted(a, -lam)), nullspace(_shifted(a, lam))
    G = solve_or_invert(MatrixQ([[_omega(vp, vm) for vm in Vm] for vp in Vp]))
    Wm = [_lin((G[0, j], Vm[0]), (G[1, j], Vm[1])) for j in range(2)]
    return _assemble([Vp[0], Vp[1], Wm[0], Wm[1]], bits)


def _witness_e2(a: MatrixQ, lam: Scalar, eps: int, ker_a2: Sequence[Vec], bits: int) -> MatrixQ:
    """A chain pair, and the +-lam pair or (lam = 0) a pair omega-orthogonal to the chain."""
    w = _outside_kernel(a, ker_a2)
    pair = _eigen_pair(a, lam) if lam != 0 else _pair(*_omega_perp(a.apply(w), w))
    return _frame(pair, _chain_pair(a, w, eps, bits), bits)


def _witness_e3_hyperbolic(a: MatrixQ, lam: Scalar, bits: int) -> MatrixQ:
    Ap, Am = _shifted(a, -lam), _shifted(a, lam)
    v2 = _outside_kernel(Ap, nullspace(Ap @ Ap))
    w2 = _outside_kernel(Am, nullspace(Am @ Am))
    w1p = Am.apply(w2)
    T, R = _omega(v2, w1p), _omega(v2, w2)
    x3 = _lin((-1 / T, w2), (R / (T * T), w1p))
    return _assemble([Ap.apply(v2), v2, x3, _lin((1 / T, w1p))], bits)


def _witness_e3_nilpotent(a: MatrixQ, bits: int) -> MatrixQ:
    i, j = next(
        (i, j) for i in range(4) for j in range(i + 1, 4)
        if MatrixQ([a.col(i), a.col(j)]).rank() == 2
    )
    x, y = _UNITS[i], _UNITS[j]
    S = J_SP4 @ a
    A, B, C = S[i, i], S[i, j], S[j, j]
    if A == 0:
        u1, u2 = x, _lin((-C / (2 * B), x), (1, y))
    else:
        disc = _root(B * B - A * C, bits)
        u1, u2 = (_lin(((-B + disc) / A, x), (1, y)), _lin(((-B - disc) / A, x), (1, y)))
    au2 = a.apply(u2)
    b = _omega(u1, au2)
    c = -1 / b
    z = _lin((c, u2), (-c * _omega(u1, u2) / b, au2))
    return _assemble([a.apply(u1), u1, z, _lin((-c, au2))], bits)


def _witness_e4(a: MatrixQ, eps: int, bits: int) -> MatrixQ:
    u = _outside_kernel(a, _UNITS)
    w = _outside_kernel(a, _omega_perp(a.apply(u), u))
    return _frame(_chain_pair(a, u, eps, bits), _chain_pair(a, w, eps, bits), bits)


def _witness_e5(a: MatrixQ, a2: MatrixQ, eps: int, bits: int) -> MatrixQ:
    a3 = a2 @ a
    t = _outside_kernel(a3, _UNITS)
    at, a2t, a3t = a.apply(t), a2.apply(t), a3.apply(t)
    q = _omega(a3t, t)
    gamma = _omega(t, at) / (2 * q)
    t, at = _lin((1, t), (gamma, a2t)), _lin((1, at), (gamma, a3t))
    beta = 1 / _root(abs(q), bits)
    return _assemble([_lin((-eps * beta, a3t)), _lin((-eps * beta, a2t)),
                      _lin((beta, t)), _lin((-beta, at))], bits)


def _witness_e8(a: MatrixQ, a2: MatrixQ, lam: Fraction, s: Fraction, bits: int) -> MatrixQ:
    mu = _root(s - lam * lam, bits)
    u = nullspace(_shifted(a2 - a * (2 * lam), s))[0]
    z = nullspace(_shifted(a2 + a * (2 * lam), s))[0]
    v2 = _lin((-1 / mu, a.apply(u)), (lam / mu, u))
    w2c = _lin((-1 / mu, a.apply(z)), (-lam / mu, z))
    alpha, beta = _omega(u, z), _omega(u, w2c)
    n = alpha * alpha + beta * beta
    return _assemble([u, v2, _lin((alpha / n, z), (beta / n, w2c)),
                      _lin((alpha / n, w2c), (-beta / n, z))], bits)


def _witness_e8_zero(a: MatrixQ, m: Fraction, bits: int) -> MatrixQ:
    """a^2 = -m, J a of signature (2,2): R^4 splits into a positive and a negative a-plane.

    In the basis (x, a x) of the a-plane of x the form J a is (x^T J a x) diag(1, m);
    the omega-orthogonal plane is its J a-orthogonal complement, of the other sign.
    """
    mu = _root(m, bits)

    def q(v: Vec) -> Fraction:
        return _omega(v, a.apply(v))

    sums = [_lin((1, e), (1, f)) for k, e in enumerate(_UNITS) for f in _UNITS[k + 1:]]
    x = next(v for v in _UNITS + sums if q(v) != 0)
    y = _omega_perp(x, a.apply(x))[0]
    u1, u2 = (x, y) if q(x) > 0 else (y, x)
    u1, u2 = _lin((1 / _root(q(u1), bits), u1)), _lin((1 / _root(-q(u2), bits), u2))
    x = _lin((1, u1), (1, u2))
    y = _lin((-1 / mu, a.apply(u1)), (1 / mu, a.apply(u2)))
    c = _omega(x, y)
    return _assemble([x, _lin((-1 / mu, a.apply(x))), _lin((1 / c, y)),
                      _lin((-1 / (c * mu), a.apply(y)))], bits)


def _witness_e9_equal(a: MatrixQ, m: Fraction, bits: int) -> MatrixQ:
    u2 = _omega_perp(_UNITS[0], a.col(0))[0]
    return _frame(_plane_pair(a, m, _UNITS[0], bits), _plane_pair(a, m, u2, bits), bits)


def _witness_e10(a: MatrixQ, m: Fraction, b: MatrixQ, c: MatrixQ, Jc: MatrixQ,
                 bits: int) -> MatrixQ:
    """b = a^2 + m, c = a b and Jc = J c, all from the classifier."""
    mu = _root(m, bits)
    u = _UNITS[max(range(4), key=lambda k: abs(Jc[k, k]))]
    q1 = _lin((-1 / (2 * mu), b.apply(u)))
    p1 = _lin((-1 / (2 * m), c.apply(u)))
    q2 = _lin((1 / mu, p1), (-1 / mu, a.apply(u)))
    corr = _omega(u, q2) / (2 * _omega(u, p1))
    p2, q2 = _lin((1, u), (corr, q1)), _lin((1, q2), (-corr, p1))
    kappa = _omega(p1, p2)
    s = 1 / _root(abs(kappa), bits)
    t = s if kappa > 0 else -s
    return _assemble([_lin((s, p1)), _lin((s, q1)), _lin((t, p2)), _lin((t, q2))], bits)


# --------------------------------------------------------------------------
# sp(4) classifier
# --------------------------------------------------------------------------

def _classify_all_real(a: MatrixQ, a2: MatrixQ, Ja: MatrixQ, lam: Scalar, mu: Scalar):
    """Eigenvalues +-lam, +-mu with lam >= mu >= 0."""
    if mu != 0 and lam != mu:
        return _label("ThmE-1", ("lambda", lam), ("mu", mu)), lambda bits: _witness_e1(a, lam, mu, bits)
    if mu != 0:
        lam2 = _normalize_scalar(lam * lam)
        if a2 == MatrixQ.diagonal([lam2] * 4):
            return _label("ThmE-1", ("lambda", lam), ("mu", lam)), lambda bits: _witness_e1_double(a, lam, bits)
        return _label("ThmE-3", ("lambda", lam)), lambda bits: _witness_e3_hyperbolic(a, lam, bits)
    if lam != 0:
        lam2 = _normalize_scalar(lam * lam)
        if a @ a2 == a * lam2:
            return (_label("ThmE-1", ("lambda", lam), ("mu", 0)),
                    lambda bits: _witness_e1(a, lam, 0, bits))
        ker_a2 = nullspace(a2)
        eps = _chain_sign(Ja, ker_a2)
        return (_label("ThmE-2", ("lambda", lam), ("epsilon", eps)),
                lambda bits: _witness_e2(a, lam, eps, ker_a2, bits))
    if a.is_zero():
        return _label("ThmE-1", ("lambda", 0), ("mu", 0)), lambda bits: MatrixQ.identity(4)
    if a2.is_zero():
        if a.rank() == 1:
            eps = _chain_sign(Ja, _UNITS)
            return (_label("ThmE-2", ("lambda", 0), ("epsilon", eps)),
                    lambda bits: _witness_e2(a, 0, eps, _UNITS, bits))
        pos, neg, _ = symmetric_signature(Ja)
        if (pos, neg) == (1, 1):
            return _label("ThmE-3", ("lambda", 0)), lambda bits: _witness_e3_nilpotent(a, bits)
        eps = 1 if (pos, neg) == (0, 2) else -1
        return _label("ThmE-4", ("epsilon", eps)), lambda bits: _witness_e4(a, eps, bits)
    pos, neg, _ = symmetric_signature(Ja @ a2)
    if (pos, neg) not in ((1, 0), (0, 1)):
        raise ArithmeticError(f"unexpected signature ({pos},{neg}) for a nilpotent chain of length 4")
    eps = 1 if (pos, neg) == (1, 0) else -1
    return _label("ThmE-5", ("epsilon", eps)), lambda bits: _witness_e5(a, a2, eps, bits)


def _classify_mixed(a: MatrixQ, a2: MatrixQ, Ja: MatrixQ, lam: Scalar, m: Fraction):
    """Eigenvalues +-lam with lam >= 0 and the roots of x^2 + m, m > 0."""
    mu = sqrt_exact(m)
    b = _shifted(a2, m)
    plane = nullspace(b)
    plane_sign = -_definite_sign(Ja, plane)
    if lam != 0 or (a @ b).is_zero():
        return (_label("ThmE-6", ("lambda", lam), ("mu", mu), ("epsilon", plane_sign)),
                lambda bits: _frame(_eigen_pair(a, lam), _plane_pair(a, m, plane[0], bits), bits))
    ker_a2 = nullspace(a2)
    eps = _chain_sign(Ja, ker_a2)
    return (_label("ThmE-7", ("mu", mu), ("epsilon", eps), ("delta", plane_sign)),
            lambda bits: _frame(_chain_pair(a, _outside_kernel(a, ker_a2), eps, bits),
                                _plane_pair(a, m, plane[0], bits), bits))


def _classify_imaginary(a: MatrixQ, a2: MatrixQ, Ja: MatrixQ, m: Fraction, m2: Fraction):
    """Eigenvalues the roots of x^2 + m and x^2 + m2, m >= m2 > 0."""
    mu = sqrt_exact(m)
    if m != m2:
        plane1, plane2 = nullspace(_shifted(a2, m)), nullspace(_shifted(a2, m2))
        s1 = -_definite_sign(Ja, plane1)
        s2 = -_definite_sign(Ja, plane2)
        f2 = sqrt_exact(m2)
        eta = f2 if s1 == s2 else -f2
        return (_label("ThmE-9", ("mu", mu), ("epsilon", s1), ("eta", eta)),
                lambda bits: _frame(_plane_pair(a, m, plane1[0], bits),
                                    _plane_pair(a, m2, plane2[0], bits), bits))
    b = _shifted(a2, m)
    if b.is_zero():
        pos, neg, _ = symmetric_signature(Ja)
        if (pos, neg) == (2, 2):
            return _label("ThmE-8", ("lambda", 0), ("mu", mu)), lambda bits: _witness_e8_zero(a, m, bits)
        eps = 1 if (pos, neg) == (0, 4) else -1
        return (_label("ThmE-9", ("mu", mu), ("epsilon", eps), ("eta", mu)),
                lambda bits: _witness_e9_equal(a, m, bits))
    c = a @ b
    Jc = J_SP4 @ c
    pos, neg, _ = symmetric_signature(Jc)
    if (pos, neg) not in ((2, 0), (0, 2)):
        raise ArithmeticError(f"unexpected signature ({pos},{neg}) for a repeated imaginary pair")
    eps = 1 if (pos, neg) == (2, 0) else -1
    return _label("ThmE-10", ("mu", mu), ("epsilon", eps)), lambda bits: _witness_e10(a, m, b, c, Jc, bits)


def _sp4_classify(a: MatrixQ, Ja: MatrixQ) -> Tuple[CanonicalLabel, Callable[[int], MatrixQ]]:
    """Label and witness builder of a member a of sp(4,R), given Ja = J_SP4 @ a."""
    p = char_poly(a)
    ys, pair = _even_quartic(p.coeff(2), p.coeff(0))
    a2 = a @ a
    if pair is not None:
        lam, s = pair
        if lam * lam < s:
            mu = sqrt_exact(s - lam * lam)
            return (_label("ThmE-8", ("lambda", lam), ("mu", mu)),
                    lambda bits: _witness_e8(a, a2, lam, s, bits))
        # real roots lam +- t and -lam +- t
        t = sqrt_exact(lam * lam - s)
        return _classify_all_real(a, a2, Ja, lam + t, abs(lam - t))
    y1, y2 = ys
    if y2 >= 0:
        return _classify_all_real(a, a2, Ja, sqrt_exact(y1), sqrt_exact(y2))
    if y1 >= 0:
        return _classify_mixed(a, a2, Ja, sqrt_exact(y1), -y2)
    return _classify_imaginary(a, a2, Ja, -y2, -y1)


def _sp4_product(a: MatrixQ) -> MatrixQ:
    """J_SP4 @ a for a rational member a of sp(4,R); TypeError or MembershipError otherwise."""
    _check_rational(a)
    products = _lie_products(a, "sp4")
    if products is None:
        raise MembershipError("matrix is not in sp(4,R): a^T J + J a != 0")
    return products[0]


def sp4_canonical_form(a: MatrixQ) -> Tuple[CanonicalLabel, Witness]:
    """Exact canonical label and certified Sp(4,R) witness for a member of sp(4,R)."""
    label, build = _sp4_classify(a, _sp4_product(a))
    return label, _make_witness(a, sp4_canonical_matrix(label), build, _GROUP_FAMILIES["Sp4"])


def symplectically_similar(a: MatrixQ, b: MatrixQ) -> bool:
    """Whether two sp(4,R) members are conjugate under Sp(4,R), by label equality."""
    Ja, Jb = _sp4_product(a), _sp4_product(b)
    return _sp4_classify(a, Ja)[0] == _sp4_classify(b, Jb)[0]


# --------------------------------------------------------------------------
# the two-structure family: complexification classifier
# --------------------------------------------------------------------------

#: multiplication by i in the complex coordinates (w1 - i w2, w3 + i w4) of a
#: real vector (w1, w2, w3, w4); a member of h(J2) is complex-linear in them
_K = J_HJ2_1 @ J_HJ2_2


def _cscale(c, x: Vec) -> Vec:
    """The complex multiple (c0 + i c1) x of a real vector x."""
    return _lin((c[0], x), (c[1], _K.apply(x)))


def _cinv(c):
    n = c[0] * c[0] + c[1] * c[1]
    return c[0] / n, -c[1] / n


def _cform(x: Vec, y: Vec):
    """The complex determinant of the columns x, y: real part omega_1, imaginary part omega_2."""
    return _omega(x, y), -_omega(x, _K.apply(y))


def _csqrt(z, bits: int):
    """A square root of the Gaussian rational z != 0, from roots rounded by _root."""
    x, y = z
    r = _root((_root(x * x + y * y, bits) + abs(x)) / 2, bits)
    return (r, y / (2 * r)) if x >= 0 else (y / (2 * r), r)


def _realify_basis(x1: Vec, x2: Vec, bits: int) -> MatrixQ:
    """Real basis of the complex frame with columns x1, x2: x1, -i x1, x2, i x2."""
    return _assemble([x1, _cscale((0, -1), x1), x2, _cscale((0, 1), x2)], bits)


def _witness_ee_eigen(a: MatrixQ, w, bits: int) -> MatrixQ:
    """Complex eigenvectors for w and -w, the second divided by their determinant."""
    shift = _shifted(_K * w[1], w[0])
    xp, xm = nullspace(a - shift)[0], nullspace(a + shift)[0]
    return _realify_basis(xp, _cscale(_cinv(_cform(xp, xm)), xm), bits)


def _witness_ee_chain(a: MatrixQ, bits: int) -> MatrixQ:
    """T = [a u, u] for u outside ker a, divided by a square root of det T."""
    u = _outside_kernel(a, _UNITS)
    au = a.apply(u)
    r = _cinv(_csqrt(_cform(au, u), bits))
    return _realify_basis(_cscale(r, au), _cscale(r, u), bits)


def _hJ2_classify(a: MatrixQ) -> Tuple[CanonicalLabel, Callable[[int], MatrixQ]]:
    # a as a complex 2x2 matrix has the columns a e1 and a e3
    det = _cform(a.col(0), a.col(2))
    p, q = -det[0], -det[1]  # w^2 = -det, eigenvalues are +-w
    if q == 0:
        if a.is_zero():
            return _label("ThmEE-1", ("lambda", 0)), lambda bits: MatrixQ.identity(4)
        if p == 0:
            return _label("ThmEE-2"), lambda bits: _witness_ee_chain(a, bits)
        if p > 0:
            lam = sqrt_exact(p)
            return _label("ThmEE-1", ("lambda", lam)), lambda bits: _witness_ee_eigen(a, (lam, 0), bits)
        mu = sqrt_exact(-p)
        return (_label("ThmEE-3", ("lambda", 0), ("mu", mu), ("epsilon", 1)),
                lambda bits: _witness_ee_eigen(a, (0, mu), bits))
    # w^2 = p + iq with q != 0 is not real, so the eigenvalue quartic has no
    # rational y and splits, if at all, into the pair (lam, s)
    _, (lam, s) = _even_quartic(-2 * p, p * p + q * q)
    mu = sqrt_exact(s - lam * lam)
    eps = 1 if q > 0 else -1
    return (_label("ThmEE-3", ("lambda", lam), ("mu", mu), ("epsilon", eps)),
            lambda bits: _witness_ee_eigen(a, (lam, eps * mu), bits))


def _check_hJ2(a: MatrixQ) -> None:
    """TypeError unless a is rational, MembershipError unless it is in h(J2)."""
    _check_rational(a)
    if not lie_membership(a, "hJ2"):
        raise MembershipError("matrix is not in h(J2): a^T J_i + J_i a != 0 for a structure matrix")


def hJ2_canonical_form(a: MatrixQ) -> Tuple[CanonicalLabel, Witness]:
    """Exact canonical label and certified H(J2) witness for a member of h(J2)."""
    _check_hJ2(a)
    label, build = _hJ2_classify(a)
    return label, _make_witness(a, hJ2_canonical_matrix(label), build, _GROUP_FAMILIES["HJ2"])


def hJ2_similar(a: MatrixQ, b: MatrixQ) -> bool:
    """Whether two h(J2) members are conjugate under H(J2), by label equality."""
    _check_hJ2(a)
    _check_hJ2(b)
    return _hJ2_classify(a)[0] == _hJ2_classify(b)[0]


# --------------------------------------------------------------------------
# spectrum symmetry
# --------------------------------------------------------------------------

def eigen_pairing_check(a: MatrixQ) -> bool:
    """Whether the spectrum is symmetric under x -> -x: the odd coefficients of
    char_poly(a) vanish, which by unique factorisation is the symmetry of the
    characteristic factor multiset under x -> -x.

    Requires membership in one of the two supported families, for which the
    symmetry is a theorem; the check itself recomputes it from scratch.
    """
    if not (lie_membership(a, "sp4") or lie_membership(a, "hJ2")):
        raise MembershipError("eigenvalue pairing is only checked for sp(4,R) or h(J2) members")
    return not any(char_poly(a).coeffs[1::2])
