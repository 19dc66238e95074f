"""Canonical forms under the symplectic groups preserving one or two structure matrices.

Three classifiers live here, all exact on the label side and numeric on the
witness side:

* real Jordan shapes of rational matrices (block multisets, with an exact
  rational change of basis whenever every eigenvalue class is rational),
* the ten canonical forms of trace-form-compatible 4x4 matrices under
  Sp(4,R)-conjugation, labelled ``ThmE-1`` .. ``ThmE-10``,
* the three canonical forms of matrices compatible with a pair of symplectic
  structures, labelled ``ThmEE-1`` .. ``ThmEE-3``.

Labels carry exact parameters (Fraction or quadratic-extension values), so
label equality decides conjugacy.  Witnesses are double-precision basis
matrices W with residuals reported for both the similarity and the
group-membership equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .linalg import (
    MAX_DIM,
    Echelon,
    MatrixQ,
    PolyQ,
    QuadExt,
    char_poly,
    factor_over_rationals,
    nullspace,
    sqrt_exact,
    symmetric_signature,
)

Scalar = Union[int, Fraction, QuadExt]

#: residual bound a valid witness is expected to satisfy (documented contract,
#: asserted by the test-suite rather than enforced here)
RESIDUAL_TOLERANCE = 1e-9

J_SP4 = MatrixQ([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
J_HJ2_1 = J_SP4
J_HJ2_2 = MatrixQ([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])

_LIE_FAMILIES = {"sp4": (J_SP4,), "hJ2": (J_HJ2_1, J_HJ2_2)}
_GROUP_FAMILIES = {"Sp4": (J_SP4,), "HJ2": (J_HJ2_1, J_HJ2_2)}


class MembershipError(ValueError):
    """A matrix fails a required algebra/group membership test (or has the wrong shape)."""


class UnsupportedFactorError(ValueError):
    """A characteristic-polynomial factor falls outside the supported catalog."""


# --------------------------------------------------------------------------
# membership predicates
# --------------------------------------------------------------------------

def lie_membership(a: MatrixQ, family: str) -> bool:
    """Exact test of a^T J + J a = 0 for every structure matrix of the family."""
    mats = _LIE_FAMILIES.get(family)
    if mats is None:
        raise ValueError(f"unknown algebra family {family!r}; expected 'sp4' or 'hJ2'")
    if a.shape() != (4, 4):
        raise MembershipError(f"membership test needs a 4x4 matrix, got {a.nrows}x{a.ncols}")
    at = a.transpose()
    return all((at @ J + J @ a).is_zero() for J in mats)


def group_membership(A: MatrixQ, family: str) -> bool:
    """Exact test of A^T J A = J for every structure matrix of the family."""
    mats = _GROUP_FAMILIES.get(family)
    if mats is None:
        raise ValueError(f"unknown group family {family!r}; expected 'Sp4' or 'HJ2'")
    if A.shape() != (4, 4):
        raise MembershipError(f"membership test needs a 4x4 matrix, got {A.nrows}x{A.ncols}")
    At = A.transpose()
    return all(At @ J @ A == J for J in mats)


# --------------------------------------------------------------------------
# labels and witnesses
# --------------------------------------------------------------------------

def _normalize_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x.as_fraction() if x.is_rational else x
    if isinstance(x, int):
        return Fraction(x)
    return x


def _fmt_scalar(x) -> str:
    return repr(x) if isinstance(x, QuadExt) else str(x)


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
        return " ".join([self.family] + [f"{k}={_fmt_scalar(v)}" for k, v in self.params])


def _label(family: str, *params: Tuple[str, object]) -> CanonicalLabel:
    return CanonicalLabel(
        family,
        tuple((name, value if isinstance(value, int) and name in ("epsilon", "delta") else _normalize_scalar(value))
              for name, value in params),
    )


@dataclass(frozen=True, eq=False)
class Witness:
    """Numeric change of basis: columns of W express the canonical frame.

    ``residual_similarity`` is max|W^-1 a W - canonical| and ``residual_group``
    is max|W^T J W - J| over the family's structure matrices.
    """

    W: np.ndarray
    residual_similarity: float
    residual_group: float


def _to_np(M: MatrixQ) -> np.ndarray:
    return np.array(M.to_float(), dtype=float)


_J_NP = _to_np(J_SP4)


def _col_np(v: MatrixQ) -> np.ndarray:
    return np.array([float(x) for x in v.col(0)], dtype=float)


def _omega(x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ _J_NP @ y)


def _max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def _make_witness(a: MatrixQ, target: MatrixQ, W: np.ndarray, js: Sequence[MatrixQ]) -> Witness:
    af = _to_np(a)
    tf = _to_np(target)
    Winv = np.linalg.inv(W)
    res_sim = _max_abs(Winv @ af @ W - tf)
    res_grp = max(_max_abs(W.T @ _to_np(J) @ W - _to_np(J)) for J in js)
    return Witness(W=W, residual_similarity=res_sim, residual_group=res_grp)


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


def _block_sizes(N: MatrixQ, multiplicity: int, step: int) -> List[int]:
    """Block sizes for one eigenvalue class from kernel dimensions of N^k."""
    n = N.nrows
    dims = [0]
    power = MatrixQ.identity(n)
    while dims[-1] < step * multiplicity:
        power = power @ N
        dims.append(n - power.rank())
    deltas = [(dims[k] - dims[k - 1]) // step for k in range(1, len(dims))]
    sizes: List[int] = []
    for k in range(1, len(deltas) + 1):
        nxt = deltas[k] if k < len(deltas) else 0
        sizes.extend([k] * (deltas[k - 1] - nxt))
    return sorted(sizes, reverse=True)


def _jordan_chains(N: MatrixQ, sizes: Sequence[int]) -> List[List[MatrixQ]]:
    """Exact Jordan chains for a nilpotent-on-its-kernel-tower map N = M - lam*I.

    ``sizes`` lists the wanted chain lengths in descending order; the returned
    chains come back aligned with that order, each as columns
    [N^(s-1) t, ..., N t, t].
    """
    top_size = sizes[0]
    powers = [MatrixQ.identity(N.nrows)]
    for _ in range(top_size):
        powers.append(powers[-1] @ N)
    kernels = [nullspace(powers[h]) for h in range(top_size + 1)]
    tops: List[Tuple[int, MatrixQ]] = []
    carried: List[MatrixQ] = []
    for h in range(top_size, 0, -1):
        wanted = sizes.count(h)
        span = Echelon(N.nrows, [w.col(0) for w in kernels[h - 1] + carried])
        fresh: List[MatrixQ] = []
        for v in kernels[h]:
            if len(fresh) == wanted:
                break
            if span.add(v.col(0)):
                fresh.append(v)
        if len(fresh) != wanted:
            raise ArithmeticError("Jordan chain selection failed to reach the required block count")
        tops.extend((h, v) for v in fresh)
        carried = [N @ w for w in carried + fresh]
    chains: Dict[int, List[List[MatrixQ]]] = {}
    for s, t in tops:
        chains.setdefault(s, []).append([powers[s - 1 - j] @ t for j in range(s)])
    out: List[List[MatrixQ]] = []
    used: Dict[int, int] = {}
    for s in sizes:
        out.append(chains[s][used.get(s, 0)])
        used[s] = used.get(s, 0) + 1
    return out


def _rjcf_witness(M: MatrixQ, shape: RjcfShape) -> MatrixQ:
    n = M.nrows
    by_class: Dict[Fraction, List[int]] = {}
    for cls, size in shape.blocks:
        by_class.setdefault(cls, []).append(size)
    chain_pool: Dict[Fraction, List[List[MatrixQ]]] = {}
    for lam, sizes in by_class.items():
        ordered = sorted(sizes, reverse=True)
        chain_pool[lam] = _jordan_chains(M - MatrixQ.identity(n) * lam, ordered)
    taken: Dict[Fraction, Dict[int, int]] = {lam: {} for lam in by_class}
    cols: List[MatrixQ] = []
    for cls, size in shape.blocks:
        ordered = sorted(by_class[cls], reverse=True)
        pool = chain_pool[cls]
        idx = taken[cls].get(size, ordered.index(size))
        cols.extend(pool[idx])
        taken[cls][size] = idx + 1
    P = reduce(MatrixQ.hstack, cols)
    return P


def rjcf_shape(M: MatrixQ) -> Tuple[RjcfShape, Optional[MatrixQ]]:
    """Real Jordan block structure of a rational matrix, with exact witness.

    Returns ``(shape, P)`` where P satisfies P^-1 M P = J exactly for the
    block-diagonal Jordan matrix J in the shape's block order; P is None as
    soon as any eigenvalue class is a quadratic (the shape itself is still
    exact, via kernel dimensions of powers of the quadratic evaluated at M).
    """
    if not M.is_square:
        raise ValueError("real Jordan shape of a non-square matrix")
    p = char_poly(M)
    terms = factor_over_rationals(p)
    blocks: List[Tuple[Union[Fraction, PolyQ], int]] = []
    all_rational = True
    for term in terms:
        q = term.poly
        if q.degree == 1:
            lam = -q.coeff(0)
            sizes = _block_sizes(M - MatrixQ.identity(M.nrows) * lam, term.multiplicity, step=1)
            blocks.extend((lam, s) for s in sizes)
        elif q.degree == 2:
            all_rational = False
            sizes = _block_sizes(q.eval_matrix(M), term.multiplicity, step=2)
            blocks.extend((q, s) for s in sizes)
        else:
            raise UnsupportedFactorError(
                f"characteristic factor {q!r} has degree {q.degree}; only degree <= 2 is supported"
            )
    shape = RjcfShape(tuple(sorted(blocks, key=_block_sort_key)))
    witness = None
    if all_rational:
        witness = _rjcf_witness(M, shape)
    return shape, witness


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

class _Spectrum:
    """Decomposition of an even quartic's roots, exactly over Q or Q(sqrt d)."""

    __slots__ = ("real_roots", "imag", "complex_pair")

    def __init__(self, real_roots, imag, complex_pair):
        self.real_roots = real_roots      # multiset of exact real eigenvalues
        self.imag = imag                  # [(m, multiplicity)] for factors x^2 + m, m > 0
        self.complex_pair = complex_pair  # (lam, s) for (x^2-2*lam*x+s)(x^2+2*lam*x+s), or None


def _sp4_spectrum(p: PolyQ) -> _Spectrum:
    terms = factor_over_rationals(p)
    for term in terms:
        if term.poly.degree > 2:
            raise UnsupportedFactorError(
                f"characteristic factor {term.poly!r} has degree {term.poly.degree}; "
                "only degree <= 2 is supported"
            )
    real_roots: List[Scalar] = []
    imag: List[Tuple[Fraction, int]] = []
    negative_disc: List[Tuple[Fraction, Fraction]] = []
    for term in terms:
        q = term.poly
        if q.degree == 1:
            real_roots.extend([_normalize_scalar(-q.coeff(0))] * term.multiplicity)
            continue
        b, c = q.coeff(1), q.coeff(0)
        if b == 0:
            if c < 0:
                r = sqrt_exact(-c)
                real_roots.extend([_normalize_scalar(r)] * term.multiplicity)
                real_roots.extend([_normalize_scalar(-r)] * term.multiplicity)
            else:
                imag.append((c, term.multiplicity))
            continue
        disc = b * b - 4 * c
        if disc > 0:
            r1 = QuadExt(Fraction(-b, 2), Fraction(1, 2), disc)
            r2 = QuadExt(Fraction(-b, 2), Fraction(-1, 2), disc)
            real_roots.extend([_normalize_scalar(r1)] * term.multiplicity)
            real_roots.extend([_normalize_scalar(r2)] * term.multiplicity)
        else:
            negative_disc.append((b, c))
    complex_pair = None
    if negative_disc:
        if len(negative_disc) != 2 or sorted(negative_disc) != sorted([(-b, c) for b, c in negative_disc]):
            raise UnsupportedFactorError(
                "complex quadratic factors do not pair up under x -> -x; "
                "the matrix is outside the symplectic spectrum catalog"
            )
        b, c = min(negative_disc)  # the factor with negative linear coefficient
        complex_pair = (Fraction(-b, 2), c)
    return _Spectrum(real_roots, imag, complex_pair)


def _paired_nonnegative(roots: Sequence[Scalar]) -> Tuple[Scalar, Scalar]:
    """Pair a negation-symmetric 4-multiset into (lam, mu) with lam >= mu >= 0."""
    pool = list(roots)
    halves = []
    for _ in range(2):
        top = pool[0]
        for r in pool[1:]:
            if r > top:
                top = r
        pool.remove(top)
        pool.remove(_normalize_scalar(-top))
        halves.append(top)
    lam, mu = halves
    if mu > lam:
        lam, mu = mu, lam
    return lam, mu


def _restricted_signature(S: MatrixQ, basis_cols: Sequence[MatrixQ]) -> Tuple[int, int, int]:
    B = reduce(MatrixQ.hstack, basis_cols)
    return symmetric_signature(B.transpose() @ S @ B)


def _definite_sign(S: MatrixQ, basis_cols: Sequence[MatrixQ]) -> int:
    pos, neg, zero = _restricted_signature(S, basis_cols)
    if zero or (pos and neg):
        raise ArithmeticError("restricted form is unexpectedly indefinite")
    return 1 if pos else -1


def _chain_sign(S: MatrixQ, basis_cols: Optional[Sequence[MatrixQ]]) -> int:
    """Sign parameter from a rank-1 restriction: one negative direction -> +1."""
    if basis_cols is None:
        pos, neg, _ = symmetric_signature(S)
    else:
        pos, neg, _ = _restricted_signature(S, basis_cols)
    if (pos, neg) == (0, 1):
        return 1
    if (pos, neg) == (1, 0):
        return -1
    raise ArithmeticError(f"expected a rank-1 definite restriction, got signature ({pos},{neg})")


# --------------------------------------------------------------------------
# sp(4) witness constructions (numeric)
# --------------------------------------------------------------------------

def _eig_kernel(a: MatrixQ, lam: Scalar) -> List[MatrixQ]:
    return nullspace(a - MatrixQ.identity(4) * lam)


def _scaled_pair(v: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return v, w / _omega(v, w)


def _first_col_outside_kernel(a: MatrixQ, cols: Sequence[MatrixQ]) -> MatrixQ:
    for v in cols:
        if not (a @ v).is_zero():
            return v
    raise ArithmeticError("no basis column escapes the kernel")


def _plane_pair(a: MatrixQ, af: np.ndarray, m: Fraction) -> Tuple[np.ndarray, np.ndarray]:
    """Scaled symplectic pair (u, t) spanning ker(a^2 + m), with a u = -+ sqrt(m) t."""
    P = nullspace(PolyQ([m, 0, 1]).eval_matrix(a))
    u = _col_np(P[0])
    muf = math.sqrt(float(m))
    t = -(af @ u) / muf
    c = _omega(u, t)
    if c < 0:
        t, c = -t, -c
    s = math.sqrt(c)
    return u / s, t / s


def _witness_e1_distinct(a: MatrixQ, lam: Scalar, mu: Scalar) -> np.ndarray:
    vl = _col_np(_eig_kernel(a, lam)[0])
    wl = _col_np(_eig_kernel(a, -lam)[0])
    vm = _col_np(_eig_kernel(a, mu)[0])
    wm = _col_np(_eig_kernel(a, -mu)[0])
    vl, wl = _scaled_pair(vl, wl)
    vm, wm = _scaled_pair(vm, wm)
    return np.column_stack([vl, vm, wl, wm])


def _witness_e1_double(a: MatrixQ, lam: Scalar) -> np.ndarray:
    Vp = [_col_np(v) for v in _eig_kernel(a, lam)]
    Vm = [_col_np(v) for v in _eig_kernel(a, -lam)]
    G = np.array([[_omega(vp, vm) for vm in Vm] for vp in Vp])
    Wm = np.column_stack(Vm) @ np.linalg.inv(G)
    return np.column_stack([Vp[0], Vp[1], Wm[:, 0], Wm[:, 1]])


def _witness_e1_semisimple_zero(a: MatrixQ, lam: Scalar) -> np.ndarray:
    v1 = _col_np(_eig_kernel(a, lam)[0])
    w1 = _col_np(_eig_kernel(a, -lam)[0])
    v1, w1 = _scaled_pair(v1, w1)
    K0 = nullspace(a)
    u = _col_np(K0[0])
    t = _col_np(K0[1])
    u, t = _scaled_pair(u, t)
    return np.column_stack([v1, u, w1, t])


def _witness_e2(a: MatrixQ, af: np.ndarray, lam: Scalar, eps: int) -> np.ndarray:
    v1 = _col_np(_eig_kernel(a, lam)[0])
    w1 = _col_np(_eig_kernel(a, -lam)[0])
    v1, w1 = _scaled_pair(v1, w1)
    K0 = nullspace(a @ a)
    w2 = _col_np(_first_col_outside_kernel(a, K0))
    av = af @ w2
    c = _omega(av, w2)
    s = math.sqrt(abs(c))
    return np.column_stack([v1, (eps / s) * av, w1, w2 / s])


def _witness_e2_nilrank1(a: MatrixQ, af: np.ndarray, eps: int) -> np.ndarray:
    j = next(j for j in range(4) if any(x != 0 for x in a.col(j)))
    w2x = MatrixQ.column([1 if i == j else 0 for i in range(4)])
    v2x = a @ w2x
    rows = MatrixQ([(J_SP4 @ v2x).col(0), (J_SP4 @ w2x).col(0)])
    U = nullspace(rows)
    u = _col_np(U[0])
    t = _col_np(U[1])
    u, t = _scaled_pair(u, t)
    w2 = _col_np(w2x)
    av = af @ w2
    c = _omega(av, w2)
    s = math.sqrt(abs(c))
    return np.column_stack([u, (eps / s) * av, t, w2 / s])


def _witness_e3_hyperbolic(a: MatrixQ, af: np.ndarray, lam: Scalar) -> np.ndarray:
    lamf = float(lam)
    I4 = MatrixQ.identity(4)
    Ap = a - I4 * lam
    Am = a + I4 * lam
    v2 = _col_np(_first_col_outside_kernel(Ap, nullspace(Ap @ Ap)))
    w2 = _col_np(_first_col_outside_kernel(Am, nullspace(Am @ Am)))
    v1 = af @ v2 - lamf * v2
    w1p = af @ w2 + lamf * w2
    T = _omega(v2, w1p)
    R = _omega(v2, w2)
    x3 = -(w2 - (R / T) * w1p) / T
    x4 = w1p / T
    return np.column_stack([v1, v2, x3, x4])


def _witness_e3_nilpotent(a: MatrixQ, af: np.ndarray) -> np.ndarray:
    cols = [MatrixQ.column([1 if i == j else 0 for i in range(4)]) for j in range(4)]
    i, j = next(
        (i, j) for i in range(4) for j in range(i + 1, 4)
        if (a @ cols[i]).hstack(a @ cols[j]).rank() == 2
    )
    x = _col_np(cols[i])
    y = _col_np(cols[j])
    S = J_SP4 @ a
    A, B, C = S[(i, i)], S[(i, j)], S[(j, j)]
    if A == 0:
        u1 = x
        u2 = -float(C / (2 * B)) * x + y
    else:
        disc = math.sqrt(float(B * B - A * C))
        u1 = ((float(-B) + disc) / float(A)) * x + y
        u2 = ((float(-B) - disc) / float(A)) * x + y
    b = _omega(u1, af @ u2)
    c = -1.0 / b
    s = _omega(u1, u2)
    z = -(c * s / b) * (af @ u2)
    return np.column_stack([af @ u1, u1, c * u2 + z, -c * (af @ u2)])


def _witness_e4(a: MatrixQ, af: np.ndarray, eps: int) -> np.ndarray:
    j = next(j for j in range(4) if any(x != 0 for x in a.col(j)))
    u0 = MatrixQ.column([1 if i == j else 0 for i in range(4)])
    u = _col_np(u0)
    v1 = eps * (af @ u)
    s1 = math.sqrt(_omega(v1, u))
    rows = MatrixQ([(J_SP4 @ (a @ u0)).col(0), (J_SP4 @ u0).col(0)])
    Uperp = nullspace(rows)
    w2 = _col_np(_first_col_outside_kernel(a, Uperp))
    v2 = eps * (af @ w2)
    s2 = math.sqrt(_omega(v2, w2))
    return np.column_stack([v1 / s1, v2 / s2, u / s1, w2 / s2])


def _witness_e5(a: MatrixQ, af: np.ndarray, eps: int) -> np.ndarray:
    a3 = a @ a @ a
    j = next(j for j in range(4) if any(x != 0 for x in a3.col(j)))
    t = np.zeros(4)
    t[j] = 1.0
    at, a2t, a3t = af @ t, af @ af @ t, _to_np(a3) @ t
    q = _omega(a3t, t)
    gamma = _omega(t, at) / (2 * q)
    t = t + gamma * a2t
    at = at + gamma * a3t
    beta = 1.0 / math.sqrt(abs(q))
    return np.column_stack([-eps * beta * a3t, -eps * beta * a2t, beta * t, -beta * at])


def _witness_e6(a: MatrixQ, af: np.ndarray, lam: Scalar, m: Fraction) -> np.ndarray:
    if lam != 0:
        v1 = _col_np(_eig_kernel(a, lam)[0])
        w1 = _col_np(_eig_kernel(a, -lam)[0])
    else:
        K0 = nullspace(a)
        v1, w1 = _col_np(K0[0]), _col_np(K0[1])
    v1, w1 = _scaled_pair(v1, w1)
    u, t = _plane_pair(a, af, m)
    return np.column_stack([v1, u, w1, t])


def _witness_e7(a: MatrixQ, af: np.ndarray, m: Fraction, eps: int) -> np.ndarray:
    K0 = nullspace(a @ a)
    w1 = _col_np(_first_col_outside_kernel(a, K0))
    v1 = eps * (af @ w1)
    s1 = math.sqrt(_omega(v1, w1))
    u, t = _plane_pair(a, af, m)
    return np.column_stack([v1 / s1, u, w1 / s1, t])


def _witness_e8(a: MatrixQ, af: np.ndarray, lam: Fraction, s: Fraction) -> np.ndarray:
    lamf = float(lam)
    muf = math.sqrt(float(s - lam * lam))
    I4 = MatrixQ.identity(4)
    fplus = a @ a - (a * (2 * lam)) + I4 * s
    fminus = a @ a + (a * (2 * lam)) + I4 * s
    u = _col_np(nullspace(fplus)[0])
    z = _col_np(nullspace(fminus)[0])
    v1 = u
    v2 = -(af @ u - lamf * u) / muf
    w2c = -(af @ z + lamf * z) / muf
    alpha = _omega(v1, z)
    beta = _omega(v1, w2c)
    r = math.hypot(alpha, beta)
    w1 = (alpha * z + beta * w2c) / r
    w2 = (alpha * w2c - beta * z) / r
    return np.column_stack([v1, v2, w1 / r, w2 / r])


def _nullf_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    A = np.array(rows, dtype=float)
    _, _, vh = np.linalg.svd(A)
    return vh[len(rows):].T


def _witness_e8_zero(a: MatrixQ, af: np.ndarray, m: Fraction) -> np.ndarray:
    muf = math.sqrt(float(m))
    S = _to_np(J_SP4 @ a)
    _, vecs = np.linalg.eigh(S)
    u1 = vecs[:, -1]
    t1 = -(af @ u1) / muf
    Wc = _nullf_rows([_J_NP @ u1, _J_NP @ t1])
    u2 = Wc[:, 0]
    u1 = u1 / math.sqrt(float(u1 @ S @ u1))
    u2 = u2 / math.sqrt(float(-(u2 @ S @ u2)))
    t1 = -(af @ u1) / muf
    t2 = -(af @ u2) / muf
    x = u1 + u2
    y = t1 - t2
    c = _omega(x, y)
    return np.column_stack([x, -(af @ x) / muf, y / c, -(af @ y) / (c * muf)])


def _witness_e9_distinct(a: MatrixQ, af: np.ndarray, m1: Fraction, m2: Fraction) -> np.ndarray:
    u1, t1 = _plane_pair(a, af, m1)
    u2, t2 = _plane_pair(a, af, m2)
    return np.column_stack([u1, u2, t1, t2])


def _witness_e9_equal(a: MatrixQ, af: np.ndarray, m: Fraction) -> np.ndarray:
    muf = math.sqrt(float(m))
    e1x = MatrixQ.column([1, 0, 0, 0])
    rows = MatrixQ([(J_SP4 @ e1x).col(0), (J_SP4 @ (a @ e1x)).col(0)])
    U = nullspace(rows)

    def pair(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t = -(af @ u) / muf
        c = _omega(u, t)
        if c < 0:
            t, c = -t, -c
        s = math.sqrt(c)
        return u / s, t / s

    u1, t1 = pair(_col_np(e1x))
    u2, t2 = pair(_col_np(U[0]))
    return np.column_stack([u1, u2, t1, t2])


def _witness_e10(a: MatrixQ, af: np.ndarray, m: Fraction) -> np.ndarray:
    muf = math.sqrt(float(m))
    I4 = MatrixQ.identity(4)
    b = a @ a + I4 * m
    c = a @ b
    Jc = J_SP4 @ c
    i = max(range(4), key=lambda k: abs(float(Jc[(k, k)])))
    u = np.zeros(4)
    u[i] = 1.0
    bf, cf = _to_np(b), _to_np(c)
    q1 = -(bf @ u) / (2 * muf)
    p1 = -(cf @ u) / (2 * muf * muf)
    q2 = (p1 - af @ u) / muf
    p2 = u
    corr = _omega(p2, q2) / (2 * _omega(p2, p1))
    p2 = p2 + corr * q1
    q2 = q2 - corr * p1
    kappa = _omega(p1, p2)
    if kappa < 0:
        p2, q2, kappa = -p2, -q2, -kappa
    s = math.sqrt(kappa)
    return np.column_stack([p1 / s, q1 / s, p2 / s, q2 / s])


# --------------------------------------------------------------------------
# sp(4) classifier
# --------------------------------------------------------------------------

def _classify_all_real(a: MatrixQ, af: np.ndarray, roots: Sequence[Scalar]):
    lam, mu = _paired_nonnegative(roots)
    Ja = J_SP4 @ a
    if mu != 0 and lam != mu:
        return _label("ThmE-1", ("lambda", lam), ("mu", mu)), lambda: _witness_e1_distinct(a, lam, mu)
    if mu != 0:
        lam2 = _normalize_scalar(lam * lam)
        if a @ a == MatrixQ.diagonal([lam2] * 4):
            return _label("ThmE-1", ("lambda", lam), ("mu", lam)), lambda: _witness_e1_double(a, lam)
        return _label("ThmE-3", ("lambda", lam)), lambda: _witness_e3_hyperbolic(a, af, lam)
    if lam != 0:
        lam2 = _normalize_scalar(lam * lam)
        if a @ a @ a == a * lam2:
            return (_label("ThmE-1", ("lambda", lam), ("mu", 0)),
                    lambda: _witness_e1_semisimple_zero(a, lam))
        eps = _chain_sign(Ja, nullspace(a @ a))
        return _label("ThmE-2", ("lambda", lam), ("epsilon", eps)), lambda: _witness_e2(a, af, lam, eps)
    if a.is_zero():
        return _label("ThmE-1", ("lambda", 0), ("mu", 0)), lambda: np.eye(4)
    if (a @ a).is_zero():
        if a.rank() == 1:
            eps = _chain_sign(Ja, None)
            return (_label("ThmE-2", ("lambda", 0), ("epsilon", eps)),
                    lambda: _witness_e2_nilrank1(a, af, eps))
        pos, neg, _ = symmetric_signature(Ja)
        if (pos, neg) == (1, 1):
            return _label("ThmE-3", ("lambda", 0)), lambda: _witness_e3_nilpotent(a, af)
        eps = 1 if (pos, neg) == (0, 2) else -1
        return _label("ThmE-4", ("epsilon", eps)), lambda: _witness_e4(a, af, eps)
    pos, neg, _ = symmetric_signature(J_SP4 @ a @ a @ a)
    if (pos, neg) not in ((1, 0), (0, 1)):
        raise ArithmeticError(f"unexpected signature ({pos},{neg}) for a nilpotent chain of length 4")
    eps = 1 if (pos, neg) == (1, 0) else -1
    return _label("ThmE-5", ("epsilon", eps)), lambda: _witness_e5(a, af, eps)


def _classify_mixed(a: MatrixQ, af: np.ndarray, roots: Sequence[Scalar], m: Fraction):
    lam = roots[0] if roots[0] >= 0 else roots[1]
    mu = sqrt_exact(m)
    P = nullspace(PolyQ([m, 0, 1]).eval_matrix(a))
    plane_sign = -_definite_sign(J_SP4 @ a, P)
    if lam != 0 or (a @ PolyQ([m, 0, 1]).eval_matrix(a)).is_zero():
        return (_label("ThmE-6", ("lambda", lam), ("mu", mu), ("epsilon", plane_sign)),
                lambda: _witness_e6(a, af, lam, m))
    eps = _chain_sign(J_SP4 @ a, nullspace(a @ a))
    return (_label("ThmE-7", ("mu", mu), ("epsilon", eps), ("delta", plane_sign)),
            lambda: _witness_e7(a, af, m, eps))


def _classify_imaginary(a: MatrixQ, af: np.ndarray, imag: Sequence[Tuple[Fraction, int]]):
    Ja = J_SP4 @ a
    if len(imag) == 2:
        (m1, _), (m2, _) = sorted(imag, reverse=True)
        s1 = -_definite_sign(Ja, nullspace(PolyQ([m1, 0, 1]).eval_matrix(a)))
        s2 = -_definite_sign(Ja, nullspace(PolyQ([m2, 0, 1]).eval_matrix(a)))
        mu = sqrt_exact(m1)
        f2 = sqrt_exact(m2)
        eta = f2 if s1 == s2 else -f2
        return (_label("ThmE-9", ("mu", mu), ("epsilon", s1), ("eta", eta)),
                lambda: _witness_e9_distinct(a, af, m1, m2))
    (m, _), = imag
    mu = sqrt_exact(m)
    if PolyQ([m, 0, 1]).eval_matrix(a).is_zero():
        pos, neg, _ = symmetric_signature(Ja)
        if (pos, neg) == (2, 2):
            return _label("ThmE-8", ("lambda", 0), ("mu", mu)), lambda: _witness_e8_zero(a, af, m)
        eps = 1 if (pos, neg) == (0, 4) else -1
        return (_label("ThmE-9", ("mu", mu), ("epsilon", eps), ("eta", mu)),
                lambda: _witness_e9_equal(a, af, m))
    c = a @ a @ a + a * m
    pos, neg, _ = symmetric_signature(J_SP4 @ c)
    if (pos, neg) not in ((2, 0), (0, 2)):
        raise ArithmeticError(f"unexpected signature ({pos},{neg}) for a repeated imaginary pair")
    eps = 1 if (pos, neg) == (2, 0) else -1
    return _label("ThmE-10", ("mu", mu), ("epsilon", eps)), lambda: _witness_e10(a, af, m)


def _sp4_classify(a: MatrixQ) -> Tuple[CanonicalLabel, Callable[[], np.ndarray]]:
    af = _to_np(a)
    spectrum = _sp4_spectrum(char_poly(a))
    if spectrum.complex_pair is not None:
        lam, s = spectrum.complex_pair
        mu = sqrt_exact(s - lam * lam)
        return (_label("ThmE-8", ("lambda", lam), ("mu", mu)),
                lambda: _witness_e8(a, af, lam, s))
    if len(spectrum.real_roots) == 4:
        return _classify_all_real(a, af, spectrum.real_roots)
    if len(spectrum.real_roots) == 2:
        (m, _), = spectrum.imag
        return _classify_mixed(a, af, spectrum.real_roots, m)
    return _classify_imaginary(a, af, spectrum.imag)


def sp4_canonical_form(a: MatrixQ) -> Tuple[CanonicalLabel, Witness]:
    """Exact canonical label and numeric Sp(4,R) witness for a member of sp(4,R)."""
    if not lie_membership(a, "sp4"):
        raise MembershipError("matrix is not in sp(4,R): a^T J + J a != 0")
    label, build = _sp4_classify(a)
    W = build()
    return label, _make_witness(a, sp4_canonical_matrix(label), W, (J_SP4,))


def symplectically_similar(a: MatrixQ, b: MatrixQ) -> bool:
    """Whether two sp(4,R) members are conjugate under Sp(4,R), by label equality."""
    for m in (a, b):
        if not lie_membership(m, "sp4"):
            raise MembershipError("matrix is not in sp(4,R): a^T J + J a != 0")
    return _sp4_classify(a)[0] == _sp4_classify(b)[0]


# --------------------------------------------------------------------------
# the two-structure family: complexification classifier
# --------------------------------------------------------------------------

def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _complexify_matrix(a: MatrixQ):
    """The 2x2 complex matrix (as exact re/im pairs) induced on the K-eigencoordinates.

    Real coordinates (w1,w2,w3,w4) correspond to complex pairs
    (w1 - i w2, w3 + i w4); the two complex columns are the images of the real
    basis vectors e1 and e3.
    """
    def pack(col):
        w1, w2, w3, w4 = col
        return ((Fraction(w1), -Fraction(w2)), (Fraction(w3), Fraction(w4)))

    c1 = pack(a.col(0))
    c2 = pack(a.col(2))
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def _complex_eigvec(T: np.ndarray, w: complex) -> np.ndarray:
    v1 = np.array([T[0, 1], w - T[0, 0]])
    v2 = np.array([w - T[1, 1], T[1, 0]])
    v = v1 if np.abs(v1).sum() >= np.abs(v2).sum() else v2
    return v / np.linalg.norm(v)


def _realify_basis(T: np.ndarray) -> np.ndarray:
    cols = []
    for z in (np.array([1, 0]), np.array([-1j, 0]), np.array([0, 1]), np.array([0, 1j])):
        img = T @ z
        cols.append([img[0].real, -img[0].imag, img[1].real, img[1].imag])
    return np.array(cols).T


def _hJ2_classify(a: MatrixQ) -> Tuple[CanonicalLabel, Callable[[], np.ndarray]]:
    ac = _complexify_matrix(a)
    (z11, z12), (z21, z22) = ac
    det = tuple(x - y for x, y in zip(_cmul(z11, z22), _cmul(z21, z12)))
    p, q = -det[0], -det[1]  # w^2 = -det, eigenvalues are +-w
    acf = np.array([[complex(z11[0], z11[1]), complex(z12[0], z12[1])],
                    [complex(z21[0], z21[1]), complex(z22[0], z22[1])]])

    def diagonalizing(wv: complex) -> np.ndarray:
        vp = _complex_eigvec(acf, wv)
        vm = _complex_eigvec(acf, -wv)
        T = np.column_stack([vp, vm])
        return np.column_stack([vp, vm / np.linalg.det(T)])

    if q == 0:
        if all(x == 0 and y == 0 for x, y in (z11, z12, z21, z22)):
            return _label("ThmEE-1", ("lambda", 0)), lambda: np.eye(2, dtype=complex)
        if p == 0:
            def chain() -> np.ndarray:
                col0_nonzero = any(x != 0 for x in (*z11, *z21))
                u = np.array([1.0 + 0j, 0]) if col0_nonzero else np.array([0, 1.0 + 0j])
                T = np.column_stack([acf @ u, u])
                return T / np.sqrt(np.linalg.det(T) + 0j)
            return _label("ThmEE-2"), chain
        if p > 0:
            lam = sqrt_exact(p)
            return _label("ThmEE-1", ("lambda", lam)), lambda: diagonalizing(math.sqrt(float(p)))
        mu = sqrt_exact(-p)
        return (_label("ThmEE-3", ("lambda", 0), ("mu", mu), ("epsilon", 1)),
                lambda: diagonalizing(1j * math.sqrt(float(-p))))
    quartic = PolyQ([p * p + q * q, 0, -2 * p, 0, 1])
    terms = factor_over_rationals(quartic)
    pair = [t.poly for t in terms if t.poly.degree == 2]
    if len(pair) != 2:
        raise UnsupportedFactorError(
            f"eigenvalue quartic {quartic!r} does not split into quadratics over the rationals"
        )
    b, s = min((t.coeff(1), t.coeff(0)) for t in pair)
    lam = Fraction(-b, 2)
    if p != 2 * lam * lam - s:
        raise ArithmeticError("eigenvalue quartic factorization is inconsistent")
    mu = sqrt_exact(s - lam * lam)
    eps = 1 if q > 0 else -1
    wv = complex(float(lam), eps * math.sqrt(float(s - lam * lam)))
    return (_label("ThmEE-3", ("lambda", lam), ("mu", mu), ("epsilon", eps)),
            lambda: diagonalizing(wv))


def hJ2_canonical_form(a: MatrixQ) -> Tuple[CanonicalLabel, Witness]:
    """Exact canonical label and numeric H(J2) witness for a member of h(J2)."""
    if not lie_membership(a, "hJ2"):
        raise MembershipError("matrix is not in h(J2): a^T J_i + J_i a != 0 for a structure matrix")
    label, build = _hJ2_classify(a)
    W = _realify_basis(build())
    return label, _make_witness(a, hJ2_canonical_matrix(label), W, (J_HJ2_1, J_HJ2_2))


def hJ2_similar(a: MatrixQ, b: MatrixQ) -> bool:
    """Whether two h(J2) members are conjugate under H(J2), by label equality."""
    for m in (a, b):
        if not lie_membership(m, "hJ2"):
            raise MembershipError("matrix is not in h(J2): a^T J_i + J_i a != 0 for a structure matrix")
    return _hJ2_classify(a)[0] == _hJ2_classify(b)[0]


# --------------------------------------------------------------------------
# spectrum symmetry
# --------------------------------------------------------------------------

def _mirror_poly(p: PolyQ) -> PolyQ:
    return PolyQ([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)]).monic()


def eigen_pairing_check(a: MatrixQ) -> bool:
    """Whether the characteristic factor multiset is symmetric under x -> -x.

    Requires membership in one of the two supported families, for which the
    symmetry is a theorem; the check itself recomputes it from scratch.
    """
    if not (lie_membership(a, "sp4") or lie_membership(a, "hJ2")):
        raise MembershipError("eigenvalue pairing is only checked for sp(4,R) or h(J2) members")
    terms = factor_over_rationals(char_poly(a))
    multiset = {t.poly: t.multiplicity for t in terms}
    mirrored = {_mirror_poly(poly): mult for poly, mult in multiset.items()}
    return multiset == mirrored
