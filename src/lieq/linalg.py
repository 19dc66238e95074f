"""Exact linear algebra over the rationals and real quadratic extensions.

Everything in here is exact: matrices carry `fractions.Fraction` entries (or
`QuadExt` elements a + b*sqrt(d) for a fixed square-free integer d), row
reduction never pivots by magnitude, and characteristic polynomials are
computed by the Faddeev-LeVerrier recursion.  Floating point appears nowhere
in this module.

Each operation has one path.  `_matmul` is the one row product: `@` runs it
on integer rows over one common denominator (`_int_rows`), so its multiply-adds
are `int` operations and each result entry becomes a `Fraction` once, and on
the entries themselves when one is a `QuadExt`.  `apply` takes the same two
paths for a matrix-vector product.  A `MatrixQ` computes its integer rows once,
on first use, and keeps them for every later `@`, `apply`, `rank` and
`_char_coeffs`.  `_char_coeffs` is the one Faddeev-LeVerrier loop, over those
integer rows or `QuadExt` entries: `char_poly` rescales its coefficients, and
`symmetric_signature` reads their signs, with no elimination of its own.
`factor_over_rationals` works on one primitive integer polynomial from start to
finish.

`Subspace` is the one span type and the single reduced-echelon kernel:
`nullspace`, `solve_linear`, `_inverse` (the package's one inverse), the
series, centres and nilradicals of `liealg`, and every membership and
coordinate question elsewhere in the package reduce rows through it, as sparse
rows that over Q are primitive integer rows combined fraction-free (Bareiss
1968).  A rank needs no reduced form: `_rank` is the one rank, a forward-only
pass with the same `_primitive` rows and `_eliminate` step, behind
`MatrixQ.rank` and the derivation algebra's dimension.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

Scalar = Union[Fraction, "QuadExt"]

#: the package's scope: algebras of dimension, and matrices of size, up to 7
MAX_DIM = 7


def _as_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


def _as_rational(x) -> Fraction:
    """x as a Fraction by `_as_scalar`'s rule, where a QuadExt is refused too."""
    q = _as_scalar(x)
    if isinstance(q, QuadExt):
        raise TypeError("cannot use QuadExt as a rational scalar")
    return q


def _square_free(n: int) -> Tuple[int, int]:
    """Write n = s**2 * d with d square-free (d carries the sign of n).

    Trial division stops as soon as the cofactor left is a perfect square,
    tested at entry and after each prime divides out, so a square radicand
    costs one isqrt; a large non-square prime part still costs its search.
    """
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, d, p = 1, 1, 2
    r = math.isqrt(n)
    while r * r != n and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                d *= p
            r = math.isqrt(n)
        p += 1 if p == 2 else 2
    if r * r == n:
        return s * r, sign * d
    return s, sign * d * n


class QuadExt:
    """Element a + b*sqrt(d) of a real or imaginary quadratic field.

    a, b and d are exact rationals (int, Fraction or str, as `_as_rational`
    takes them); a float is a TypeError.  d is normalized to a square-free
    integer; a rational radicand p/q is rewritten as sqrt(p*q)/q first.
    Arithmetic is closed for a fixed d and mixes freely with Fraction/int.
    Order comparisons are defined for real values whenever both operands live
    in a common quadratic field (or one of them is rational, or both are pure
    multiples of square roots).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a = _as_rational(a)
        b = _as_rational(b)
        if isinstance(d, QuadExt):
            raise TypeError("radicand must be rational")
        d = _as_rational(d)
        if b == 0 or d == 0:
            self.a, self.b, self.d = a, Fraction(0), 1
            return
        # b*sqrt(p/q) = (b/q)*sqrt(p*q)
        b = b / d.denominator
        rad = d.numerator * d.denominator
        s, d0 = _square_free(rad)
        b = b * s
        if d0 == 1:
            self.a, self.b, self.d = a + b, Fraction(0), 1
        else:
            self.a, self.b, self.d = a, b, d0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _coerce(self, other) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            if other.b == 0:
                return QuadExt(other.a)
            if self.b == 0 or other.d == self.d:
                return other
            return None
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b != 0 else o.d
        out = QuadExt.__new__(QuadExt)
        out.a, out.b, out.d = self.a + o.a, self.b + o.b, d
        if out.b == 0:
            out.d = 1
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QuadExt.__new__(QuadExt)
        out.a, out.b, out.d = -self.a, -self.b, self.d
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b != 0 and o.b != 0:
            d = self.d
            a = self.a * o.a + self.b * o.b * d
            b = self.a * o.b + self.b * o.a
        else:
            d = self.d if self.b != 0 else o.d
            a = self.a * o.a
            b = self.a * o.b + self.b * o.a
        out = QuadExt.__new__(QuadExt)
        out.a, out.b, out.d = a, b, d if b != 0 else 1
        return out

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        out = QuadExt.__new__(QuadExt)
        out.a, out.b, out.d = self.a, -self.b, self.d
        return out

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError("zero field norm")  # impossible: d square-free
        c = self.conjugate()
        out = QuadExt.__new__(QuadExt)
        out.a, out.b, out.d = c.a / n, c.b / n, self.d
        if out.b == 0:
            out.d = 1
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(d); requires d > 0 when b != 0."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.d < 0:
            raise ValueError(f"{self} is not real")
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lead = 1 if self.a > 0 else -1
        return lead if self.a * self.a > self.b * self.b * self.d else -lead

    def _diff_sign(self, other) -> int:
        o = self._coerce(other)
        if o is None and isinstance(other, QuadExt):
            # different radicands: comparable when both are pure radicals
            if self.a == 0 and other.a == 0:
                if self.d < 0 or other.d < 0:
                    raise ValueError("complex values are unordered")
                sb, ob = self.b.__gt__(0), other.b.__gt__(0)
                if self.b == 0 or other.b == 0 or sb != ob:
                    s = 1 if self.b > 0 else (-1 if self.b < 0 else 0)
                    t = 1 if other.b > 0 else (-1 if other.b < 0 else 0)
                    return (s > t) - (s < t)
                lhs = self.b * self.b * self.d
                rhs = other.b * other.b * other.d
                mag = (lhs > rhs) - (lhs < rhs)
                return mag if sb else -mag
            raise TypeError(f"cannot order elements of Q(sqrt {self.d}) and Q(sqrt {other.d})")
        if o is None:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        if self.d < 0:
            raise ValueError(f"{self} is complex")
        r = float(self.b) * math.sqrt(self.d)
        if (self.a < 0) == (self.b < 0):
            return float(self.a) + r
        # a and b sqrt(d) nearly cancel: divide the exact norm by the conjugate
        return float(self.a * self.a - self.b * self.b * self.d) / (float(self.a) - r)

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


def sqrt_exact(q) -> Scalar:
    """Exact square root of a nonnegative rational (int, Fraction or str; a float is a
    TypeError): Fraction when perfect, else QuadExt."""
    q = _as_rational(q)
    if q < 0:
        raise ValueError("sqrt_exact needs a nonnegative rational")
    if q == 0:
        return Fraction(0)
    r = QuadExt(0, 1, q)
    return r.a if r.b == 0 else r


def _sparse(v: Sequence, ncols: int) -> Dict[int, Scalar]:
    """The nonzero entries of v by column: ints and Fractions as they are, the rest
    through `_as_scalar`, so a float (0.0 included) is a TypeError."""
    if len(v) != ncols:
        raise ValueError(f"vector length {len(v)} vs {ncols} columns")
    w = {}
    for k, x in enumerate(v):
        if type(x) is not int and type(x) is not Fraction:
            x = _as_scalar(x)
        if x:
            w[k] = x
    return w


def _primitive(w: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """A nonzero sparse row as stored: over Q the primitive integer multiple with a
    positive pivot; a row holding a QuadExt entry is divided by its pivot instead."""
    pv = w[min(w)]
    try:
        g = math.gcd(*w.values())
    except TypeError:  # a Fraction or a QuadExt entry
        if any(isinstance(x, QuadExt) for x in w.values()):
            w = {k: _as_scalar(x) for k, x in w.items()}
            return w if pv == 1 else {k: x / pv for k, x in w.items()}
        den = math.lcm(*[x.denominator for x in w.values()])
        w = {k: x.numerator * (den // x.denominator) for k, x in w.items()}
        g = math.gcd(*w.values())
    if pv < 0:
        g = -g
    return w if g == 1 else {k: x // g for k, x in w.items()}


def _int_rows(rows: Sequence[Sequence[Scalar]]) -> Optional[Tuple[List[List[int]], int]]:
    """Integer rows N and one positive denominator D with rows = N / D, or None
    when an entry is a QuadExt."""
    try:
        D = math.lcm(*[x.denominator for r in rows for x in r])
    except AttributeError:  # a QuadExt has no denominator
        return None
    if D == 1:
        return [[x.numerator for x in r] for r in rows], 1
    return [[x.numerator * (D // x.denominator) for x in r] for r in rows], D


def _matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> List[List]:
    """The product of two matrices given by rows of ints, or of Fractions and QuadExts;
    zero terms are skipped, so an entry with none left is int 0."""
    cols = list(zip(*B))
    return [[sum([x * y for x, y in zip(row, col) if x and y]) for col in cols] for row in A]


def _eliminate(w: Dict[int, Scalar], p: int, row: Dict[int, Scalar]) -> None:
    """Clear column p of w in place, fraction-free: w <- pv*w - w[p]*row, pv = row[p]."""
    c, pv = w[p], row[p]
    if pv != 1:
        for k in w:
            w[k] *= pv
    for k, b in row.items():
        x = w.get(k, 0) - c * b
        if x:
            w[k] = x
        else:
            del w[k]


def _same_ambient(n: int, *spaces: "Subspace") -> None:
    """Refuse a subspace of Q^m, m != n, where a subspace of Q^n is wanted."""
    for s in spaces:
        if s.ambient != n:
            raise ValueError(f"ambient dimensions differ: subspace of Q^{s.ambient} against Q^{n}")


class Subspace:
    """Subspace of Q^n, or of Q(sqrt d)^n, with a unique reduced-echelon basis.

    Vectors are taken as `_sparse` takes them: entries int, Fraction, str or
    QuadExt, and a float is rejected with TypeError.  Rows are sparse
    ({column: nonzero entry}), stored by pivot column in the form `_primitive`
    gives (primitive integer rows over Q), combined fraction-free by
    `_eliminate` and kept zero in every other row's pivot column.  `dim`
    counts the pivots, `contains` reduces the rows, and the dense basis
    divides each row by its pivot on first read.  The reduced echelon form of
    a row space is unique, so the basis does not depend on the order in which
    vectors are added, and equality and hashing mean "same basis".

    A span is grown (`add`, `_add`) only while it is being built; one handed
    to a caller, kept as an invariant or used as a key is not grown again.
    `_add` drops the cached basis.
    """

    __slots__ = ("ambient", "_rows", "_basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self.ambient = ambient
        self._rows: Dict[int, Dict[int, Scalar]] = {}
        self._basis: Optional[Tuple[Tuple[Scalar, ...], ...]] = None
        for v in vectors:
            self.add(v)

    @classmethod
    def _spanned(cls, ambient: int, rows: Iterable[Dict[int, Scalar]]) -> "Subspace":
        """The span of sparse rows {index: nonzero value}, each reduced by `_add`, which
        may keep and change the dicts it is given."""
        s = cls(ambient)
        for w in rows:
            s._add(w)
        return s

    @classmethod
    def full(cls, n: int) -> "Subspace":
        s = cls(n)
        s._rows = {i: {i: 1} for i in range(n)}
        return s

    def _reduce(self, w: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """A multiple of the sparse row w, zero in every pivot column."""
        if w:
            w = _primitive(w)
            for p, row in self._rows.items():
                if p in w:
                    _eliminate(w, p, row)
        return w

    def _add(self, w: Dict[int, Scalar]) -> bool:
        w = self._reduce(w)
        if not w:
            return False
        w = _primitive(w)
        p = min(w)
        for q, row in self._rows.items():
            if p in row:
                _eliminate(row, p, w)
                self._rows[q] = _primitive(row)
        self._rows[p] = w
        self._basis = None
        return True

    def add(self, v: Sequence) -> bool:
        """Reduce v into the span; False when v already lies in it."""
        return self._add(_sparse(v, self.ambient))

    def coordinates(self, v: Sequence) -> Optional[Tuple[Scalar, ...]]:
        """Coefficients of v over `basis`, or None when v is outside the span."""
        if self._reduce(_sparse(v, self.ambient)):
            return None
        return tuple(_as_scalar(v[p]) for p in self.pivots())

    def contains_vector(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def contains(self, other: "Subspace") -> bool:
        _same_ambient(self.ambient, other)
        return not any(self._reduce(dict(w)) for w in other._rows.values())

    @property
    def basis(self) -> Tuple[Tuple[Scalar, ...], ...]:
        if self._basis is None:
            out = []
            for p in self.pivots():
                v = [Fraction(0)] * self.ambient
                for k, x in self._rows[p].items():
                    v[k] = Fraction(x, self._rows[p][p]) if type(x) is int else x
                out.append(tuple(v))
            self._basis = tuple(out)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._rows))

    def _pivot_rows(self) -> List[Dict[int, Scalar]]:
        """The stored sparse rows in pivot order: nonzero multiples of the basis vectors."""
        return [self._rows[p] for p in self.pivots()]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and (self is other or self.basis == other.basis)

    def __hash__(self):
        # equal bases have equal pivots; the pivots alone spare building the basis
        return hash((self.ambient, self.pivots()))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def _rank(rows: Iterable[Dict[int, Scalar]]) -> int:
    """Rank of sparse rows {column: nonzero entry}, by one forward fraction-free pass.

    Shorter rows go first.  Each row is cleared by `_eliminate` at the least
    column of every stored row it meets there, and stored, made `_primitive`, at
    its own least column once no row is stored at it.  A rank needs no reduced
    form, so no stored row is revisited.  Integer rows stay integer rows; the
    given rows may be changed in place.
    """
    stored: Dict[int, Dict[int, Scalar]] = {}
    for w in sorted(rows, key=len):
        while w:
            p = min(w)
            if p not in stored:
                stored[p] = _primitive(w)
                break
            _eliminate(w, p, stored[p])
    return len(stored)


class MatrixQ:
    """Immutable dense matrix with exact entries (Fraction or QuadExt)."""

    __slots__ = ("nrows", "ncols", "_r", "_ir")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(_as_scalar(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        self.nrows = len(data)
        self.ncols = w
        self._r = data
        self._ir = False

    @classmethod
    def _exact(cls, rows: Sequence[Tuple[Scalar, ...]]) -> "MatrixQ":
        """The matrix of nonempty rows whose entries are Fraction or QuadExt already."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._r, m._ir = len(rows), len(rows[0]), tuple(rows), False
        return m

    def _ints(self) -> Optional[Tuple[List[List[int]], int]]:
        """`_int_rows` of the entries, computed on first use and kept (the rows are not to be mutated)."""
        if self._ir is False:
            self._ir = _int_rows(self._r)
        return self._ir

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "MatrixQ":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._r[i][j]

    def row(self, i: int) -> Tuple[Scalar, ...]:
        return self._r[i]

    def col(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(r[j] for r in self._r)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            self._r[i][j] == other._r[i][j]
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self._r))

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        self._check_shape(other)
        return MatrixQ._exact(
            [tuple(x + y for x, y in zip(r, s)) for r, s in zip(self._r, other._r)]
        )

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        self._check_shape(other)
        return MatrixQ._exact(
            [tuple(x - y for x, y in zip(r, s)) for r, s in zip(self._r, other._r)]
        )

    def __neg__(self) -> "MatrixQ":
        return MatrixQ._exact([tuple(-x for x in row) for row in self._r])

    def scale(self, c) -> "MatrixQ":
        c = _as_scalar(c)
        return MatrixQ._exact([tuple(c * x for x in row) for row in self._r])

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        a, b = self._ints(), other._ints()
        if a is None or b is None:
            return MatrixQ._exact([tuple(s or Fraction(0) for s in row) for row in _matmul(self._r, other._r)])
        D = a[1] * b[1]
        return MatrixQ._exact([tuple(Fraction(x, D) for x in row) for row in _matmul(a[0], b[0])])

    def __pow__(self, k: int) -> "MatrixQ":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            inv = solve_or_invert(self)
            if inv is None:
                raise ZeroDivisionError("matrix is singular")
            return inv ** (-k)
        out = MatrixQ.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def transpose(self) -> "MatrixQ":
        return MatrixQ._exact(list(zip(*self._r)))

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        s = Fraction(0)
        for i in range(self.nrows):
            s = s + self._r[i][i]
        return s

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._r for x in row)

    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def apply(self, v: Sequence) -> Tuple[Scalar, ...]:
        """Matrix-vector product with a plain sequence, on integer rows like `@`."""
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} vs {self.ncols} columns")
        vv = [x if type(x) is Fraction or type(x) is QuadExt else _as_scalar(x) for x in v]
        a, b = self._ints(), _int_rows([vv])
        if a is None or b is None:
            nz = [(k, x) for k, x in enumerate(vv) if x]
            return tuple(sum([r[k] * x for k, x in nz if r[k]], Fraction(0)) for r in self._r)
        D = a[1] * b[1]
        nz = [(k, x) for k, x in enumerate(b[0][0]) if x]
        return tuple(Fraction(sum([r[k] * x for k, x in nz]), D) for r in a[0])

    def flat(self) -> Tuple[Scalar, ...]:
        """Entries in row-major order."""
        return tuple(x for row in self._r for x in row)

    def rank(self) -> int:
        ints = self._ints()
        return _rank(_sparse(r, self.ncols) for r in (self._r if ints is None else ints[0]))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._r)
        return f"MatrixQ[{body}]"

    def _check_shape(self, other: "MatrixQ"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")


def _kernel(ncols: int, rows: Iterable[Dict[int, Scalar]]) -> List[Tuple[Scalar, ...]]:
    """`nullspace` of the sparse rows {column: nonzero entry}, read off the stored rows:
    over Q entry x of a row with pivot piv gives Fraction(-x, piv)."""
    ech = Subspace._spanned(ncols, rows)
    basis = []
    for f in range(ncols):
        if f in ech._rows:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in ech._rows.items():
            x = row.get(f)
            if x:
                v[p] = Fraction(-x, row[p]) if type(x) is int else -x
        basis.append(tuple(v))
    return basis


def nullspace(M: MatrixQ) -> List[Tuple[Scalar, ...]]:
    """Kernel basis as tuples: for each free column f of the reduced rows, in order,
    1 at f, -row[f] at the pivot column of each row, and 0 elsewhere."""
    return _kernel(M.ncols, (_sparse(r, M.ncols) for r in M._r))


def _inverse(rows: Sequence[Sequence]) -> Optional[Subspace]:
    """[N | I] reduced, or None for a singular N: stored row r is piv_r e_r | X_r, N^-1 = X_r / piv_r."""
    n = len(rows)
    ech = Subspace(2 * n, [[*row, *(int(r == k) for k in range(n))] for r, row in enumerate(rows)])
    return ech if ech.pivots() == tuple(range(n)) else None


def solve_or_invert(M: MatrixQ) -> Optional[MatrixQ]:
    """Exact inverse of a square matrix, or None when singular."""
    if not M.is_square:
        raise ValueError(f"cannot invert a {M.nrows}x{M.ncols} matrix")
    ech = _inverse(M._r)
    return None if ech is None else MatrixQ([row[M.nrows:] for row in ech.basis])


def solve_linear(M: MatrixQ, b: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One exact solution of M x = b (free variables set to 0), or None."""
    bb = [_as_scalar(x) for x in b]
    if len(bb) != M.nrows:
        raise ValueError("right-hand side length mismatch")
    ech = Subspace(M.ncols + 1, [list(M.row(i)) + [bb[i]] for i in range(M.nrows)])
    if M.ncols in ech.pivots():
        return None
    x = [Fraction(0)] * M.ncols
    for p, row in zip(ech.pivots(), ech.basis):
        x[p] = row[M.ncols]
    return tuple(x)


class PolyQ:
    """Dense univariate polynomial, coefficients ascending, exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls([])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PolyQ):
            if self.is_zero or other.is_zero:
                return PolyQ.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b != 0:
                        out[i + j] = out[i + j] + a * b
            return PolyQ(out)
        c = _as_scalar(other)
        return PolyQ([c * x for x in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolyQ":
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        out = PolyQ([1])
        for _ in range(k):
            out = out * self
        return out

    def divmod(self, other: "PolyQ") -> Tuple["PolyQ", "PolyQ"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyQ(q), PolyQ(rem)

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        lead = self.leading()
        return PolyQ([c / lead for c in self.coeffs])

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, M: MatrixQ) -> MatrixQ:
        if not M.is_square:
            raise ValueError("polynomial of a non-square matrix")
        acc = MatrixQ.zeros(M.nrows, M.ncols)
        for c in reversed(self.coeffs):
            acc = acc @ M
            if c != 0:
                acc = acc + MatrixQ.identity(M.nrows).scale(c)
        return acc

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and c == 1:
                pass
            elif i > 0 and c == -1:
                term = "-" + term
            else:
                term = f"{c}" if i == 0 else f"{c}*{term}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _char_coeffs(M: MatrixQ) -> Tuple[List, int]:
    """c_1, ..., c_n and D > 0 with det(x*I - D*M) = x^n - c_1 x^(n-1) - ... - c_n
    for the square matrix M, by Faddeev-LeVerrier at any size.

    The loop runs over the integer rows of A = D*M that M keeps (`MatrixQ._ints`),
    where each c_k = tr(A_k)/k is an exact integer division, or over M's own rows
    with D = 1 when an entry is a QuadExt.
    """
    ints = M._ints()
    A, D = (M._r, 1) if ints is None else ints
    n = len(A)
    cs, Ak = [], A
    for k in range(1, n + 1):
        t = sum([Ak[i][i] for i in range(n)])
        if type(t) is int:
            ck, r = divmod(t, k)
            assert r == 0, "tr(A_k) / k is an integer for an integer matrix A"
        else:
            ck = t / k
        cs.append(ck)
        if k < n:
            Ak = _matmul(A, [[x - ck if i == j else x for j, x in enumerate(row)] for i, row in enumerate(Ak)])
    return cs, D


def char_poly(M: MatrixQ) -> PolyQ:
    """det(M - x*I) by Faddeev-LeVerrier; supported for sizes up to MAX_DIM."""
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.nrows
    if n > MAX_DIM:
        raise ValueError(f"size {n} exceeds the supported bound of {MAX_DIM}")
    cs, D = _char_coeffs(M)
    # det(M - x*I) = (-1)^n det(x*I - M), and det(x*I - M) = D^-n det(D*x*I - D*M)
    # gives M's c_k as those of D*M over D^k
    sign = -1 if n % 2 else 1
    asc = [-sign * cs[n - 1 - i] for i in range(n)] + [sign]
    if D > 1:
        asc = [Fraction(c, D ** (n - i)) for i, c in enumerate(asc)]
    return PolyQ(asc)


class FactorTerm(NamedTuple):
    poly: "PolyQ"  # monic irreducible over Q
    multiplicity: int


def _int_divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _primitive_int(p: PolyQ) -> List[int]:
    """The primitive integer multiple of p with a positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def _homogeneous_value(ints: List[int], p: int, q: int) -> int:
    """q^d P(p/q) for the integer polynomial P of degree d: zero exactly when p/q is a root."""
    acc, qk = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _int_quotient(g: List[int], ints: List[int]) -> Optional[List[int]]:
    """ints over the primitive part of g with a positive leading coefficient, or None
    when g does not divide ints over Q: by Gauss's lemma it does exactly when that
    part divides ints over Z, so the long division stops at the first inexact step."""
    c = math.gcd(*g) * (1 if g[-1] > 0 else -1)
    g = [x // c for x in g]
    rem = list(ints)
    d, lead = len(g) - 1, g[-1]
    q = [0] * (len(rem) - d)
    for k in range(len(rem) - 1 - d, -1, -1):
        q[k], r = divmod(rem[k + d], lead)
        if r:
            return None
        for i, x in enumerate(g):
            rem[k + i] -= q[k] * x
    return None if any(rem[:d]) else q


def _trial_divide(ints: List[int], deg: int) -> Optional[Tuple[List[int], List[int]]]:
    """An integer factor g of the given degree of the primitive integer polynomial
    ints, and ints over g by `_int_quotient`, found by divisor interpolation.

    Classical Kronecker search: an integer factor g of an integer polynomial P
    satisfies g(k) | P(k) at every integer k, so candidate factors are
    interpolated from divisor choices at a few points and then verified by
    exact division.  The caller guarantees P has no rational roots, hence
    P(k) != 0 at the probe points.
    """
    p1, pm1 = _homogeneous_value(ints, 1, 1), _homogeneous_value(ints, -1, 1)
    p2 = _homogeneous_value(ints, 2, 1)
    tops = [s * d for d in _int_divisors(ints[-1]) for s in (1, -1)]
    g0s = [s * d for d in _int_divisors(ints[0]) for s in (1, -1)]
    g1s = [s * d for d in _int_divisors(p1) for s in (1, -1)]
    gm1s = [s * d for d in _int_divisors(pm1) for s in (1, -1)] if deg == 3 else [None]

    def verified(cand, gm1, g2):
        if gm1 == 0 or g2 == 0 or pm1 % gm1 != 0 or p2 % g2 != 0:
            return None
        q = _int_quotient(cand, ints)
        return None if q is None else (cand, q)

    for a_top in tops:
        for g0 in g0s:
            for g1 in g1s:
                if deg == 2:
                    a1 = g1 - a_top - g0
                    hit = verified([g0, a1, a_top], a_top - a1 + g0,
                                   4 * a_top + 2 * a1 + g0)
                    if hit is not None:
                        return hit
                    continue
                for gm1 in gm1s:
                    if (g1 - gm1) % 2 != 0:
                        continue
                    a2 = (g1 + gm1) // 2 - g0
                    a1 = (g1 - gm1) // 2 - a_top
                    hit = verified([g0, a1, a2, a_top], gm1,
                                   8 * a_top + 4 * a2 + 2 * a1 + g0)
                    if hit is not None:
                        return hit
    return None


def factor_over_rationals(p: PolyQ) -> List[FactorTerm]:
    """Factor into monic irreducibles over Q (degree <= 7).

    The product of factors to their multiplicities equals p up to the rational
    leading coefficient.  The search runs on one primitive integer polynomial
    P, dividing each factor it finds out of P exactly; the factors become
    monic PolyQs only in the list returned.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    # the search's own bound: a degree-8 polynomial can split into two quartics, never tried
    if p.degree > 7:
        raise ValueError(f"degree {p.degree} exceeds the supported bound of 7")
    P = _primitive_int(p)

    # powers of x: the leading zero coefficients
    k = next(i for i, c in enumerate(P) if c)
    P = P[k:]
    found: List[List[int]] = [[0, 1]] * k

    # rational roots num/qd: qd divides the leading coefficient and num the constant term
    while len(P) > 1:
        nums = _int_divisors(P[0])
        hit = next(([-num, qd] for qd in _int_divisors(P[-1]) for pn in nums for num in (pn, -pn)
                    if _homogeneous_value(P, num, qd) == 0), None)
        if hit is None:
            break
        P = _int_quotient(hit, P)
        found.append(hit)

    # quadratic factors (irreducible: no rational roots remain), then cubic ones,
    # which can only hide in remainders of degree 6 or 7
    for deg, min_degree in ((2, 4), (3, 6)):
        while len(P) - 1 >= min_degree:
            hit = _trial_divide(P, deg)
            if hit is None:
                break
            g, P = hit
            found.append(g)
    if len(P) > 1:
        found.append(P)

    counted = Counter(tuple(Fraction(c, g[-1]) for c in g) for g in found)
    return sorted((FactorTerm(PolyQ(c), m) for c, m in counted.items()),
                  key=lambda t: (t.poly.degree, t.poly.coeffs))


def matrix_exp_nilpotent(N: MatrixQ) -> MatrixQ:
    """Exact exp of a verified-nilpotent matrix: sum of N^k / k! for k < size."""
    if not N.is_square:
        raise ValueError("exponential of a non-square matrix")
    n = N.nrows
    powers = [MatrixQ.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] @ N)
    if not powers[n].is_zero():
        raise ValueError(f"matrix is not nilpotent: N^{n} != 0")
    acc = MatrixQ.zeros(n, n)
    fact = 1
    for k in range(n):
        if k > 0:
            fact *= k
        acc = acc + powers[k].scale(Fraction(1, fact))
    return acc


def symmetric_signature(S: MatrixQ) -> Tuple[int, int, int]:
    """Signature (positive, negative, zero) of a real symmetric matrix, at any size.

    Its eigenvalues are all real, and for a polynomial with only real roots
    Descartes' rule of signs is exact: the sign changes in the coefficients of
    det(x*I - S) count the positive eigenvalues, the trailing zero coefficients
    count the eigenvalue 0, and the rest are negative.  The coefficients come
    from `char_poly`'s Faddeev-LeVerrier loop, which has no size cap.
    """
    if not S.is_square:
        raise ValueError("signature of a non-square matrix")
    if S != S.transpose():
        raise ValueError("matrix is not symmetric")
    n = S.nrows
    cs, _ = _char_coeffs(S)  # D*S, D > 0, has the signature of S
    zero = next((k for k, c in enumerate(reversed(cs)) if c), n)
    signs = [1] + [(c < 0) - (c > 0) for c in cs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, n - pos - zero, zero
