"""Parametric structure-constant corpus: parsing, sampling, verification.

The corpus format is line oriented.  ``#`` starts a comment, blank lines
separate blocks, and two block kinds exist:

    algebra [7,[6,4],1,1]
    dim 7
    param a : real
    param b : real
    constraint b <= a
    constraint b^2+a^2 != 0
    bracket e1 e7 = 1*e1
    bracket e2 e7 = (b+2*a)*e2

    matrix der_6_4_1 6x6
    0 0 0 0 0 0
    0 0 1 0 0 0
    ...

An ``algebra`` block declares a family of Lie algebras over exact rational
parameters: ``param`` lines name the parameters (``real`` ranges over the
rationals, ``sign`` over {-1, 0, 1}), ``constraint`` lines cut the admissible
region with polynomial comparisons, and ``bracket`` lines give
``[e_i, e_j]`` for i < j as linear combinations of basis vectors with
polynomial coefficients.  A ``matrix`` block stores a named rational matrix
(used for fixture data such as precomputed derivations).

Entry ids are structured tags.  A plain pair like ``[6,4]`` names a nilpotent
algebra; a nested tag like ``[7,[6,4],1,1]`` names a solvable algebra whose
first six basis vectors are expected to span its nilradical and to reproduce
the ``[6,4]`` table, which :func:`verify_entry` checks claim by claim.

Parameter values are exact rationals, and the module has one evaluator for
them, `PolyExpr._pair_value`: it takes each value as an integer pair
(numerator, denominator > 0) and returns the polynomial's value as one
unreduced integer pair.  `PolyExpr.evaluate` is its one Fraction, and a
constraint compares by cross-multiplying (`Constraint._holds`).  Sampling draws
and tests such pairs, and instantiation goes from them straight to the integer
structure tensor of `LieAlgebra`, so the sampled verification path builds no
Fraction to draw, test or instantiate a point.  A sampled point's constraints
are tested once, when it is drawn.

The parser keeps one object per distinct coefficient polynomial of a text:
the 38,024 coefficient slots of the two packaged corpora point to 83 objects.
"""

import hashlib
import math
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .linalg import MAX_DIM, MatrixQ, _as_rational
from .liealg import LieAlgebra, Subspace
from .derivations import _derivation_dim


class CorpusError(ValueError):
    """A corpus operation failed (bad reference, sampling exhaustion, ...)."""


class ConstraintViolation(CorpusError):
    """A parameter assignment breaks one of an entry's constraints."""

    def __init__(self, message: str, constraint: "Constraint"):
        super().__init__(message)
        self.constraint = constraint


class ParseError(ValueError):
    """Corpus text rejected, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# --------------------------------------------------------------------------
# polynomial expressions over named rational parameters
# --------------------------------------------------------------------------

# monomial: tuple of (name, exponent) pairs sorted by name, exponents >= 1
Monomial = Tuple[Tuple[str, int], ...]
_ONE: Monomial = ()
#: an exact rational as (numerator, denominator), denominator > 0
_Pair = Tuple[int, int]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[str, int] = {}
    for name, exp in a + b:
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted(powers.items()))


def _terms_canonical(terms: Dict[Monomial, Fraction]) -> Tuple[Tuple[Monomial, Fraction], ...]:
    live = {m: c for m, c in terms.items() if c != 0}
    order = sorted(live, key=lambda m: (-sum(e for _, e in m), m))
    return tuple((m, live[m]) for m in order)


@dataclass(frozen=True)
class PolyExpr:
    """A polynomial with rational coefficients in canonical term order.

    Terms are stored highest total degree first, ties broken by monomial
    name order, so structurally equal polynomials compare equal.
    """

    terms: Tuple[Tuple[Monomial, Fraction], ...]

    @staticmethod
    def constant(value) -> "PolyExpr":
        q = Fraction(value)
        return PolyExpr(((_ONE, q),) if q != 0 else ())

    @staticmethod
    def variable(name: str) -> "PolyExpr":
        return PolyExpr(((((name, 1),), Fraction(1)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def constant_value(self) -> Optional[Fraction]:
        """The value when the polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == _ONE:
            return self.terms[0][1]
        return None

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        acc = dict(self.terms)
        for mono, coef in other.terms:
            acc[mono] = acc.get(mono, Fraction(0)) + coef
        return PolyExpr(_terms_canonical(acc))

    def __neg__(self) -> "PolyExpr":
        return PolyExpr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        return self + (-other)

    def __mul__(self, other: "PolyExpr") -> "PolyExpr":
        acc: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return PolyExpr(_terms_canonical(acc))

    def __pow__(self, n: int) -> "PolyExpr":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = PolyExpr.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        """The value at env, whose values are taken as `Fraction` takes them: the one
        Fraction of `_pair_value` at their (numerator, denominator) pairs."""
        return Fraction(*self._pair_value(_pairs(env)))

    def _pair_value(self, env: Mapping[str, _Pair]) -> _Pair:
        """The value at env, name -> (p, q) with q > 0, as an unreduced (num, den) with
        den > 0: the sum is kept as one integer numerator over one integer denominator."""
        num, den = 0, 1
        for mono, coef in self.terms:
            p, q = coef.numerator, coef.denominator
            for name, exp in mono:
                if name not in env:
                    raise CorpusError(f"missing value for parameter '{name}'")
                x, y = env[name]
                p *= x ** exp
                q *= y ** exp
            num, den = num * q + p * den, den * q
        return num, den

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for mono, coef in self.terms:
            mono_text = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in mono
            )
            if not mono_text:
                text = str(coef)
            elif coef == 1:
                text = mono_text
            elif coef == -1:
                text = "-" + mono_text
            else:
                text = f"{coef}*{mono_text}"
            parts.append(text)
        out = parts[0]
        for text in parts[1:]:
            out += text if text.startswith("-") else "+" + text
        return out


def _pairs(env: Mapping[str, Fraction]) -> Dict[str, _Pair]:
    """env's values, taken as `Fraction` takes them, as (numerator, denominator) pairs."""
    return {name: (x.numerator, x.denominator) for name, x in zip(env, map(Fraction, env.values()))}


#: the zero polynomial, shared by every zero coefficient the parser writes
_ZERO = PolyExpr(())


_OPS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Constraint:
    """One polynomial comparison cutting the admissible parameter region.

    ``source`` is the comparison as the corpus wrote it (``b^2+a^2 != 0``),
    kept only for messages; it takes no part in equality, and ``str()`` and
    serialisation stay canonical.  A constraint built in code has no source.
    """

    lhs: PolyExpr
    op: str
    rhs: PolyExpr
    source: str = field(default="", compare=False)

    def satisfied(self, env: Mapping[str, Fraction]) -> bool:
        return self._holds(_pairs(env))

    def _holds(self, env: Mapping[str, _Pair]) -> bool:
        """The comparison at env, name -> (p, q) with q > 0, in integers: both
        denominators are positive, so a/b op c/d exactly when a*d op c*b."""
        a, b = self.lhs._pair_value(env)
        c, d = self.rhs._pair_value(env)
        return _OPS[self.op](a * d, c * b)

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class Bracket(NamedTuple):
    """[e_i, e_j] = sum_k coeffs[k-1] * e_k, with 1-based i < j."""

    i: int
    j: int
    coeffs: Tuple[PolyExpr, ...]


@dataclass(frozen=True)
class CorpusEntry:
    """One parametric algebra family from a corpus file."""

    id: str
    dim: int
    params: Tuple[Tuple[str, str], ...]  # (name, kind) with kind real|sign
    constraints: Tuple[Constraint, ...]
    brackets: Tuple[Bracket, ...]

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    @property
    def nilradical_ref(self) -> Optional[str]:
        """The nested id component naming the expected nilradical table.

        ``[7,[6,4],1,1]`` yields ``[6,4]``; plain tags like ``[6,4]`` have
        no reference and yield None.
        """
        for component in _split_id(self.id):
            if component.startswith("["):
                return component
        return None


def _split_id(entry_id: str) -> List[str]:
    """Split a structured tag into its top-level comma components."""
    body = entry_id.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts: List[str] = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        cur += ch
    parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


# --------------------------------------------------------------------------
# tokenizing and expression parsing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(<=|!=|[-+*/^()=<:])|(\S))")


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int, col_offset: int) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        column = col_offset + m.start(m.lastindex)
        if m.group(1) is not None:
            tokens.append(_Token("num", m.group(1), line, column))
        elif m.group(2) is not None:
            tokens.append(_Token("name", m.group(2), line, column))
        elif m.group(3) is not None:
            tokens.append(_Token("op", m.group(3), line, column))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", line, column)
        pos = m.end()
    tokens.append(_Token("end", "", line, col_offset + len(text) + 1))
    return tokens


_BASIS_SYMBOL = r"e\d+"


class _ExprParser:
    """Recursive-descent parser for polynomial and bracket expressions."""

    def __init__(self, text: str, line: int, col_offset: int):
        self.tokens = _tokenize(text, line, col_offset)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of line" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected {expected}, found {found}", tok.line, tok.column)

    def expect(self, kind: str, expected: str, pattern: str = "") -> _Token:
        """Consume the next token if it has this kind and its text fully
        matches pattern (any text when pattern is empty); else fail."""
        tok = self.peek()
        if tok.kind != kind or pattern and not re.fullmatch(pattern, tok.text):
            self.fail(expected)
        return self.advance()

    def expect_op(self, text: str) -> _Token:
        return self.expect("op", f"'{text}'", re.escape(text))

    def expect_end(self):
        self.expect("end", "end of line")

    def accept(self, *ops: str) -> Optional[_Token]:
        """Consume the next token if it is one of these operators."""
        if self.peek().kind == "op" and self.peek().text in ops:
            return self.advance()
        return None

    def sign(self) -> int:
        """Consume an optional '+' or '-': 1 or -1, or 0 when neither is next."""
        tok = self.accept("+", "-")
        return 0 if tok is None else -1 if tok.text == "-" else 1

    def signed_terms(self, parse_term: Callable[[], object]) -> List[Tuple[int, object]]:
        """term (('+' | '-') term)* with an optional leading sign, as (sign, term) pairs."""
        terms = []
        sign = self.sign() or 1
        while sign:
            terms.append((sign, parse_term()))
            sign = self.sign()
        return terms

    # ---- polynomial grammar ----------------------------------------------

    def parse_rational(self) -> Fraction:
        """n or n/d; parse_atom calls it with a number next."""
        value = Fraction(int(self.advance().text))
        if self.accept("/"):
            den = self.expect("num", "a denominator")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.line, den.column)
            value /= int(den.text)
        return value

    def parse_poly(self) -> PolyExpr:
        total = _ZERO
        for sign, term in self.signed_terms(self.parse_product):
            total = total + term if sign > 0 else total - term
        return total

    def parse_product(self) -> PolyExpr:
        value = self.parse_power()
        while self.accept("*"):
            value = value * self.parse_power()
        return value

    def parse_power(self) -> PolyExpr:
        base = self.parse_atom()
        if self.accept("^"):
            return base ** int(self.expect("num", "an integer exponent").text)
        return base

    def parse_atom(self) -> PolyExpr:
        tok = self.peek()
        if tok.kind == "num":
            return PolyExpr.constant(self.parse_rational())
        if tok.kind == "name":
            self.advance()
            return PolyExpr.variable(tok.text)
        if self.accept("("):
            inner = self.parse_poly()
            self.expect_op(")")
            return inner
        if self.accept("-"):
            return -self.parse_power()
        self.fail("a number, parameter, or '('")

    def parse_comparison(self) -> Constraint:
        lhs = self.parse_poly()
        op = self.expect("op", "a comparison operator (<=, <, =, !=)", "<=|<|=|!=").text
        rhs = self.parse_poly()
        self.expect_end()
        return Constraint(lhs, op, rhs)

    # ---- bracket right-hand sides ----------------------------------------

    def parse_basis_symbol(self) -> _Token:
        return self.expect("name", "a basis symbol like 'e3'", _BASIS_SYMBOL)

    def parse_linexpr(self, dim: int) -> List[PolyExpr]:
        """Sum of <coefficient>*e<k> terms as a length-dim coefficient list."""
        coeffs = [_ZERO] * dim
        for sign, (k, coef) in self.signed_terms(lambda: self.parse_linterm(dim)):
            coeffs[k - 1] = coeffs[k - 1] + coef if sign > 0 else coeffs[k - 1] - coef
        self.expect_end()
        return coeffs

    def parse_linterm(self, dim: int) -> Tuple[int, PolyExpr]:
        coef = PolyExpr.constant(1)
        while not (self.peek().kind == "name" and re.fullmatch(_BASIS_SYMBOL, self.peek().text)):
            coef = coef * self.parse_power()
            if not self.accept("*"):
                self.fail("'*' followed by a basis symbol")
        return _basis_index(self.advance(), dim), coef


def _basis_index(tok: _Token, dim: int) -> int:
    """The k of a basis symbol e<k>, which must lie in 1..dim."""
    k = int(tok.text[1:])
    if not 1 <= k <= dim:
        raise ParseError(f"basis index e{k} out of range for dim {dim}", tok.line, tok.column)
    return k


# --------------------------------------------------------------------------
# block-level parsing
# --------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


class _Line(NamedTuple):
    number: int
    text: str
    indent: int


def _content_lines(text: str) -> List[_Line]:
    out: List[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        stripped = body.lstrip()
        if stripped:
            out.append(_Line(number, stripped, len(body) - len(stripped) + 1))
    return out


class _EntryBuilder:
    def __init__(self, entry_id: str, line: int):
        self.id = entry_id
        self.line = line
        self.dim: Optional[int] = None
        self.params: Dict[str, str] = {}  # name -> kind, in order
        self.constraints: List[Constraint] = []
        self.brackets: List[Bracket] = []
        self.seen_pairs: Dict[Tuple[int, int], int] = {}

    def finish(self) -> CorpusEntry:
        if self.dim is None:
            raise ParseError(f"algebra {self.id} has no 'dim' line", self.line, 1)
        return CorpusEntry(
            id=self.id,
            dim=self.dim,
            params=tuple(self.params.items()),
            constraints=tuple(self.constraints),
            brackets=tuple(self.brackets),
        )


def _check_declared(poly: PolyExpr, declared: Iterable[str], tokens: Sequence[_Token]):
    unknown = poly.variables() - set(declared)
    if unknown:
        name = min(unknown)  # poly was parsed from tokens, so a token names it
        tok = next(tok for tok in tokens if tok.kind == "name" and tok.text == name)
        raise ParseError(f"undeclared parameter '{name}'", tok.line, tok.column)


def _scan(text: str) -> Tuple[List[CorpusEntry], Dict[str, MatrixQ]]:
    lines = _content_lines(text)
    entries: List[CorpusEntry] = []
    matrices: Dict[str, MatrixQ] = {}
    current: Optional[_EntryBuilder] = None
    idx = 0
    # one object per distinct coefficient polynomial of this text
    shared: Dict[PolyExpr, PolyExpr] = {}

    def close_current():
        nonlocal current
        if current is not None:
            entries.append(current.finish())
            current = None

    while idx < len(lines):
        line = lines[idx]
        idx += 1
        keyword, _, rest = line.text.partition(" ")
        rest = rest.strip()
        body_col = line.indent + (line.text.find(rest) if rest else len(keyword))

        if keyword == "algebra":
            close_current()
            if not rest:
                raise ParseError("expected an algebra id", line.number, line.indent + len("algebra "))
            current = _EntryBuilder(rest, line.number)

        elif keyword == "matrix":
            close_current()
            p = _ExprParser(rest, line.number, body_col)
            name_tok = p.expect("name", "a matrix name")
            rows_tok = p.expect("num", "a row count")
            # header is written as e.g. "6x6": the tokenizer reads "x6" as one
            # name, so split the column count back out of it (only a name
            # token can start with "x")
            if not p.peek().text.startswith("x"):
                p.fail("'x' between row and column counts")
            cols_tok = p.expect("name", "a column count", r"x\d+")
            p.expect_end()
            name = name_tok.text
            if name in matrices:
                raise ParseError(f"duplicate matrix name '{name}'", name_tok.line, name_tok.column)
            nrows, ncols = int(rows_tok.text), int(cols_tok.text[1:])
            if nrows < 1 or ncols < 1:
                raise ParseError("matrix dimensions must be positive", rows_tok.line, rows_tok.column)
            rows: List[List[Fraction]] = []
            for _ in range(nrows):
                if idx >= len(lines):
                    raise ParseError(
                        f"matrix {name} ends after {len(rows)} of {nrows} rows",
                        line.number,
                        line.indent,
                    )
                row_line = lines[idx]
                idx += 1
                items = row_line.text.split()
                if len(items) != ncols or not all(_RATIONAL_RE.fullmatch(s) for s in items):
                    raise ParseError(
                        f"expected {ncols} rational entries for matrix {name}",
                        row_line.number,
                        row_line.indent,
                    )
                for m in re.finditer(r"\S+", row_line.text):
                    den = m.group().partition("/")[2]
                    if den and not int(den):
                        column = row_line.indent + m.end() - len(den)
                        raise ParseError("zero denominator", row_line.number, column)
                rows.append([Fraction(s) for s in items])
            matrices[name] = MatrixQ(rows)

        elif current is None:
            raise ParseError(f"'{keyword}' outside an algebra block", line.number, line.indent)

        elif keyword == "dim":
            if current.dim is not None:
                raise ParseError("duplicate 'dim' line", line.number, line.indent)
            if not rest.isdecimal() or int(rest) < 1:
                raise ParseError("expected a positive dimension", line.number, body_col)
            if int(rest) > MAX_DIM:
                raise ParseError(
                    f"dimension {rest} exceeds the supported bound of {MAX_DIM}",
                    line.number,
                    body_col,
                )
            current.dim = int(rest)

        elif keyword == "param":
            p = _ExprParser(rest, line.number, body_col)
            name_tok = p.expect("name", "a parameter name")
            p.expect_op(":")
            kind = p.expect("name", "'real' or 'sign'", "real|sign").text
            p.expect_end()
            if name_tok.text in current.params:
                raise ParseError(
                    f"duplicate parameter '{name_tok.text}'", name_tok.line, name_tok.column
                )
            current.params[name_tok.text] = kind

        elif keyword == "constraint":
            p = _ExprParser(rest, line.number, body_col)
            constraint = p.parse_comparison()
            _check_declared(constraint.lhs + constraint.rhs, current.params, p.tokens)
            current.constraints.append(replace(constraint, source=rest))

        elif keyword == "bracket":
            if current.dim is None:
                raise ParseError("'bracket' before 'dim'", line.number, line.indent)
            p = _ExprParser(rest, line.number, body_col)
            # both symbols are read before either index is range-checked
            i_tok, j_tok = p.parse_basis_symbol(), p.parse_basis_symbol()
            i, j = _basis_index(i_tok, current.dim), _basis_index(j_tok, current.dim)
            if i >= j:
                raise ParseError(
                    f"bracket indices must satisfy i < j, got (e{i}, e{j})",
                    i_tok.line,
                    i_tok.column,
                )
            if (i, j) in current.seen_pairs:
                raise ParseError(
                    f"duplicate bracket (e{i}, e{j}); first given on line "
                    f"{current.seen_pairs[(i, j)]}",
                    i_tok.line,
                    i_tok.column,
                )
            p.expect_op("=")
            # an untouched slot is the shared zero already: only the others are looked up
            coeffs = [c if c is _ZERO else shared.setdefault(c, c)
                      for c in p.parse_linexpr(current.dim)]
            for poly in coeffs:
                if poly is not _ZERO:  # the zero names no parameter
                    _check_declared(poly, current.params, p.tokens)
            current.seen_pairs[(i, j)] = line.number
            current.brackets.append(Bracket(i, j, tuple(coeffs)))

        else:
            raise ParseError(f"unknown directive '{keyword}'", line.number, line.indent)

    close_current()
    return entries, matrices


def parse_corpus(text: str) -> List[CorpusEntry]:
    """Parse corpus text into entries, skipping any matrix blocks."""
    return _scan(text)[0]


def load_matrices(text: str) -> Dict[str, MatrixQ]:
    """Parse corpus text and return its named matrix blocks."""
    return _scan(text)[1]


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _coefficient_text(poly: PolyExpr) -> str:
    const = poly.constant_value()
    if const is not None:
        return str(const)
    text = str(poly)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text
    return f"({text})"


def _linexpr_text(coeffs: Sequence[PolyExpr]) -> str:
    parts: List[str] = []
    for k, poly in enumerate(coeffs, start=1):
        if poly.is_zero:
            continue
        const = poly.constant_value()
        if parts and const is not None and const < 0:
            parts.append(f" - {_coefficient_text(-poly)}*e{k}")
        elif parts:
            parts.append(f" + {_coefficient_text(poly)}*e{k}")
        else:
            parts.append(f"{_coefficient_text(poly)}*e{k}")
    return "".join(parts) if parts else "0*e1"


def serialize_corpus(entries: Iterable[CorpusEntry]) -> str:
    """Render entries back to corpus text that reparses to equal entries."""
    blocks: List[str] = []
    for entry in entries:
        lines = [f"algebra {entry.id}", f"dim {entry.dim}"]
        lines += [f"param {name} : {kind}" for name, kind in entry.params]
        lines += [f"constraint {c}" for c in entry.constraints]
        lines += [
            f"bracket e{b.i} e{b.j} = {_linexpr_text(b.coeffs)}" for b in entry.brackets
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# --------------------------------------------------------------------------
# parameter sampling and instantiation
# --------------------------------------------------------------------------

_REAL_NUMERATOR_BOUND = 12
_REAL_DENOMINATOR_BOUND = 4
#: every grid denominator divides it, so p * (_GRID_LCM // q) orders the grid's p/q exactly
_GRID_LCM = math.lcm(*range(1, _REAL_DENOMINATOR_BOUND + 1))
_SIGN_VALUES = ((-1, 1), (0, 1), (1, 1))
_SAMPLE_ATTEMPTS = 8000


def _sample_pairs(entry: CorpusEntry, seed: int = 1, k: int = 3) -> List[Dict[str, _Pair]]:
    """`sample_parameters` on exact integer pairs: each value a reduced (p, q), q > 0.

    A real value is drawn by the same `randint`s and reduced by its gcd, so equal
    values are equal keys; alternate proposals are sorted decreasing by the integer
    key p * (_GRID_LCM // q); constraints are tested by `Constraint._holds`.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not entry.params:
        return [{}]
    digest = hashlib.sha256(f"{entry.id}|{seed}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    real_names = [name for name, kind in entry.params if kind == "real"]
    # a sign-only domain is finite: once every key is tried, no draw can add one
    domain = None if real_names else len(_SIGN_VALUES) ** len(entry.params)
    found: List[Dict[str, _Pair]] = []
    tried = set()
    for attempt in range(_SAMPLE_ATTEMPTS):
        env = {}
        for name, kind in entry.params:
            if kind == "sign":
                env[name] = rng.choice(_SIGN_VALUES)
                continue
            if attempt % 2:
                q = rng.randint(1, _REAL_DENOMINATOR_BOUND)
                p = rng.randint(-q, q)
            else:
                p = rng.randint(-_REAL_NUMERATOR_BOUND, _REAL_NUMERATOR_BOUND)
                q = rng.randint(1, _REAL_DENOMINATOR_BOUND)
            g = math.gcd(p, q)
            env[name] = (p // g, q // g)
        if attempt % 2:
            ordered = sorted((env[n] for n in real_names), key=lambda v: -v[0] * (_GRID_LCM // v[1]))
            env.update(zip(real_names, ordered))
        key = tuple(env.values())
        if key in tried:
            continue
        tried.add(key)
        if all(c._holds(env) for c in entry.constraints):
            found.append(env)
            if len(found) == k:
                return found
        if len(tried) == domain:
            break
    if not found:
        raise CorpusError(
            f"no admissible parameter assignment found for entry {entry.id} "
            f"after {attempt + 1} draws"
        )
    return found


def sample_parameters(entry: CorpusEntry, seed: int = 1, k: int = 3) -> List[Dict[str, Fraction]]:
    """Draw up to k distinct admissible assignments, deterministically.

    The generator is seeded from (entry id, seed), so reports are
    reproducible run to run.  Real parameters range over the rational grid
    p/q with |p| <= 12, 1 <= q <= 4; sign parameters over {-1, 0, 1}; the
    entry's constraints then filter by rejection.  Alternate proposals are
    confined to [-1, 1] and sorted decreasing across the real parameters,
    so chained range constraints like -1 <= d <= c <= b <= a <= 1 are hit
    often enough to survive rejection.  Raises CorpusError when no
    admissible assignment exists in the grid; returns fewer than k when
    the admissible set is smaller than k (e.g. a single sign parameter).
    No key is checked twice, and an entry whose parameters are all signs
    stops drawing once all 3^m keys have been tried.

    Every draw is made and tested in integers (`_sample_pairs`): values are
    reduced (numerator, denominator) pairs, each constraint is tested once per
    key by cross-multiplying (`Constraint._holds`), and Fractions are built
    only for the assignments returned.
    """
    return [{n: Fraction(p, q) for n, (p, q) in env.items()} for env in _sample_pairs(entry, seed, k)]


def _checked_pairs(entry: CorpusEntry, assignment: Mapping[str, Fraction]) -> Dict[str, _Pair]:
    """The assignment as reduced (numerator, denominator) pairs, once its names are the
    entry's parameters and it meets every constraint."""
    env = _pairs({name: _as_rational(assignment[name]) for name in entry.param_names
                  if name in assignment})
    missing = [name for name in entry.param_names if name not in env]
    if missing:
        raise CorpusError(f"missing value for parameter '{missing[0]}' of entry {entry.id}")
    extra = sorted(set(assignment) - set(entry.param_names))
    if extra:
        raise CorpusError(f"unknown parameter '{extra[0]}' for entry {entry.id}")
    for constraint in entry.constraints:
        if not constraint._holds(env):
            raise ConstraintViolation(
                f"assignment violates constraint '{constraint.source or constraint}'"
                f" of entry {entry.id}",
                constraint,
            )
    return env


def _build(entry: CorpusEntry, env: Mapping[str, _Pair]) -> LieAlgebra:
    """The algebra of entry at env, name -> (p, q) with q > 0, whose constraints the
    caller has checked; only the entry's shape is checked here.

    Each coefficient is evaluated by `PolyExpr._pair_value` (a constant's value is
    its own numerator and denominator) and reduced by its gcd, and zeros are
    skipped; _den is the lcm of the reduced denominators, so the integer tensor
    goes to `LieAlgebra._of_ints` with no Fraction built.
    """
    n, brackets = entry.dim, entry.brackets
    if not 1 <= n <= MAX_DIM or any(not 1 <= i < j <= n or len(c) != n for i, j, c in brackets):
        raise CorpusError(f"entry {entry.id} has a dimension or bracket out of range")
    den, values = 1, {}
    for i, j, coeffs in brackets:
        ts = values[(i - 1, j - 1)] = []
        for k, poly in enumerate(coeffs):
            if poly.terms:
                p, q = poly._pair_value(env)
                if p:
                    g = math.gcd(p, q)
                    ts.append((k, p // g, q // g))
                    den = math.lcm(den, q // g)
    return LieAlgebra._of_ints(n, den, {ij: [(k, p * (den // q)) for k, p, q in ts]
                                        for ij, ts in values.items()})


def instantiate(entry: CorpusEntry, assignment: Mapping[str, Fraction]) -> LieAlgebra:
    """Build the exact Lie algebra for one admissible parameter assignment.

    Values are exact rationals (int, Fraction or str); a float is a TypeError.  The
    names and constraints are checked on the values' integer (numerator, denominator)
    pairs, and the entry's shape by `_build`, which evaluates the brackets on those
    pairs into the integer tensor, so the exact values skip the constructor's check.
    """
    return _build(entry, _checked_pairs(entry, assignment))


# --------------------------------------------------------------------------
# fingerprints
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent invariants of one Lie algebra.

    nilradical_dim is computed by the codimension search and is recorded as
    0 for non-solvable input, where the search is undefined.
    """

    dim: int
    derived_dims: Tuple[int, ...]
    lcs_dims: Tuple[int, ...]
    center_dim: int
    derived_algebra_dim: int
    nilradical_dim: int
    derivation_algebra_dim: int
    killing_form_rank: int


def fingerprint(g: LieAlgebra) -> Fingerprint:
    """Compute the invariant fingerprint of g (stable under change_basis)."""
    profile = g.series_profile()
    if profile.solvable:
        nilradical_dim = g.nilradical_codim_search()[0].dim
    else:
        nilradical_dim = 0
    return Fingerprint(
        dim=g.dim,
        derived_dims=tuple(profile.derived_dims),
        lcs_dims=tuple(profile.lcs_dims),
        center_dim=g.center().dim,
        derived_algebra_dim=g.derived_algebra().dim,
        nilradical_dim=nilradical_dim,
        derivation_algebra_dim=_derivation_dim(g),
        killing_form_rank=g.killing_matrix().rank(),
    )


# --------------------------------------------------------------------------
# packaged data
# --------------------------------------------------------------------------

def packaged_text(name: str) -> str:
    """Text of one bundled data file (appendix_a.lalg, appendix_b.lalg, ...)."""
    return (resources.files("lieq") / "data" / name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def packaged_corpus(name: str) -> Tuple[CorpusEntry, ...]:
    """Parsed entries of one bundled corpus file, cached."""
    return tuple(parse_corpus(packaged_text(name)))


@lru_cache(maxsize=None)
def packaged_matrices(name: str) -> Mapping[str, MatrixQ]:
    """Named matrices of one bundled data file, cached."""
    return dict(load_matrices(packaged_text(name)))


@lru_cache(maxsize=None)
def reference_nilradical_tables() -> Mapping[str, CorpusEntry]:
    """The bundled nilpotent tables indexed by id, for reference lookups."""
    return {entry.id: entry for entry in packaged_corpus("appendix_a.lalg")}


# --------------------------------------------------------------------------
# claim verification
# --------------------------------------------------------------------------

class ClaimRecord(NamedTuple):
    """One verified claim: (entry, assignment, claim) -> status, detail."""

    entry_id: str
    assignment: str
    claim: str
    status: str  # "pass" | "fail"
    detail: str

    def to_line(self) -> str:
        return (
            f"entry={self.entry_id} assignment={self.assignment} "
            f"claim={self.claim} status={self.status} detail={self.detail}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """Per-claim results for one or more entries, in input order."""

    records: Tuple[ClaimRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def failures(self) -> Tuple[ClaimRecord, ...]:
        return tuple(r for r in self.records if r.status != "pass")

    def to_text(self) -> str:
        return "".join(r.to_line() + "\n" for r in self.records)


def _assignment_text(entry: CorpusEntry, env: Mapping[str, object]) -> str:
    if not entry.params:
        return "-"
    return ",".join(f"{name}={env[name]}" for name in entry.param_names)


def _pair_text(entry: CorpusEntry, env: Mapping[str, _Pair]) -> str:
    """`_assignment_text` of the Fractions of reduced pairs, as `str(Fraction)` writes them."""
    return _assignment_text(entry, {name: p if q == 1 else f"{p}/{q}" for name, (p, q) in env.items()})


@lru_cache(maxsize=MAX_DIM)
def _nilradical_span(dim: int) -> Subspace:
    """span(e1..e_{dim-1}), one object per dim; its callers only read it."""
    return Subspace._spanned(dim, ({r: 1} for r in range(dim - 1)))


@lru_cache(maxsize=256)
def _reference_table(ref: str) -> Optional[LieAlgebra]:
    """The algebra a nilradical reference names, or None when no table has that id.

    ``[m,0]`` names the abelian algebra of dim m, for m a decimal in 1..MAX_DIM.
    Keyed by the reference alone, so the entries citing it, renamed ones included, share
    one algebra, whose Jacobi check and series profile are computed once.
    """
    parts = _split_id(ref)
    if len(parts) == 2 and parts[1] == "0":
        m = parts[0]
        if not (m.isascii() and m.isdecimal() and 1 <= int(m) <= MAX_DIM):
            return None
        return LieAlgebra(int(m), {})
    table = reference_nilradical_tables().get(ref)
    return None if table is None else instantiate(table, {})


def _derivation_of_reference(g: LieAlgebra, reference: LieAlgebra) -> bool:
    """The reference is a nilpotent Lie algebra and g's triples (e_i, e_j, e_n) satisfy
    Jacobi: conditions (3)-(5) of `verify_entry`.  With (1) and (2), g is then a Lie
    algebra, the semidirect sum of the reference and R e_n."""
    n = g.dim
    return reference.is_nilpotent() and reference.check_jacobi() is None and (
        g._jacobi_violation((i, j, n - 1) for i, j in combinations(range(n - 1), 2)) is None)


def _verify_one(
    entry: CorpusEntry, label: str, env: Mapping[str, _Pair], span: Subspace
) -> List[ClaimRecord]:
    records: List[ClaimRecord] = []

    def record(claim: str, ok: bool, detail: str = "-"):
        records.append(
            ClaimRecord(entry.id, label, claim, "pass" if ok else "fail", detail)
        )

    g = _build(entry, env)
    n, ref = entry.dim, entry.nilradical_ref
    # [g, g] is spanned by the brackets, so it lies in span(e1..e_{n-1}) exactly
    # when no bracket has a term at e_n
    contained = all(k < n - 1 for row in g._terms for terms in row for k, _ in terms)
    reference = None if ref is None else _reference_table(ref)
    extends = reference is not None and g._extends(reference)
    # conditions (1) and (2) of verify_entry, then (3)-(5)
    implied = contained and extends and _derivation_of_reference(g, reference)
    violation = None if implied else g.check_jacobi()
    if violation is not None:
        record(
            "jacobi",
            False,
            f"fails on (e{violation.i + 1},e{violation.j + 1},e{violation.k + 1})",
        )
        return records  # the later claims are undefined for a non-Lie table
    record("jacobi", True)

    if ref is None:
        profile = g.series_profile()
        record(
            "nilpotent",
            profile.nilpotent,
            "-" if profile.nilpotent else f"lower central series dims {list(profile.lcs_dims)}",
        )
        return records

    if implied:
        # g is solvable, and nilpotent exactly when ad e_n is (see verify_entry)
        nilpotent = g._ad_nilpotent({n - 1: 1})
        solvable, is_nr = True, not nilpotent
    else:
        profile = g.series_profile()
        solvable, nilpotent = profile.solvable, profile.nilpotent
        is_nr = solvable and g.verify_nilradical(span)

    record(
        "solvable",
        solvable,
        "-" if solvable else f"derived series dims {list(profile.derived_dims)}",
    )
    record(
        "not_nilpotent",
        not nilpotent,
        "-" if not nilpotent else "lower central series reaches 0",
    )
    record(
        "derived_in_nilradical",
        contained,
        "-" if contained else f"derived algebra leaves span(e1..e{n - 1})",
    )
    if solvable:
        record("nilradical", is_nr, "-" if is_nr else f"span(e1..e{n - 1}) is not the nilradical")
    else:
        record("nilradical", False, "algebra is not solvable")

    # span(e1..e_{n-1}) is closed exactly when no bracket inside it has a term at e_n
    if any(k == n - 1 for i, j in combinations(range(n - 1), 2) for k, _ in g._terms[i][j]):
        record(
            "nilradical_table",
            False,
            f"span(e1..e{n - 1}) is not closed under the bracket",
        )
        return records
    if reference is None:
        raise CorpusError(f"unknown nilradical reference {ref} for entry {entry.id}")
    record(
        "nilradical_table",
        extends,
        "-" if extends else f"restricted table differs from {ref}",
    )
    return records


def verify_entry(
    entry: CorpusEntry,
    assignments: Optional[Sequence[Mapping[str, Fraction]]] = None,
    *,
    seed: int = 1,
    k: int = 3,
) -> VerificationReport:
    """Check an entry's structural claims at each parameter assignment.

    Entries without a nilradical reference claim: jacobi, nilpotent.
    Entries with one claim: jacobi, solvable, not_nilpotent,
    derived_in_nilradical, nilradical (span(e1..e_{n-1}) is exactly the
    nilradical) and nilradical_table (g's brackets on that span reproduce
    the referenced table).  When the jacobi claim fails at an assignment, it is
    the only record for that assignment: the other claims are undefined for a
    table that is not a Lie algebra.  When assignments is None they are drawn
    by sample_parameters(entry, seed, k).

    Entries with a reference are settled by implication where the theory
    allows, from the term table, before any full Jacobi scan.  Write
    N = span(e1..e_{n-1}) and suppose that (1) no bracket has a term at e_n,
    (2) g's brackets [e_i, e_j], i < j < n - 1, are the referenced table's
    (`LieAlgebra._extends`, on the two term tables), (3) that table is nilpotent
    and (4) a Lie algebra (its `check_jacobi`, cached per table), and (5) the
    Jacobi identity holds on the triples (e_i, e_j, e_n).  By (1) every
    constant in the Jacobi residual of a triple inside N is a constant of N,
    so by (2) that residual is the table's, 0 by (4); with (5), g is a Lie
    algebra, the semidirect sum of N and R e_n by a derivation ad e_n of N.
    Then [g, g] lies in N, g/N is abelian and N nilpotent, so g is solvable,
    and its nilradical is its set of ad-nilpotent elements, which holds N.  So
    jacobi, solvable, derived_in_nilradical and nilradical_table pass, and
    not_nilpotent and nilradical both hold exactly when ad e_n is not
    nilpotent, which `_ad_nilpotent` tests without elimination; g's own series
    are never built.  Otherwise (any of (1)-(5) fails) every claim is computed
    on g: `check_jacobi` first, so a bad table keeps its first bad triple, then
    g's derived and lower central series and `verify_nilradical`.  The span is
    closed when no bracket [e_i, e_j], i < j < n - 1, has a term at e_n, and
    nilradical_table is then compared on the term table by the same `_extends`
    (the predicate that restricting g to the span and comparing with the
    table decides), with the same details.

    Sampled points come from the sampler as integer pairs, whose constraints it
    has tested, and are built with no second test; explicit assignments are
    labelled as given and checked, one at a time, as `instantiate` checks them.
    """
    if assignments is None:
        points = [(_pair_text(entry, env), env) for env in _sample_pairs(entry, seed, k)]
    else:
        points = ((_assignment_text(entry, env), _checked_pairs(entry, env)) for env in assignments)
    span = _nilradical_span(entry.dim)  # one per dim, shared by every assignment
    records: List[ClaimRecord] = []
    for label, env in points:
        records.extend(_verify_one(entry, label, env, span))
    return VerificationReport(tuple(records))


def verify_entries(
    entries: Iterable[CorpusEntry],
    *,
    seed: int = 1,
    k: int = 3,
) -> VerificationReport:
    """Verify a sequence of entries into one combined report."""
    records: List[ClaimRecord] = []
    for entry in entries:
        records.extend(verify_entry(entry, seed=seed, k=k).records)
    return VerificationReport(tuple(records))
