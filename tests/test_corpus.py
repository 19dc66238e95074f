"""Corpus file format, sampling, instantiation and claim-verification tests.

Frozen fingerprint values come from tests/oracles/structure_oracle.py (sympy,
independent of this package).
"""

import dataclasses
import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lieq.corpus import (
    Constraint,
    ConstraintViolation,
    CorpusEntry,
    CorpusError,
    Fingerprint,
    ParseError,
    PolyExpr,
    fingerprint,
    instantiate,
    load_matrices,
    packaged_corpus,
    packaged_matrices,
    packaged_text,
    parse_corpus,
    reference_nilradical_tables,
    sample_parameters,
    serialize_corpus,
    verify_entries,
    verify_entry,
)
from lieq import corpus, linalg
from lieq.liealg import MAX_DIM, LieAlgebra
from lieq.linalg import MatrixQ, Subspace

N_APPENDIX_A = 44
N_APPENDIX_B = 731
N_FIXTURE_MATRICES = 58
N_ROUNDTRIP_SAMPLES = 40
N_VERIFY_SLICE = 25

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)

EXAMPLE_BLOCK = """\
# one codimension-one extension of the [6,4] table
algebra [7,[6,4],1,1]
dim 7
param a : real
param b : real
constraint b <= a
constraint b^2+a^2 != 0
bracket e1 e7 = 1*e1
bracket e2 e7 = (b+2*a)*e2
bracket e3 e7 = (2*b+a)*e3
bracket e4 e5 = 1*e2
bracket e4 e6 = 1*e3
bracket e4 e7 = (b+a)*e4
bracket e5 e6 = 1*e4
bracket e5 e7 = a*e5
bracket e6 e7 = b*e6
"""

HEISENBERG_BLOCK = """\
algebra [3,1]
dim 3
bracket e2 e3 = 1*e1
"""

AFFINE_LINE_BLOCK = """\
algebra [2,[1,0],1,1]
dim 2
bracket e1 e2 = 1*e1
"""

SIGN_BLOCKS = """\
algebra squares-to-one
dim 2
param eps : sign
constraint eps^2 = 1
bracket e1 e2 = eps*e1

algebra idempotent
dim 2
param eps : sign
constraint eps^2 = eps
bracket e1 e2 = eps*e1

algebra cubes-to-self
dim 2
param eps : sign
constraint eps^3 = eps
bracket e1 e2 = eps*e1
"""


# ----------------------------------------------------------------- poly exprs


def test_polyexpr_arithmetic_and_str():
    a = PolyExpr.variable("a")
    b = PolyExpr.variable("b")
    one = PolyExpr.constant(1)
    expr = (a + b) * (a - b)
    assert expr == a**2 - b**2
    assert str(a**2 - b**2) == "a^2-b^2"
    assert str(one - a * b) == "-a*b+1"
    assert (a - a).is_zero
    assert PolyExpr.constant(Fraction(-2, 3)).constant_value() == Fraction(-2, 3)
    assert (a + one).constant_value() is None


def test_polyexpr_evaluate():
    a = PolyExpr.variable("a")
    b = PolyExpr.variable("b")
    env = {"a": Fraction(1, 2), "b": Fraction(-3)}
    assert (a**2 + b).evaluate(env) == Fraction(1, 4) - 3
    with pytest.raises(CorpusError, match="missing value for parameter 'b'"):
        (a + b).evaluate({"a": Fraction(1)})


def _plain_evaluate(poly, env):
    """sum of c * prod Fraction(env[name]) ** exp, term by term, as the reference."""
    total = Fraction(0)
    for mono, coef in poly.terms:
        value = coef
        for name, exp in mono:
            value *= Fraction(env[name]) ** exp
        total += value
    return total


def test_polyexpr_evaluate_matches_plain_fractions_on_corpus():
    """Every coefficient and constraint polynomial of both appendices, at seeded points
    that mix sign values with negative and non-integral rationals."""
    rng = random.Random("evaluate-corpus")
    polys = {}
    for name in ("appendix_a.lalg", "appendix_b.lalg"):
        for entry in packaged_corpus(name):
            for b in entry.brackets:
                for c in b.coeffs:
                    polys.setdefault(c, entry.param_names)
            for c in entry.constraints:
                polys.setdefault(c.lhs, entry.param_names)
                polys.setdefault(c.rhs, entry.param_names)
    assert max(e for p in polys for mono, _ in p.terms for _, e in mono) >= 2
    values = [Fraction(-1), Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 4),
              Fraction(-1, 2), Fraction(12), Fraction(-11, 4)]
    checked = 0
    for poly, names in polys.items():
        for _ in range(24):
            env = {name: rng.choice(values) for name in names}
            got = poly.evaluate(env)
            assert type(got) is Fraction and got == _plain_evaluate(poly, env), (str(poly), env)
            checked += 1
    assert len(polys) > 80 and checked > 2000


def test_polyexpr_evaluate_takes_int_and_str_values():
    a, b = PolyExpr.variable("a"), PolyExpr.variable("b")
    poly = a**3 * b + PolyExpr.constant(Fraction(-2, 3)) * a + PolyExpr.constant(Fraction(1, 5))
    for env in ({"a": 2, "b": -3}, {"a": "2", "b": "-3"}, {"a": "-1/2", "b": 4},
                {"a": Fraction(-1, 2), "b": "4"}):
        got = poly.evaluate(env)
        assert type(got) is Fraction and got == _plain_evaluate(poly, env)
    assert PolyExpr(()).evaluate({}) == 0 and type(PolyExpr(()).evaluate({})) is Fraction
    assert PolyExpr.constant(Fraction(3, 7)).evaluate({}) == Fraction(3, 7)
    # the first monomial in term order that names a missing parameter is reported
    with pytest.raises(CorpusError, match=re.escape("missing value for parameter 'b'")):
        poly.evaluate({"a": 1})
    with pytest.raises(CorpusError, match=re.escape("missing value for parameter 'a'")):
        poly.evaluate({"b": 1})


def test_constraint_satisfied():
    a = PolyExpr.variable("a")
    c = Constraint(a**2, "<=", PolyExpr.constant(1))
    assert c.satisfied({"a": Fraction(1, 2)})
    assert not c.satisfied({"a": Fraction(2)})
    assert str(c) == "a^2 <= 1"


# -------------------------------------------------------------------- parsing


def test_parse_example_block():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    assert entry.id == "[7,[6,4],1,1]"
    assert entry.dim == 7
    assert entry.params == (("a", "real"), ("b", "real"))
    assert entry.param_names == ("a", "b")
    assert len(entry.constraints) == 2
    assert len(entry.brackets) == 9
    assert entry.nilradical_ref == "[6,4]"
    first = entry.brackets[0]
    assert (first.i, first.j) == (1, 7)
    assert first.coeffs[0] == PolyExpr.constant(1)


def test_nilradical_ref_absent_for_nilpotent_tables():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    assert entry.nilradical_ref is None
    (entry,) = parse_corpus(AFFINE_LINE_BLOCK)
    assert entry.nilradical_ref == "[1,0]"


def test_parse_empty_and_comments_only():
    assert parse_corpus("") == []
    assert parse_corpus("# nothing here\n\n  # still nothing\n") == []


def test_packaged_corpus_counts():
    assert len(packaged_corpus("appendix_a.lalg")) == N_APPENDIX_A
    assert len(packaged_corpus("appendix_b.lalg")) == N_APPENDIX_B
    assert len(packaged_matrices("fixtures_ch3.lalg")) == N_FIXTURE_MATRICES


def test_packaged_ids_unique():
    for name in ("appendix_a.lalg", "appendix_b.lalg"):
        entries = packaged_corpus(name)
        ids = [e.id for e in entries]
        assert len(set(ids)) == len(ids)


def test_fixture_matrix_contents():
    mats = packaged_matrices("fixtures_ch3.lalg")
    m = mats["der_6_4_1"]
    assert (m.nrows, m.ncols) == (6, 6)
    nonzero = {(i, j) for i in range(6) for j in range(6) if m[i, j] != 0}
    assert nonzero == {(1, 2), (4, 5)}
    assert m[1, 2] == 1


def test_load_matrices_ignores_algebra_blocks():
    text = EXAMPLE_BLOCK + "\nmatrix tiny 2x2\n1 0\n-1/2 3\n"
    mats = load_matrices(text)
    assert set(mats) == {"tiny"}
    assert mats["tiny"] == MatrixQ([[1, 0], [Fraction(-1, 2), 3]])
    assert len(parse_corpus(text)) == 1


# ------------------------------------------------------------- parse failures


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_corpus(text)
    return info.value


def test_error_missing_dim():
    err = _parse_error("algebra X\nbracket e1 e2 = 1*e1\n")
    assert "'bracket' before 'dim'" in str(err)
    err = _parse_error("algebra X\nparam a : real\n")
    assert "algebra X has no 'dim' line" in str(err)


def test_error_duplicate_dim():
    err = _parse_error("algebra X\ndim 2\ndim 3\n")
    assert "duplicate 'dim'" in str(err)
    assert err.line == 3


def test_error_bad_dim():
    err = _parse_error("algebra X\ndim zero\n")
    assert "expected a positive dimension" in str(err)


def test_error_dim_unicode_digit():
    # '²' is a digit to str.isdigit, but not a decimal digit that int() reads
    assert _located("algebra X\ndim \u00b2\n") == (
        "line 2, column 5: expected a positive dimension", (2, 5))


def test_error_matrix_zero_denominator():
    # the column is that of the denominator, as in the expression grammar
    assert _located("matrix m 2x2\n1 2\n  3 -1/00\n") == (
        "line 3, column 8: zero denominator", (3, 8))


def test_error_dim_above_max():
    err = _parse_error("algebra X\nparam a : real\ndim 8\n")
    assert f"dimension 8 exceeds the supported bound of {MAX_DIM}" in str(err)
    assert (err.line, err.column) == (3, 5)
    assert len(parse_corpus("algebra X\ndim 7\n")) == 1


def test_error_bracket_out_of_range():
    err = _parse_error("algebra X\ndim 3\nbracket e2 e4 = 1*e1\n")
    assert "basis index e4 out of range for dim 3" in str(err)
    err = _parse_error("algebra X\ndim 3\nbracket e1 e2 = 1*e5\n")
    assert "basis index e5 out of range for dim 3" in str(err)


def test_error_bracket_order():
    err = _parse_error("algebra X\ndim 3\nbracket e2 e1 = 1*e1\n")
    assert "must satisfy i < j, got (e2, e1)" in str(err)


def test_error_duplicate_bracket():
    err = _parse_error(
        "algebra X\ndim 3\nbracket e1 e2 = 1*e1\nbracket e1 e2 = 1*e3\n"
    )
    assert "duplicate bracket (e1, e2); first given on line 3" in str(err)
    assert err.line == 4


def test_error_undeclared_parameter():
    err = _parse_error("algebra X\ndim 2\nbracket e1 e2 = a*e1\n")
    assert "undeclared parameter 'a'" in str(err)
    err = _parse_error("algebra X\ndim 2\nconstraint b <= 1\n")
    assert "undeclared parameter 'b'" in str(err)


def test_error_duplicate_parameter():
    err = _parse_error("algebra X\ndim 2\nparam a : real\nparam a : sign\n")
    assert "duplicate parameter 'a'" in str(err)


def test_error_bad_param_kind():
    err = _parse_error("algebra X\ndim 2\nparam a : complex\n")
    assert "expected 'real' or 'sign'" in str(err)


def test_error_unknown_directive():
    err = _parse_error("algebra X\ndim 2\nstructure e1 e2 = 1*e1\n")
    assert "unknown directive 'structure'" in str(err)
    assert err.line == 3


def test_error_directive_outside_block():
    err = _parse_error("dim 3\n")
    assert "'dim' outside an algebra block" in str(err)


def test_error_zero_denominator():
    err = _parse_error("algebra X\ndim 2\nbracket e1 e2 = 1/0*e1\n")
    assert "zero denominator" in str(err)


def test_error_syntax_position():
    err = _parse_error("algebra X\ndim 2\nbracket e1 e2 = 1*\n")
    assert err.line == 3
    assert "expected" in str(err)
    assert str(err).startswith(f"line {err.line}, column {err.column}:")


def test_error_matrix_shape():
    err = _parse_error("matrix m 2x2\n1 0\n")
    assert "ends after 1 of 2 rows" in str(err)
    err = _parse_error("matrix m 2x2\n1 0 3\n0 1\n")
    assert "expected 2 rational entries for matrix m" in str(err)
    err = _parse_error("matrix m 2x2\n1 0\n0 1\nmatrix m 1x1\n0\n")
    assert "duplicate matrix name 'm'" in str(err)


def _located(text):
    err = _parse_error(text)
    return str(err), (err.line, err.column)


def test_error_unexpected_character():
    assert _located("algebra X\ndim 2\nbracket e1 e2 = 1$*e1\n") == (
        "line 3, column 18: unexpected character '$'", (3, 18))


def test_error_expected_operator():
    assert _located("algebra X\ndim 2\nbracket e1 e2 1*e1\n") == (
        "line 3, column 15: expected '=', found '1'", (3, 15))
    assert _located("algebra X\ndim 2\nparam a real\n") == (
        "line 3, column 9: expected ':', found 'real'", (3, 9))
    assert _located("algebra X\ndim 2\nparam a : real\nbracket e1 e2 = (a+1*e1\n") == (
        "line 4, column 25: expected ')', found end of line", (4, 25))


def test_error_expected_end_of_line():
    assert _located("algebra X\ndim 2\nparam a : real b\n") == (
        "line 3, column 16: expected end of line, found 'b'", (3, 16))


def test_error_missing_denominator():
    assert _located("algebra X\ndim 2\nparam a : real\nbracket e1 e2 = 1/a*e1\n") == (
        "line 4, column 19: expected a denominator, found 'a'", (4, 19))


def test_error_non_integer_exponent():
    text = "algebra X\ndim 2\nparam a : real\nparam b : real\nconstraint a^b <= 1\n"
    assert _located(text) == (
        "line 5, column 14: expected an integer exponent, found 'b'", (5, 14))


def test_error_missing_comparison_operator():
    assert _located("algebra X\ndim 2\nparam a : real\nconstraint a 1\n") == (
        "line 4, column 14: expected a comparison operator (<=, <, =, !=), found '1'",
        (4, 14))


def test_error_bracket_needs_basis_symbol():
    assert _located("algebra X\ndim 2\nbracket 1 e2 = 1*e1\n") == (
        "line 3, column 9: expected a basis symbol like 'e3', found '1'", (3, 9))


def test_error_coefficient_needs_star_and_symbol():
    assert _located("algebra X\ndim 2\nbracket e1 e2 = 2 e1\n") == (
        "line 3, column 19: expected '*' followed by a basis symbol, found 'e1'", (3, 19))


def test_error_missing_algebra_id():
    assert _located("algebra\ndim 2\n") == (
        "line 1, column 9: expected an algebra id", (1, 9))
    assert _located("  algebra   \ndim 2\n") == (
        "line 1, column 11: expected an algebra id", (1, 11))


def test_error_matrix_header_name():
    assert _located("matrix 2x2\n1 0\n0 1\n") == (
        "line 1, column 8: expected a matrix name, found '2'", (1, 8))


def test_error_matrix_header_row_count():
    assert _located("matrix m x2\n1 0\n0 1\n") == (
        "line 1, column 10: expected a row count, found 'x2'", (1, 10))


def test_error_matrix_header_x():
    assert _located("matrix m 2 2\n1 0\n0 1\n") == (
        "line 1, column 12: expected 'x' between row and column counts, found '2'", (1, 12))


def test_error_matrix_header_column_count():
    assert _located("matrix m 2xy\n1 0\n0 1\n") == (
        "line 1, column 11: expected a column count, found 'xy'", (1, 11))


def test_error_matrix_dimensions_positive():
    for header in ("0x2", "2x0"):
        assert _located(f"matrix m {header}\n") == (
            "line 1, column 10: matrix dimensions must be positive", (1, 10))


def test_error_parameter_name():
    assert _located("algebra X\ndim 2\nparam 1 : real\n") == (
        "line 3, column 7: expected a parameter name, found '1'", (3, 7))


def test_error_bracket_first_index_out_of_range():
    # both symbols are read before either index is range-checked
    assert _located("algebra X\ndim 3\nbracket e4 e5 = 1*e1\n") == (
        "line 3, column 9: basis index e4 out of range for dim 3", (3, 9))
    assert _located("algebra X\ndim 3\nbracket e4 e1 = 1*e1\n") == (
        "line 3, column 9: basis index e4 out of range for dim 3", (3, 9))
    assert _located("algebra X\ndim 3\nbracket e4 x = 1*e1\n") == (
        "line 3, column 12: expected a basis symbol like 'e3', found 'x'", (3, 12))


# one-word mutations of packaged blocks; "$" and "1/0" reach the tokenizer's
# and the matrix rows' own rejections
_MUTATION_WORDS = (
    "algebra", "matrix", "dim", "param", "constraint", "bracket", "real", "sign",
    "a", "b", "z", "x", "x2", "2x2", "0x1", "3x0", "m", "e", "e0", "e1", "e2", "e7", "e9",
    "0", "1", "2", "8", "-1", "1/2", "1/0", "-3/4", "1/x",
    "=", "!=", "<=", "<", ":", "+", "-", "*", "/", "^", "^2", "^a", "(", ")",
    "*e1", "a*e2", "(a+1)*e3", "1*", "2a", "$", "6", "6x", "y6", "6x0", "-2",
)


def _packaged_blocks(name):
    return [
        block for block in packaged_text(name).split("\n\n")
        if re.search(r"^(algebra|matrix) ", block, re.M)
    ]


def _mutate(rng, block):
    """Insert, delete or replace one word of one line (the header line a
    quarter of the time), words re-joined by single spaces."""
    lines = block.split("\n")
    n = rng.randrange(len(lines)) if rng.random() < 0.75 else 0
    words = lines[n].split()
    op = rng.choice(("insert", "delete", "replace")) if words else "insert"
    if op == "insert":
        words.insert(rng.randint(0, len(words)), rng.choice(_MUTATION_WORDS))
    elif op == "delete":
        del words[rng.randrange(len(words))]
    else:
        words[rng.randrange(len(words))] = rng.choice(_MUTATION_WORDS)
    lines[n] = " ".join(words)
    return "\n".join(lines)


def _parse_outcome(text):
    """The parsed entries and matrices in full, or the error with its text."""
    try:
        entries = parse_corpus(text)
        matrices = load_matrices(text)
    except (ParseError, ZeroDivisionError) as err:
        return "error", f"{type(err).__name__}: {err}"
    mats = sorted((name, repr(m)) for name, m in matrices.items())
    return "ok", f"{entries!r}|{mats!r}"


def test_parse_digest_frozen_under_mutation():
    """Refactor guard for the parser: 2,000 seeded one-word mutations of
    appendix-B and fixture blocks parse to the same entries and matrices, or
    fail with the same message at the same line and column, as the code that
    froze the digest.  One mutation writes a '1/0' matrix entry, which fails
    with a located "zero denominator" ParseError, not a ZeroDivisionError."""
    algebra_blocks = _packaged_blocks("appendix_b.lalg")
    matrix_blocks = _packaged_blocks("fixtures_ch3.lalg")
    assert (len(algebra_blocks), len(matrix_blocks)) == (N_APPENDIX_B, N_FIXTURE_MATRICES)
    rng = random.Random(3)
    digest = hashlib.sha256()
    kinds = {"ok": 0, "ParseError": 0, "ZeroDivisionError": 0}
    for _ in range(2000):
        pool = algebra_blocks if rng.random() < 0.75 else matrix_blocks
        kind, text = _parse_outcome(_mutate(rng, rng.choice(pool)))
        kinds["ok" if kind == "ok" else text.split(":")[0]] += 1
        digest.update(text.encode() + b"\n")
    assert kinds == {"ok": 289, "ParseError": 1711, "ZeroDivisionError": 0}
    assert digest.hexdigest() == "3d5dafd095a3ffe9b947b5fa56e413831fc0ef98512cd6ac0b795accd5a41ddf"


# -------------------------------------------------------------- serialization


def test_serialize_roundtrip_example():
    entries = parse_corpus(EXAMPLE_BLOCK)
    text = serialize_corpus(entries)
    assert parse_corpus(text) == entries


def test_serialize_roundtrip_packaged_slice():
    rng = random.Random(1)
    pool = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )
    entries = rng.sample(pool, N_ROUNDTRIP_SAMPLES)
    assert parse_corpus(serialize_corpus(entries)) == entries


@seed(1)
@settings(max_examples=40, deadline=None)
@given(
    c12=small_fractions,
    c13=small_fractions,
    use_param=st.booleans(),
    exponent=st.integers(min_value=1, max_value=3),
)
def test_serialize_roundtrip_property(c12, c13, use_param, exponent):
    a = PolyExpr.variable("a")
    zero = PolyExpr.constant(0)
    coeff = PolyExpr.constant(c12) * (a**exponent if use_param else PolyExpr.constant(1))
    entry = CorpusEntry(
        id="t",
        dim=3,
        params=(("a", "real"),) if use_param else (),
        constraints=(Constraint(a, "<=", PolyExpr.constant(2)),) if use_param else (),
        brackets=(
            _bracket(1, 2, (coeff, zero, PolyExpr.constant(c13))),
        ),
    )
    assert parse_corpus(serialize_corpus([entry])) == [entry]


def _bracket(i, j, coeffs):
    from lieq.corpus import Bracket

    return Bracket(i, j, tuple(coeffs))


# -------------------------------------------------------------- instantiation


def test_instantiate_example_at_one_one():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    g = instantiate(entry, {"a": Fraction(1), "b": Fraction(1)})
    assert g.dim == 7
    assert g.structure_constant(1, 6)[1] == 3  # [e2,e7] = 3 e2
    assert g.structure_constant(2, 6)[2] == 3  # [e3,e7] = 3 e3
    assert g.structure_constant(3, 6)[3] == 2  # [e4,e7] = 2 e4
    assert g.structure_constant(3, 4)[1] == 1  # [e4,e5] = e2
    assert g.check_jacobi() is None


def test_instantiate_drops_zero_rows():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    g = instantiate(entry, {"a": Fraction(1), "b": Fraction(-1)})
    # b*e6 vanishes at b = -1... no: coefficient is b itself, = -1, nonzero;
    # (b+a)*e4 = 0 is the vanishing row.
    assert (3, 6) not in g.table
    assert g.structure_constant(3, 6) == (0,) * 7


def test_instantiate_matches_validating_constructor():
    """instantiate gives the table and the term table (integral constants as
    int) of LieAlgebra on the densely evaluated brackets, at every
    sample_parameters(seed=1, k=3) assignment of appendices A and B."""
    from test_liealg import _typed_terms

    count = 0
    for entry in list(packaged_corpus("appendix_a.lalg")) + list(packaged_corpus("appendix_b.lalg")):
        for env in sample_parameters(entry, seed=1, k=3):
            g = instantiate(entry, env)
            dense = {(i - 1, j - 1): [poly.evaluate(env) for poly in coeffs] for i, j, coeffs in entry.brackets}
            ref = LieAlgebra(entry.dim, dense)
            assert g.table == ref.table and list(g.table) == list(ref.table), entry.id
            assert _typed_terms(g._terms) == _typed_terms(ref._terms), entry.id
            count += 1
    assert count == 1641


def test_instantiate_parameterless():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    g = instantiate(entry, {})
    assert g == LieAlgebra(3, {(1, 2): [1, 0, 0]})


def test_instantiate_rejects_malformed_entry():
    # a CorpusEntry built in code is not range-checked by the parser
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    coeffs = entry.brackets[0].coeffs
    for bad in (
        dataclasses.replace(entry, dim=MAX_DIM + 1),
        dataclasses.replace(entry, brackets=(_bracket(3, 2, coeffs),)),
        dataclasses.replace(entry, brackets=(_bracket(2, 4, coeffs),)),
        dataclasses.replace(entry, brackets=(_bracket(2, 3, coeffs[:2]),)),
    ):
        with pytest.raises(CorpusError, match="dimension or bracket out of range"):
            instantiate(bad, {})


def test_instantiate_rejects_constraint_violation():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    with pytest.raises(ConstraintViolation, match=re.escape("b^2+a^2 != 0")):
        instantiate(entry, {"a": Fraction(0), "b": Fraction(0)})
    with pytest.raises(ConstraintViolation, match=re.escape("b <= a")):
        instantiate(entry, {"a": Fraction(0), "b": Fraction(1)})
    # A constraint built in code has no source text and is named canonically.
    a, b = PolyExpr.variable("a"), PolyExpr.variable("b")
    built = Constraint(b**2 + a**2, "!=", PolyExpr.constant(0))
    assert built in entry.constraints
    coded = dataclasses.replace(entry, constraints=(built,))
    with pytest.raises(ConstraintViolation, match=re.escape("'a^2+b^2 != 0'")):
        instantiate(coded, {"a": Fraction(0), "b": Fraction(0)})


def test_instantiate_and_verify_refuse_float_assignments():
    # 0.1 would be computed at 3602879701896397/36028797018963968 while the
    # report said a=0.1, so an assignment value must be an exact rational
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    with pytest.raises(TypeError, match="float"):
        instantiate(entry, {"a": 0.5, "b": Fraction(1, 2)})
    with pytest.raises(TypeError, match="float"):
        verify_entry(entry, [{"a": 0.1, "b": Fraction(0)}])
    g = instantiate(entry, {"a": "1/2", "b": 0})
    assert g.structure_constant(1, 6)[1] == 1


def test_instantiate_rejects_missing_and_unknown_params():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    with pytest.raises(CorpusError, match="missing value for parameter 'b'"):
        instantiate(entry, {"a": Fraction(1)})
    with pytest.raises(CorpusError, match="unknown parameter 'c'"):
        instantiate(entry, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)})


# ------------------------------------------------------------------- sampling


def test_sample_parameterless_entry():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    assert sample_parameters(entry, seed=1, k=3) == [{}]


def test_sample_is_deterministic_and_seed_sensitive():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    first = sample_parameters(entry, seed=1, k=5)
    again = sample_parameters(entry, seed=1, k=5)
    other = sample_parameters(entry, seed=2, k=5)
    assert first == again
    assert first != other
    assert len(first) == 5


def test_sample_satisfies_constraints_exactly():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    for env in sample_parameters(entry, seed=7, k=10):
        assert set(env) == {"a", "b"}
        assert all(isinstance(v, Fraction) for v in env.values())
        assert all(c.satisfied(env) for c in entry.constraints)


def test_sample_assignments_distinct():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    envs = sample_parameters(entry, seed=1, k=10)
    keys = [tuple(env[n] for n in entry.param_names) for env in envs]
    assert len(set(keys)) == len(keys)


def test_sample_sign_domains():
    square, idem, cube = parse_corpus(SIGN_BLOCKS)
    values = lambda e: {env["eps"] for env in sample_parameters(e, seed=1, k=10)}
    assert values(square) == {Fraction(-1), Fraction(1)}
    assert values(idem) == {Fraction(0), Fraction(1)}
    assert values(cube) == {Fraction(-1), Fraction(0), Fraction(1)}


def test_sample_returns_fewer_when_domain_small():
    (square, _, _) = parse_corpus(SIGN_BLOCKS)
    assert len(sample_parameters(square, seed=1, k=5)) == 2


def test_sample_stops_once_sign_domain_exhausted(monkeypatch):
    # every entry here has one constraint, so each key checked is one call of the
    # integer predicate that decides admissibility
    calls = []
    original = Constraint._holds

    def counting(constraint, env):
        calls.append(dict(env))
        return original(constraint, env)

    monkeypatch.setattr(Constraint, "_holds", counting)
    (square, _, _) = parse_corpus(SIGN_BLOCKS)
    assert len(sample_parameters(square, seed=1, k=5)) == 2
    # each of the 3 keys is checked once; no draw after all 3 were tried
    assert 2 <= len(calls) <= 3
    assert len({env["eps"] for env in calls}) == len(calls)

    calls.clear()
    text = (
        "algebra no-signs-fit\ndim 2\nparam s : sign\nparam t : sign\n"
        "constraint s^2+t^2 = 3\nbracket e1 e2 = s*e1\n"
    )
    (entry,) = parse_corpus(text)
    with pytest.raises(CorpusError, match=r"entry no-signs-fit after (\d+) draws") as info:
        sample_parameters(entry, seed=1, k=3)
    assert 0 < len(calls) <= 3**2
    draws = int(re.search(r"after (\d+) draws", str(info.value)).group(1))
    assert len(calls) <= draws < 8000


def _fraction_value(poly, env):
    """poly at env, name -> Fraction, summed term by term in Fractions."""
    total = Fraction(0)
    for mono, coef in poly.terms:
        for name, exp in mono:
            coef *= env[name] ** exp
        total += coef
    return total


_FRACTION_OPS = {"<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
                 "=": lambda a, b: a == b, "!=": lambda a, b: a != b}


def _fraction_sample(entry, seed, k):
    """The parameter sampler on Fractions: its draws, sort and rejection, as a reference
    for the integer sampler behind sample_parameters."""
    if not entry.params:
        return [{}]
    digest = hashlib.sha256(f"{entry.id}|{seed}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    signs = (Fraction(-1), Fraction(0), Fraction(1))
    real_names = [name for name, kind in entry.params if kind == "real"]
    domain = None if real_names else 3 ** len(entry.params)
    found, tried = [], set()
    for attempt in range(8000):
        env = {}
        for name, kind in entry.params:
            if kind == "sign":
                env[name] = rng.choice(signs)
            elif attempt % 2:
                den = rng.randint(1, 4)
                env[name] = Fraction(rng.randint(-den, den), den)
            else:
                env[name] = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if attempt % 2:
            for name, value in zip(real_names, sorted((env[n] for n in real_names), reverse=True)):
                env[name] = value
        key = tuple(env[name] for name, _ in entry.params)
        if key in tried:
            continue
        tried.add(key)
        if all(_FRACTION_OPS[c.op](_fraction_value(c.lhs, env), _fraction_value(c.rhs, env))
               for c in entry.constraints):
            found.append(env)
            if len(found) == k:
                return found
        if len(tried) == domain:
            break
    if not found:
        raise CorpusError(f"no admissible parameter assignment found for entry {entry.id} "
                          f"after {attempt + 1} draws")
    return found


SAMPLER_BLOCKS = SIGN_BLOCKS + """
algebra signs-and-reals
dim 3
param s : sign
param a : real
param t : sign
param b : real
constraint a != b
constraint s*t != 0
constraint a^2+b^2 != 0
bracket e1 e3 = (s*a+b)*e1
bracket e2 e3 = t*e2

algebra on-a-line
dim 2
param a : real
param b : real
constraint 3*a = 2*b
constraint a != 0
bracket e1 e2 = (a-b)*e1

algebra chained
dim 6
param a : real
param b : real
param c : real
param d : real
constraint -1 <= d
constraint d <= c
constraint c <= b
constraint b <= a
constraint a <= 1
constraint a*b*c*d != 0
bracket e1 e6 = a*e1
bracket e2 e6 = b*e2
bracket e3 e6 = c*e3
bracket e4 e6 = d*e4

algebra two-signs
dim 2
param s : sign
param t : sign
constraint s < t
bracket e1 e2 = s*e1
"""

# grids with no admissible point: all signs, and reals that never reach 1/5
EXHAUSTED_BLOCKS = """algebra no-signs-fit
dim 2
param s : sign
param t : sign
constraint s^2+t^2 = 3
bracket e1 e2 = s*e1

algebra off-the-grid
dim 2
param a : real
param b : real
constraint 5*a = 1
bracket e1 e2 = (a+b)*e1
"""


def test_sample_draws_match_the_fraction_sampler():
    """sample_parameters, drawn and tested in integers, returns the Fraction sampler's
    assignments on every appendix-A and appendix-B entry at seeds 1-3 and on synthetic
    entries: signs only, mixed with reals, = and != constraints, a chain
    -1 <= d <= c <= b <= a <= 1; where the grid has no admissible point it raises the
    same error after the same number of draws."""
    entries = [*packaged_corpus("appendix_a.lalg"), *packaged_corpus("appendix_b.lalg")]
    for entry in entries:
        for seed in (1, 2, 3):
            assert sample_parameters(entry, seed=seed, k=3) == _fraction_sample(entry, seed, 3), entry.id
    for entry in parse_corpus(SAMPLER_BLOCKS):
        for seed in (1, 2, 3, 4, 5):
            for k in (1, 3, 7):
                got = sample_parameters(entry, seed=seed, k=k)
                assert got == _fraction_sample(entry, seed, k), (entry.id, seed, k)
                assert all(type(v) is Fraction for env in got for v in env.values())
    for entry in parse_corpus(EXHAUSTED_BLOCKS):
        with pytest.raises(CorpusError) as expected:
            _fraction_sample(entry, 1, 3)
        with pytest.raises(CorpusError) as got:
            sample_parameters(entry, seed=1, k=3)
        assert str(got.value) == str(expected.value)
    assert "after 8000 draws" in str(got.value)


def test_sampled_points_build_the_instantiated_algebra():
    """At every seed-1 sampled point of appendices A and B, the builder the verify path
    runs on the sampler's integer pairs gives the algebra, and the _den, of public
    instantiate on the returned Fractions and of exact terms evaluated in Fractions."""
    count = 0
    for entry in [*packaged_corpus("appendix_a.lalg"), *packaged_corpus("appendix_b.lalg")]:
        for pairs in corpus._sample_pairs(entry, 1, 3):
            env = {name: Fraction(p, q) for name, (p, q) in pairs.items()}
            built = corpus._build(entry, pairs)
            public = instantiate(entry, env)
            values = {(i - 1, j - 1): [(k, _fraction_value(c, env)) for k, c in enumerate(coeffs)]
                      for i, j, coeffs in entry.brackets}
            exact = LieAlgebra._of_terms(entry.dim, {ij: [(k, c) for k, c in ts if c]
                                                     for ij, ts in values.items()})
            assert built == public == exact, entry.id
            assert built._den == public._den == exact._den, entry.id
            count += 1
    assert count == 1641


def test_verify_checks_each_sampled_point_once(monkeypatch):
    """verify_entry tests a sampled point's constraints in the sampler only: it makes
    no more constraint tests than drawing the same points does."""
    calls = []
    original = Constraint._holds

    def counting(constraint, env):
        calls.append(constraint)
        return original(constraint, env)

    monkeypatch.setattr(Constraint, "_holds", counting)
    for entry in [*parse_corpus(EXAMPLE_BLOCK), *parse_corpus(SAMPLER_BLOCKS)]:
        calls.clear()
        points = sample_parameters(entry, seed=3, k=3)
        drawn = len(calls)
        calls.clear()
        report = verify_entry(entry, seed=3, k=3)
        assert drawn > 0 and len(calls) == drawn, entry.id
        assert len({r.assignment for r in report.records}) == len(points)


def test_verify_checks_explicit_assignments():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    good = {"a": Fraction(1), "b": Fraction(1, 2)}
    for bad, source in (({"a": Fraction(0), "b": Fraction(0)}, "b^2+a^2 != 0"),
                        ({"a": Fraction(0), "b": Fraction(1)}, "b <= a")):
        with pytest.raises(ConstraintViolation, match=re.escape(f"'{source}' of entry")) as info:
            verify_entry(entry, assignments=[good, bad])
        assert info.value.constraint.source == source
    assert verify_entry(entry, [good, {"a": "2/4", "b": 0}]).records[-1].assignment == "a=2/4,b=0"


def test_sample_rejects_bad_k():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    with pytest.raises(ValueError, match="k must be positive"):
        sample_parameters(entry, k=0)


def test_sample_exhaustion_names_entry():
    text = "algebra hopeless\ndim 2\nparam a : real\nconstraint a^2 < 0\nbracket e1 e2 = a*e1\n"
    (entry,) = parse_corpus(text)
    with pytest.raises(CorpusError, match="entry hopeless"):
        sample_parameters(entry, seed=1, k=1)


def test_sample_handles_chained_order_constraints():
    text = (
        "algebra chained\ndim 6\n"
        + "".join(f"param {n} : real\n" for n in "abcd")
        + "constraint b <= a\nconstraint c <= b\nconstraint d <= c\n"
        + "constraint a <= 1\nconstraint -1 <= d\n"
        + "constraint a*b*c*d != 0\n"
        + "bracket e1 e6 = a*e1\nbracket e2 e6 = b*e2\n"
        + "bracket e3 e6 = c*e3\nbracket e4 e6 = d*e4\n"
    )
    (entry,) = parse_corpus(text)
    envs = sample_parameters(entry, seed=1, k=3)
    assert len(envs) == 3
    for env in envs:
        assert env["d"] <= env["c"] <= env["b"] <= env["a"]


# --------------------------------------------------------------- fingerprints


def test_fingerprint_heisenberg():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    fp = fingerprint(instantiate(entry, {}))
    assert fp == Fingerprint(
        dim=3,
        derived_dims=(1, 0),
        lcs_dims=(1, 0),
        center_dim=1,
        derived_algebra_dim=1,
        nilradical_dim=3,
        derivation_algebra_dim=6,
        killing_form_rank=0,
    )


def test_fingerprint_affine_line():
    (entry,) = parse_corpus(AFFINE_LINE_BLOCK)
    fp = fingerprint(instantiate(entry, {}))
    assert fp == Fingerprint(
        dim=2,
        derived_dims=(1, 0),
        lcs_dims=(1, 1),
        center_dim=0,
        derived_algebra_dim=1,
        nilradical_dim=1,
        derivation_algebra_dim=2,
        killing_form_rank=1,
    )


def test_fingerprint_abelian():
    fp = fingerprint(LieAlgebra(3, {}))
    assert fp == Fingerprint(
        dim=3,
        derived_dims=(0,),
        lcs_dims=(0,),
        center_dim=3,
        derived_algebra_dim=0,
        nilradical_dim=3,
        derivation_algebra_dim=9,
        killing_form_rank=0,
    )


def test_fingerprint_nonsolvable_records_zero_nilradical():
    sl2 = LieAlgebra(3, {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]})
    fp = fingerprint(sl2)
    assert fp.nilradical_dim == 0
    assert fp.killing_form_rank == 3


def _random_invertible(rng, n):
    while True:
        P = MatrixQ(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if P.rank() == n:
            return P


def test_fingerprint_invariant_under_basis_change():
    rng = random.Random(1)
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    for env in sample_parameters(entry, seed=1, k=2):
        g = instantiate(entry, env)
        fp = fingerprint(g)
        for _ in range(3):
            P = _random_invertible(rng, g.dim)
            assert fingerprint(g.change_basis(P)) == fp


def _unimodular(rng, n):
    """Unit upper bidiagonal with entries in -2..2 above the diagonal and
    random column signs: determinant +-1, so the inverse is integral."""
    above = [rng.choice((-2, -1, 1, 2)) for _ in range(n - 1)]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return MatrixQ(
        [
            [signs[j] * (int(i == j) + (above[i] if j == i + 1 else 0)) for j in range(n)]
            for i in range(n)
        ]
    )


def test_fingerprint_invariant_over_appendix_b_sweep():
    rng = random.Random(10)
    entries = list(packaged_corpus("appendix_b.lalg"))[::10]
    assert len(entries) == 74
    for entry in entries:
        (env,) = sample_parameters(entry, seed=1, k=1)
        g = instantiate(entry, env)
        assert fingerprint(g.change_basis(_unimodular(rng, g.dim))) == fingerprint(g), entry.id


# ----------------------------------------------------------- claim reports


def test_verify_nilpotent_entry_claims():
    (entry,) = parse_corpus(HEISENBERG_BLOCK)
    report = verify_entry(entry)
    assert report.passed
    assert [r.claim for r in report.records] == ["jacobi", "nilpotent"]
    assert all(r.status == "pass" and r.detail == "-" for r in report.records)
    assert report.records[0].assignment == "-"


def test_verify_extension_entry_claims():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    report = verify_entry(entry, seed=1, k=2)
    assert report.passed
    claims = [r.claim for r in report.records]
    assert claims == 2 * [
        "jacobi",
        "solvable",
        "not_nilpotent",
        "derived_in_nilradical",
        "nilradical",
        "nilradical_table",
    ]
    assert report.records[0].assignment.startswith("a=")


def test_verify_explicit_assignment_label():
    (entry,) = parse_corpus(EXAMPLE_BLOCK)
    report = verify_entry(entry, [{"a": Fraction(1), "b": Fraction(1)}])
    assert report.passed
    assert report.records[0].assignment == "a=1,b=1"


def test_verify_detects_jacobi_failure():
    text = "algebra broken\ndim 3\nbracket e1 e2 = 1*e3\nbracket e1 e3 = 1*e1\n"
    (entry,) = parse_corpus(text)
    report = verify_entry(entry)
    assert not report.passed
    (failure,) = report.failures()
    assert failure.claim == "jacobi"
    assert re.fullmatch(r"fails on \(e\d,e\d,e\d\)", failure.detail)
    (nested,) = parse_corpus(text.replace("broken", "[3,[2,0],1,1]"))
    assert [r.claim for r in verify_entry(nested).records] == ["jacobi"]


def test_verify_detects_wrong_nilradical_table():
    text = "algebra [3,[2,0],9,9]\ndim 3\nbracket e1 e2 = 1*e1\n"
    (entry,) = parse_corpus(text)
    report = verify_entry(entry)
    failed = {r.claim for r in report.failures()}
    assert failed == {"nilradical", "nilradical_table"}
    details = {r.claim: r.detail for r in report.records}
    assert details["nilradical_table"] == "restricted table differs from [2,0]"


def test_verify_non_solvable_entry_claims():
    # sl(2) with basis (e, f, h) filed as an extension of the abelian [2,0]:
    # it is not solvable, and span(e1, e2) is not closed since [e, f] = h
    text = ("algebra [3,[2,0],1,1]\ndim 3\nbracket e1 e2 = 1*e3\n"
            "bracket e1 e3 = -2*e1\nbracket e2 e3 = 2*e2\n")
    (entry,) = parse_corpus(text)
    report = verify_entry(entry)
    details = {r.claim: r.detail for r in report.failures()}
    assert details == {
        "solvable": "derived series dims [3]",
        "derived_in_nilradical": "derived algebra leaves span(e1..e2)",
        "nilradical": "algebra is not solvable",
        "nilradical_table": "span(e1..e2) is not closed under the bracket",
    }


def test_verify_detects_nonnilpotent_table_entry():
    text = "algebra fake-nilpotent\ndim 2\nbracket e1 e2 = 1*e1\n"
    (entry,) = parse_corpus(text)
    report = verify_entry(entry)
    (failure,) = report.failures()
    assert failure.claim == "nilpotent"
    assert "lower central series dims" in failure.detail


def test_verify_unknown_reference():
    text = "algebra [3,[2,1],1,1]\ndim 3\nbracket e1 e3 = 1*e1\n"
    (entry,) = parse_corpus(text)
    with pytest.raises(CorpusError, match=re.escape("unknown nilradical reference [2,1]")):
        verify_entry(entry)


@pytest.mark.parametrize("ref", ["[x,0]", "[9,0]", "[0,0]"])
def test_verify_malformed_abelian_reference_names_entry(ref):
    entry_id = f"[3,{ref},1,1]"
    (entry,) = parse_corpus(f"algebra {entry_id}\ndim 3\nbracket e1 e3 = 1*e1\n")
    message = f"unknown nilradical reference {ref} for entry {entry_id}"
    with pytest.raises(CorpusError, match=re.escape(message)):
        verify_entry(entry)


# tables that no appendix-A id names: [5,99] is no Lie algebra, as
# [[e2, e3], e1] = -e5, though its lower central series reaches 0; [2,99] is a
# Lie algebra that is not nilpotent
BAD_REFERENCES = """\
algebra [5,99]
dim 5
bracket e1 e2 = 1*e3
bracket e1 e4 = 1*e5
bracket e2 e3 = 1*e4

algebra [2,99]
dim 2
bracket e1 e2 = 1*e1
"""


@pytest.mark.parametrize("text, expected", [
    ("algebra [6,[5,99],1,1]\ndim 6\nbracket e1 e2 = 1*e3\nbracket e1 e4 = 1*e5\n"
     "bracket e2 e3 = 1*e4\n", [("jacobi", "fail", "fails on (e1,e2,e3)")]),
    ("algebra [3,[2,99],1,1]\ndim 3\nbracket e1 e2 = 1*e1\n", [
        ("jacobi", "pass", "-"), ("solvable", "pass", "-"), ("not_nilpotent", "pass", "-"),
        ("derived_in_nilradical", "pass", "-"),
        ("nilradical", "fail", "span(e1..e2) is not the nilradical"),
        ("nilradical_table", "pass", "-"),
    ]),
])
def test_verify_takes_the_full_path_on_a_bad_reference(monkeypatch, text, expected):
    """g's table on span(e1..e_{n-1}) is the reference's and ad(e_n) is a derivation
    of it, but a reference that is no Lie algebra, or not nilpotent, settles nothing:
    the claims are computed on g as ever."""
    tables = {e.id: e for e in parse_corpus(BAD_REFERENCES)}
    corpus._reference_table.cache_clear()
    monkeypatch.setattr(corpus, "reference_nilradical_tables", lambda: tables)
    try:
        (entry,) = parse_corpus(text)
        report = verify_entry(entry)
    finally:
        corpus._reference_table.cache_clear()
    assert [(r.claim, r.status, r.detail) for r in report.records] == expected


@pytest.mark.parametrize("text, ref", [
    # [6,4] with [e5, e6] = 2 e4: the same terms at other values, still a Lie algebra
    (EXAMPLE_BLOCK.replace("[7,[6,4],1,1]", "[7,[6,4],97,1]")
     .replace("bracket e5 e6 = 1*e4", "bracket e5 e6 = 2*e4"), "[6,4]"),
    # span(e1, e2) is abelian but cites the abelian table of dim 1
    ("algebra [3,[1,0],1,1]\ndim 3\nbracket e1 e3 = 1*e1\nbracket e2 e3 = 1*e2\n", "[1,0]"),
])
def test_verify_table_compare_is_exact(text, ref):
    (entry,) = parse_corpus(text)
    report = verify_entry(entry, seed=1, k=3)
    assert {(r.claim, r.detail) for r in report.failures()} == {
        ("nilradical_table", f"restricted table differs from {ref}")
    }
    assert len(report.failures()) == len(report.records) // 6


def test_verify_short_path_matches_full_path(monkeypatch):
    """Settling claims from the term table changes no record: appendices A and B and
    the [6,4] entries renamed to cite [6,5] verify to the same text when every entry
    is forced onto the full path by a short-path predicate that never holds."""
    appendix_b = list(packaged_corpus("appendix_b.lalg"))
    renamed = [dataclasses.replace(e, id=e.id.replace("[6,4]", "[6,5]"))
               for e in appendix_b if e.nilradical_ref == "[6,4]"]
    entries = list(packaged_corpus("appendix_a.lalg")) + appendix_b + renamed
    derivation, settled = corpus._derivation_of_reference, []

    def counting(g, reference):
        settled.append(derivation(g, reference))
        return settled[-1]

    monkeypatch.setattr(corpus, "_derivation_of_reference", counting)
    short = verify_entries(entries, seed=2, k=3)
    monkeypatch.setattr(corpus, "_derivation_of_reference", lambda g, reference: False)
    full = verify_entries(entries, seed=2, k=3)
    assert len(renamed) == 19
    assert sum(settled) == len(settled) == 1_597
    assert {(r.claim, r.detail) for r in short.failures()} == {
        ("nilradical_table", "restricted table differs from [6,5]")
    }
    assert len(short.failures()) == 42
    assert short.to_text() == full.to_text()


def test_extends_matches_the_restriction_compare():
    """`_extends` decides nilradical_table on both paths; restricting g to
    span(e1..e_{n-1}) and comparing with the cited table by `==` is the independent
    reference.  Every appendix-B point matches its table, no [6,4] point renamed to
    cite [6,5] does, and an unclosed span fails both."""
    appendix_b = list(packaged_corpus("appendix_b.lalg"))
    renamed = [dataclasses.replace(e, id=e.id.replace("[6,4]", "[6,5]"))
               for e in appendix_b if e.nilradical_ref == "[6,4]"]
    verdicts = {}
    for is_renamed, entries in ((False, appendix_b), (True, renamed)):
        for entry in entries:
            reference = corpus._reference_table(entry.nilradical_ref)
            span = corpus._nilradical_span(entry.dim)
            for env in sample_parameters(entry, seed=1, k=3):
                g = instantiate(entry, env)
                same = g._extends(reference)
                assert same == (g.restrict(span) == reference), (entry.id, env)
                verdicts.setdefault(is_renamed, set()).add(same)
    assert verdicts == {False: {True}, True: {False}}
    # closed spans with [3,1]'s indices, [e2, e3] = c e1, over other denominators
    heisenberg = corpus._reference_table("[3,1]")
    for c in (1, 2, Fraction(1, 2)):
        g = LieAlgebra(4, {(0, 3): [Fraction(1, 3), 0, 0, 0], (1, 2): [c, 0, 0, 0]})
        restricted = g.restrict(corpus._nilradical_span(4))
        assert g._extends(heisenberg) == (restricted == heisenberg) == (c == 1)
    # h3 + R with [e1, e2] = e4: span(e1, e2, e3) is not closed, so restrict refuses it
    unclosed = LieAlgebra(4, {(0, 1): [0, 0, 0, 1]})
    assert not unclosed._extends(corpus._reference_table("[3,0]"))
    with pytest.raises(ValueError, match="not closed"):
        unclosed.restrict(corpus._nilradical_span(4))


def test_reference_algebra_cached_by_reference_alone():
    (entry,) = [e for e in packaged_corpus("appendix_b.lalg") if e.id == "[7,[6,4],1,1]"]
    corpus._reference_table.cache_clear()
    # renamed to cite another dim-6 table under fresh ids, as benchmark negatives are
    for i in range(5):
        renamed = dataclasses.replace(entry, id=f"[7,[6,5],1,{901 + i}]")
        report = verify_entry(renamed, seed=i + 1, k=3)
        assert {r.claim for r in report.failures()} == {"nilradical_table"}
    assert corpus._reference_table.cache_info().currsize == 1
    assert corpus._reference_table.cache_info().maxsize is not None
    # the error names the entry, which the cache does not hold
    for entry_id in ("[3,[2,1],1,1]", "[3,[2,1],1,2]"):
        (unknown,) = parse_corpus(f"algebra {entry_id}\ndim 3\nbracket e1 e3 = 1*e1\n")
        with pytest.raises(CorpusError, match=re.escape(f"[2,1] for entry {entry_id}")):
            verify_entry(unknown)


def test_report_text_format_and_determinism():
    entries = list(packaged_corpus("appendix_a.lalg"))[:5] + list(
        packaged_corpus("appendix_b.lalg")
    )[:N_VERIFY_SLICE]
    first = verify_entries(entries, seed=1, k=2)
    second = verify_entries(entries, seed=1, k=2)
    assert first.passed
    assert first.to_text() == second.to_text()
    line_re = re.compile(
        r"entry=\S+ assignment=\S+ claim=\w+ status=(pass|fail) detail=.+"
    )
    lines = first.to_text().splitlines()
    assert len(lines) == len(first.records)
    assert all(line_re.fullmatch(line) for line in lines)


def test_report_text_frozen_on_corpus_slice():
    """Refactor guard: all of appendix A and every 25th appendix B entry
    verify to the same report text, byte for byte, as the code that froze it."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::25]
    text = verify_entries(entries, seed=1, k=3).to_text().encode("utf-8")
    assert len(entries) == 74
    assert len(text) == 37_096
    assert hashlib.sha256(text).hexdigest() == (
        "b54eb2026521ae95e26d6c1e4175e474ba9d02c0507850f0b224de5af2b9b8c6"
    )


def test_corpus_verification_skips_public_bracket_and_ideal_test(monkeypatch):
    """Internal products read the term table directly, and verify_nilradical
    does not re-prove ideal-ness, which containing [g, g] already gives."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::25]
    calls = {"bracket": 0, "is_ideal": 0}
    for name in calls:

        def counting(self, *args, _name=name, _original=getattr(LieAlgebra, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(LieAlgebra, name, counting)
    verify_entries(entries, seed=1, k=3)
    assert calls == {"bracket": 0, "is_ideal": 0}


def test_corpus_verification_brackets_sparse_rows(monkeypatch):
    """Subspaces bracket their stored sparse rows: verification builds no
    dense basis and re-sparsifies no dense row (the input spans are built
    sparse by `_nilradical_span`)."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )[::25]
    calls = {"sparse": 0, "basis": 0}
    sparse, basis = linalg._sparse, Subspace.basis.fget

    def counting_sparse(*args):
        calls["sparse"] += 1
        return sparse(*args)

    def counting_basis(self):
        calls["basis"] += 1
        return basis(self)

    monkeypatch.setattr(linalg, "_sparse", counting_sparse)
    monkeypatch.setattr(Subspace, "basis", property(counting_basis))
    verify_entries(entries, seed=1, k=3)
    assert calls == {"sparse": 0, "basis": 0}


def test_report_text_frozen_on_full_corpus():
    """Refactor guard: the whole of appendices A and B verifies to the same
    report text, byte for byte, as the code that froze it."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )
    text = verify_entries(entries, seed=1, k=3).to_text().encode("utf-8")
    assert len(entries) == N_APPENDIX_A + N_APPENDIX_B
    assert len(text) == 768_472
    assert hashlib.sha256(text).hexdigest() == (
        "70982f1bd08ac3e221115e533817e777a7d1630472a4394e85acdae79f54dfc5"
    )


@pytest.mark.parametrize("seed, length, digest", [
    (2, 769_066, "1554296908b8af1386f353ca6cc28340a995b247a84811d3ae766caaaeab700f"),
    # two failures: not_nilpotent and nilradical at a degenerate point
    (3, 768_750, "7d1e8182f248f2399562f6e9e0ff8eebe62ef3deb868e3d11415bfe1494f44ce"),
    (4, 768_778, "140e89826ee14b424b1f161d3ed651c11e74077489466c6e695476cc5a5c10ef"),
    (5, 768_346, "6c6699cf4d3ae7ec68d972efdeeead6b39ad8d45fd1b96e0dc98a1048ec5ecbc"),
], ids=["seed2", "seed3", "seed4", "seed5"])
def test_report_text_frozen_on_full_corpus_at_more_seeds(seed, length, digest):
    """Refactor guard at seeds 2-5, beside seed 1 above: the full-corpus report is
    byte-identical to the one the code that froze it wrote."""
    entries = list(packaged_corpus("appendix_a.lalg")) + list(
        packaged_corpus("appendix_b.lalg")
    )
    text = verify_entries(entries, seed=seed, k=3).to_text().encode("utf-8")
    assert len(text) == length
    assert hashlib.sha256(text).hexdigest() == digest


def test_restricted_nilradical_is_the_reference_object():
    # the restriction to span(e1..e_{n-1}) equals the cached reference table
    entries = list(packaged_corpus("appendix_b.lalg"))
    abelian = next(e for e in entries if re.fullmatch(r"\[\d+,0\]", e.nilradical_ref))
    (chosen,) = [e for e in entries if e.id == "[7,[6,4],1,1]"]
    corpus._reference_table.cache_clear()
    for entry in (chosen, abelian):
        span = corpus._nilradical_span(entry.dim)
        for env in sample_parameters(entry, seed=1, k=3):
            restricted = instantiate(entry, env).restrict(span)
            assert restricted == corpus._reference_table(entry.nilradical_ref)


def test_degenerate_point_fails_only_the_nilpotency_claims():
    """[7,[6,31],1,22] at a = 0 is nilpotent (lower central series dims 3, 1, 0) and
    the corpus does not exclude a = 0, so exactly not_nilpotent and nilradical fail
    there; at a = 1 every claim passes."""
    (entry,) = [e for e in packaged_corpus("appendix_b.lalg") if e.id == "[7,[6,31],1,22]"]
    report = verify_entry(entry, [{"a": Fraction(0)}])
    assert len(report.records) == 6
    assert {(r.claim, r.detail) for r in report.failures()} == {
        ("not_nilpotent", "lower central series reaches 0"),
        ("nilradical", "span(e1..e6) is not the nilradical"),
    }
    # g's own series say the same
    g = instantiate(entry, {"a": Fraction(0)})
    assert g.series_profile().lcs_dims == (3, 1, 0)
    assert not g.verify_nilradical(corpus._nilradical_span(7))
    assert verify_entry(entry, [{"a": Fraction(1)}]).passed


def test_reference_tables_cover_all_refs():
    tables = reference_nilradical_tables()
    for entry in packaged_corpus("appendix_b.lalg"):
        ref = entry.nilradical_ref
        assert ref is not None
        if not re.fullmatch(r"\[\d+,0\]", ref):
            assert ref in tables, ref


def test_synthetic_abelian_reference():
    text = "algebra [3,[2,0],1,1]\ndim 3\nbracket e1 e3 = 1*e1\n"
    (entry,) = parse_corpus(text)
    report = verify_entry(entry)
    assert report.passed
