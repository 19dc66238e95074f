"""Independent sympy oracle for the exact linear algebra tests.

Run manually:  python tests/oracles/linalg_oracle.py
The printed values are frozen as literals into tests/test_linalg.py.
No code from the package under test is imported here.
"""

import sympy as sp

x = sp.Symbol("x")


def show(tag, value):
    print(f"{tag} = {value}")


# characteristic polynomials, det(M - x I) convention
mats = {
    "companion_x2_plus_1": sp.Matrix([[0, -1], [1, 0]]),
    "jordan2_at_2": sp.Matrix([[2, 1], [0, 2]]),
    "m3_mixed": sp.Matrix([[sp.Rational(1, 2), 3, 0], [-1, 0, sp.Rational(2, 3)], [5, 1, -2]]),
    "m4_sp": sp.Matrix([[1, 2, 3, 0], [0, -1, 0, 1], [2, 0, -1, -2], [1, 1, 0, 1]]),
    "m7_mixed": sp.Matrix([
        [sp.Rational(1, 2), 3, 0, -1, sp.Rational(2, 3), 0, 1],
        [-1, 0, sp.Rational(2, 7), 0, 1, sp.Rational(-3, 4), 0],
        [5, 1, -2, sp.Rational(1, 3), 0, 0, 2],
        [0, sp.Rational(-2, 5), 1, 0, 3, 1, 0],
        [1, 0, 0, 4, sp.Rational(-1, 6), 2, -1],
        [0, sp.Rational(1, 9), -3, 0, 1, 0, sp.Rational(5, 2)],
        [2, 0, 1, -1, 0, sp.Rational(7, 8), 0],
    ]),
}
for tag, M in mats.items():
    p = (M - x * sp.eye(M.rows)).det().expand()
    show(f"charpoly_{tag}", sp.Poly(p, x).all_coeffs()[::-1])

# factorizations of monic rational polynomials (ascending coefficients)
polys = {
    "x4_minus_1": sp.Poly(x**4 - 1, x),
    "x4_plus_4": sp.Poly(x**4 + 4, x),  # (x^2-2x+2)(x^2+2x+2)
    "deg6_mix": sp.Poly((x**2 + 1) ** 2 * (x - sp.Rational(1, 2)) * (x + 3), x),
    "deg7_cubic_pair": sp.Poly((x**3 + x + 1) * (x**2 - 2) * (x + 1) * x, x),
    "quartic_irred": sp.Poly(x**4 - 4 * x**2 + 2, x),  # Eisenstein at 2
    "sextic_two_cubics": sp.Poly((x**3 - 2) * (x**3 + x + 1), x),
}
for tag, p in polys.items():
    _, facs = sp.factor_list(p)
    items = sorted(
        ((sp.Poly(f, x).all_coeffs()[::-1], m) for f, m in facs),
        key=lambda t: (len(t[0]) - 1, [sp.Rational(c) for c in t[0]]),
    )
    show(f"factors_{tag}", items)

# nullspace of a rank-deficient rational matrix
A = sp.Matrix([[1, 2, 0, -1], [2, 4, 1, 0], [3, 6, 1, -1]])
show("nullspace_A", [list(v) for v in A.nullspace()])

# inverse of a rational matrix
B = sp.Matrix([[2, 1, 0], [0, sp.Rational(1, 3), 4], [1, 0, 1]])
show("inverse_B", sp.Matrix(B.inv()).tolist())

# exp of a nilpotent matrix (strictly upper triangular, integer)
N = sp.Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
show("exp_N", sp.exp(N).tolist())
N4 = sp.Matrix([[0, 2, 0, 1], [0, 0, -1, 0], [0, 0, 0, 3], [0, 0, 0, 0]])
show("exp_N4", sp.exp(N4).tolist())

# signature of symmetric matrices (pos, neg, zero counts)
sym = {
    "sig_diag": sp.Matrix([[3, 0, 0], [0, -2, 0], [0, 0, 0]]),
    "sig_hyperbolic": sp.Matrix([[0, 1], [1, 0]]),
    "sig_4x4": sp.Matrix([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 5, 1], [0, 0, 1, 5]]),
}
for tag, S in sym.items():
    ev = S.eigenvals()
    pos = sum(m for v, m in ev.items() if v > 0)
    neg = sum(m for v, m in ev.items() if v < 0)
    zer = sum(m for v, m in ev.items() if v == 0)
    show(tag, (pos, neg, zer))
