"""Independent sympy oracle for Lie-algebra structure tests.

Run manually:  python3 tests/oracles/structure_oracle.py
Printed values are frozen into tests/test_liealg.py and
tests/test_derivations.py.  Nothing from the package under test is used;
all computations go through sympy from the raw bracket tables.
"""

import itertools

import sympy as sp

# bracket tables: {(i, j): {k: coeff}} with 1-based i < j, [e_i, e_j] = sum coeff*e_k
ALGEBRAS = {
    "abelian2": (2, {}),
    "solv2": (2, {(1, 2): {1: 1}}),
    "heisenberg3": (3, {(2, 3): {1: 1}}),
    "sl2": (3, {(1, 2): {1: -2}, (1, 3): {2: 1}, (2, 3): {3: -2}}),
    "nilp41": (4, {(2, 3): {1: 1}}),
    "nilp42": (4, {(2, 4): {1: 1}, (3, 4): {2: 1}}),
    "solv5": (
        5,
        {
            (1, 5): {1: sp.Rational(3, 2)},
            (2, 3): {1: 1},
            (2, 5): {2: 1},
            (3, 5): {3: sp.Rational(1, 2)},
            (4, 5): {4: 1},
        },
    ),
    "nilp64": (6, {(4, 5): {2: 1}, (4, 6): {3: 1}, (5, 6): {4: 1}}),
    "nilp65": (6, {(3, 5): {2: 1}, (4, 6): {2: 1}}),
    "nilp69": (6, {(3, 5): {2: 1}, (3, 6): {1: 1}, (4, 5): {1: -1}, (4, 6): {2: 1}}),
    "nilp616": (
        6,
        {(2, 5): {1: 1}, (3, 4): {1: -1}, (3, 6): {2: 1}, (4, 6): {3: 1}, (5, 6): {4: 1}},
    ),
}


def bracket(n, table, x, y):
    out = sp.zeros(n, 1)
    for (i, j), comp in table.items():
        f = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if f != 0:
            for k, c in comp.items():
                out[k - 1] += f * c
    return out


def basis(n, i):
    v = sp.zeros(n, 1)
    v[i] = 1
    return v


def span_dim(vectors, n):
    if not vectors:
        return 0, []
    M = sp.Matrix.hstack(*vectors).T
    R, pivots = M.rref()
    return len(pivots), [R.row(r).T for r in range(len(pivots))]


def series(n, table, lower_central):
    cur = [basis(n, i) for i in range(n)]
    dims = []
    full = [basis(n, i) for i in range(n)]
    while True:
        left = full if lower_central else cur
        prods = [bracket(n, table, u, v) for u in left for v in cur]
        d, vecs = span_dim([p for p in prods if any(p)], n)
        dims.append(d)
        if d == 0 or d == len(cur):
            return dims
        cur = vecs


def ad(n, table, x):
    cols = [bracket(n, table, x, basis(n, j)) for j in range(n)]
    return sp.Matrix.hstack(*cols)


def center_dim(n, table):
    # x is central iff ad(e_j) x = 0 for every j
    stacked = sp.Matrix.vstack(*[ad(n, table, basis(n, j)) for j in range(n)])
    return n - stacked.rank()


def killing_rank(n, table):
    ads = [ad(n, table, basis(n, i)) for i in range(n)]
    K = sp.Matrix(n, n, lambda i, j: (ads[i] * ads[j]).trace())
    return K.rank()


def derivation_dim(n, table):
    # Leibniz rule as a linear system in the n^2 unknowns D[p][q]
    D = sp.Matrix(n, n, lambda p, q: sp.Symbol(f"d_{p}_{q}"))
    eqs = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = D * bracket(n, table, basis(n, i), basis(n, j))
            rhs = bracket(n, table, D * basis(n, i), basis(n, j)) + bracket(
                n, table, basis(n, i), D * basis(n, j)
            )
            eqs.extend(list(lhs - rhs))
    unknowns = [D[p, q] for p in range(n) for q in range(n)]
    A = sp.Matrix([[sp.diff(e, u) for u in unknowns] for e in eqs])
    return len(unknowns) - A.rank()


def nilradical_dim(n, table):
    # for solvable algebras the nilradical is {x : ad(x) nilpotent}; impose
    # that every char-poly coefficient of ad(x) vanishes and count the free
    # directions of the solution set
    ts = sp.symbols(f"t0:{n}")
    x = sp.Matrix(n, 1, lambda i, _: ts[i])
    M = ad(n, table, x)
    conds = M.charpoly(sp.Symbol("lam")).all_coeffs()[1:]
    sols = sp.solve([sp.Eq(c, 0) for c in conds], ts, dict=True)
    best = 0
    for sol in sols:
        free = {t for t in ts if sol.get(t, t) == t}
        if all(sol.get(t, t).free_symbols <= free for t in ts):
            best = max(best, len(free))
    return best


for tag, (n, table) in ALGEBRAS.items():
    der = series(n, table, lower_central=False)
    lcs = series(n, table, lower_central=True)
    print(
        f"{tag}: derived={der} lcs={lcs} center={center_dim(n, table)} "
        f"killing_rank={killing_rank(n, table)} derivations={derivation_dim(n, table)}"
    )

def change_basis(n, table, P):
    # the table in the basis f_i = P e_i: [f_i, f_j] in f-coordinates
    Pinv = P.inv()
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        coords = Pinv * bracket(n, table, P[:, i], P[:, j])
        comp = {k + 1: c for k, c in enumerate(coords) if c != 0}
        if comp:
            out[(i + 1, j + 1)] = comp
    return out


# nilradical search branches: tr ad e5 = K(e5, e5) = 0 with ad(e5) acting as
# [[0, -3], [1, 2]] on span(e1, e2) and as -1 on e3, e4, e6 central; r2 + r2 + r2;
# solv5 after the unit bidiagonal base change of test_liealg._unit_bidiagonal
NILRADICAL_CASES = {
    "killing_degenerate6": (
        6, {(1, 5): {2: -1}, (2, 5): {1: 3, 2: -2}, (3, 5): {3: 1}, (4, 5): {4: 1}}
    ),
    "r2_cubed": (6, {(1, 2): {1: 1}, (3, 4): {3: 1}, (5, 6): {5: 1}}),
    "solv5_moved": (
        5,
        change_basis(
            5,
            ALGEBRAS["solv5"][1],
            sp.Matrix(5, 5, lambda i, j: int(i == j) + ((1, -2, 2, -1)[i % 4] if j == i + 1 else 0)),
        ),
    ),
}

for tag in ("solv2", "solv5"):
    n, table = ALGEBRAS[tag]
    print(f"nilradical_dim_{tag} = {nilradical_dim(n, table)}")
for tag, (n, table) in NILRADICAL_CASES.items():
    print(f"nilradical_dim_{tag} = {nilradical_dim(n, table)}  table={table}")

# Jacobi defect of a corrupted table: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2
bad = (3, {(1, 2): {3: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}})
n, table = bad
for i, j, k in itertools.combinations(range(3), 3):
    r = (
        bracket(n, table, bracket(n, table, basis(n, i), basis(n, j)), basis(n, k))
        + bracket(n, table, bracket(n, table, basis(n, j), basis(n, k)), basis(n, i))
        + bracket(n, table, bracket(n, table, basis(n, k), basis(n, i)), basis(n, j))
    )
    print(f"jacobi_bad triple {(i, j, k)} -> {list(r)}")
