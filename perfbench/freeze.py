"""Make the frozen known answers in perfbench/data/.

    python3 perfbench/freeze.py

Needs sympy and the repository's tests/ directory, neither of which the
benchmark itself uses when it runs.

* fingerprint_pool.json: corpus algebras of dims 4..7 at fixed parameter
  values, each with the fingerprint of its untransformed table as computed
  by the sympy functions of tests/oracles/structure_oracle.py.
* canonical_reps.json: the canonical representative and label text of each
  sp(4) and h(J2) sample label of tests/test_canonical.py.
* verify_degenerate.json: parameter values at which a corpus family stops
  satisfying its own claims, with the claims a correct verifier must fail
  there.  The points come from benchmark runs; the oracle confirms each.
"""

import contextlib
import io
import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tests" / "oracles")]

import sympy as sp  # noqa: E402

import lieq  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):  # the oracle prints on import
    import structure_oracle as oracle  # noqa: E402

PER_DIM = 10
#: (entry id, parameter values) where verify_entry was seen to fail a positive
DEGENERATE_POINTS = [("[7,[6,31],1,22]", {"a": "0"})]
ORACLE_SECONDS = 60
FREEZE_SEED = 20131123


def _oracle_table(entry, env):
    table = {}
    for b in entry.brackets:
        comp = {}
        for k, poly in enumerate(b.coeffs):
            value = poly.evaluate(env)
            if value:
                comp[k + 1] = sp.Rational(value.numerator, value.denominator)
        if comp:
            table[(b.i, b.j)] = comp
    return table


def _alarm(signum, frame):
    raise TimeoutError


def oracle_fingerprint(n, table):
    derived = oracle.series(n, table, lower_central=False)
    lcs = oracle.series(n, table, lower_central=True)
    if derived[-1] != 0:
        nilradical = 0  # recorded as 0 for non-solvable input
    elif lcs[-1] == 0:
        nilradical = n  # a nilpotent algebra is its own nilradical
    else:
        nilradical = oracle.nilradical_dim(n, table)
    return {
        "dim": n,
        "derived_dims": derived,
        "lcs_dims": lcs,
        "center_dim": oracle.center_dim(n, table),
        "derived_algebra_dim": derived[0],
        "nilradical_dim": nilradical,
        "derivation_algebra_dim": oracle.derivation_dim(n, table),
        "killing_form_rank": oracle.killing_rank(n, table),
    }


def freeze_fingerprint_pool():
    entries = [e for name in ("appendix_a.lalg", "appendix_b.lalg")
               for e in lieq.packaged_corpus(name) if 4 <= e.dim <= 7]
    rng = random.Random(FREEZE_SEED)
    rng.shuffle(entries)
    signal.signal(signal.SIGALRM, _alarm)
    algebras, taken = [], {d: 0 for d in range(4, 8)}
    for entry in entries:
        if taken[entry.dim] == PER_DIM:
            continue
        env = lieq.sample_parameters(entry, seed=FREEZE_SEED, k=1)[0]
        signal.alarm(ORACLE_SECONDS)
        try:
            expected = oracle_fingerprint(entry.dim, _oracle_table(entry, env))
        except TimeoutError:
            print(f"skipped {entry.id}: oracle over {ORACLE_SECONDS} s", file=sys.stderr)
            continue
        finally:
            signal.alarm(0)
        taken[entry.dim] += 1
        algebras.append({
            "id": entry.id,
            "dim": entry.dim,
            "assignment": {name: str(value) for name, value in env.items()},
            "expected": expected,
        })
        print(f"{entry.id} {env} {expected}", file=sys.stderr)
    algebras.sort(key=lambda a: (a["dim"], a["id"]))
    return {"made_by": "perfbench/freeze.py", "algebras": algebras}


def freeze_canonical_reps():
    import test_canonical as tc

    reps = []
    for family, labels, matrix_of in (
        ("sp4", tc.SP4_SAMPLE_LABELS, lieq.sp4_canonical_matrix),
        ("hJ2", tc.HJ2_SAMPLE_LABELS, lieq.hJ2_canonical_matrix),
    ):
        for label in labels:
            m = matrix_of(label)
            reps.append({
                "family": family,
                "label": str(label),
                "matrix": [[str(x) for x in m.row(i)] for i in range(4)],
            })
    return {"made_by": "perfbench/freeze.py", "representatives": reps}


def freeze_verify_degenerate():
    """The claims that must fail at each degenerate point, by the oracle.

    A family member whose lower central series reaches 0 is nilpotent: its
    not_nilpotent claim fails, and so does the nilradical claim, since the
    nilradical is then the whole algebra rather than span(e1..e_{n-1}).
    """
    entries = {e.id: e for e in lieq.packaged_corpus("appendix_b.lalg")}
    points = []
    for entry_id, values in DEGENERATE_POINTS:
        entry = entries[entry_id]
        env = {name: Fraction(values[name]) for name in entry.param_names}
        lcs = oracle.series(entry.dim, _oracle_table(entry, env), lower_central=True)
        if lcs[-1] != 0:
            raise SystemExit(f"{entry_id} at {values} is not nilpotent: lcs {lcs}")
        points.append({
            "id": entry_id,
            "assignment": ",".join(f"{name}={env[name]}" for name in entry.param_names),
            "lcs_dims": lcs,
            "fails": ["not_nilpotent", "nilradical"],
        })
    return {"made_by": "perfbench/freeze.py", "points": points}


def main():
    DATA.mkdir(exist_ok=True)
    for name, make in (("canonical_reps.json", freeze_canonical_reps),
                       ("verify_degenerate.json", freeze_verify_degenerate),
                       ("fingerprint_pool.json", freeze_fingerprint_pool)):
        with open(DATA / name, "w", encoding="utf-8") as fh:
            json.dump(make(), fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
