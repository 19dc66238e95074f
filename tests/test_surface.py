"""The public surface that the benchmark in perfbench/ relies on, and the
packaging metadata.

The tracer reports a target it cannot find only as ``trace.missing``, so a
renamed or removed entry point would not fail a benchmark run.  These tests
make it fail here instead: every traced target and every ``lieq.<name>`` the
workloads call must resolve, and ``lieq.__all__`` must list each public name
once.  The package declares no dependencies, so it may import only itself and
the standard library.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lieq

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "lieq"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    owner = lieq
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "target", sorted(t for targets in _tracing().LAYERS.values() for t in targets)
)
def test_traced_targets_resolve(target):
    assert callable(_resolve(target))


def test_workload_calls_resolve():
    source = "".join((PERFBENCH / name).read_text() for name in ("workloads.py", "run.py"))
    # lieq.name(...) calls, and the names handed to the tracer's probe(layer, lieq, name)
    names = set(re.findall(r"\blieq\.(\w+)", source))
    names |= set(re.findall(r"\blieq, \"(\w+)\"", source))
    assert {"verify_entry", "fingerprint", "char_poly", "factor_over_rationals"} <= names
    for name in sorted(names):
        assert hasattr(lieq, name), name


def test_all_lists_each_public_name_once():
    exported = lieq.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert not name.startswith("_"), name
        assert hasattr(lieq, name), name
        assert not isinstance(getattr(lieq, name), types.ModuleType), name


def test_export_list_frozen():
    # a refactor keeps the public surface: no name added, none lost
    assert sorted(lieq.__all__) == [
        "Bracket", "CanonicalLabel", "ClaimRecord", "Constraint", "ConstraintViolation",
        "CorpusEntry", "CorpusError", "DerivationBasis", "EquivalenceResult", "FactorTerm",
        "Fingerprint", "J_HJ2_1", "J_HJ2_2", "J_SP4", "JacobiViolation", "LieAlgebra", "MatrixQ",
        "MembershipError", "ParseError", "PolyExpr", "PolyQ", "QuadExt", "RESIDUAL_TOLERANCE",
        "RjcfShape", "SeriesProfile", "Subspace", "TableMismatch", "UnsupportedFactorError",
        "VerificationReport", "Witness", "WitnessPrecisionError", "char_poly",
        "check_bracket_table", "derivation_basis", "eigen_pairing_check", "exp_derivation",
        "factor_over_rationals", "fingerprint", "group_membership", "hJ2_canonical_form",
        "hJ2_canonical_matrix", "hJ2_similar", "instantiate", "is_automorphism", "is_derivation",
        "lie_membership", "load_matrices", "matrix_exp_nilpotent", "nullspace", "packaged_corpus",
        "packaged_matrices", "packaged_text", "parse_corpus", "reference_nilradical_tables",
        "representation_equivalence", "rjcf_catalog", "rjcf_shape", "sample_parameters",
        "serialize_corpus", "solve_linear", "solve_or_invert", "sp4_canonical_form",
        "sp4_canonical_matrix", "sqrt_exact", "symmetric_signature", "symplectically_similar",
        "verify_entries", "verify_entry",
    ]
    # one span type, defined in linalg and re-exported by liealg
    assert lieq.Subspace is lieq.liealg.Subspace is lieq.linalg.Subspace


def test_package_imports_only_itself_and_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "lieq" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []


def test_classifies_with_numpy_unimportable():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import lieq\n"
        "a = lieq.MatrixQ([[2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0], [0, 0, 0, 0]])\n"
        "b = lieq.MatrixQ([[1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, -1, 1], [0, 0, -1, -1]])\n"
        "print(lieq.sp4_canonical_form(a)[0], '|', lieq.hJ2_canonical_form(b)[0])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout.strip() == "ThmE-2 lambda=2 epsilon=1 | ThmEE-3 lambda=1 mu=1 epsilon=1"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """Each private module-level function, class and constant, and each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _private(item.name):
                    yield item.name, item


def test_every_private_helper_is_used():
    # a helper whose last caller went is dead code: each private name must be
    # read somewhere in the package outside its own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = []  # (name, node id) of every read of a name, attribute or imported name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                uses.append((node.attr, id(node)))
            elif isinstance(node, ast.alias):
                uses.append((node.name, id(node)))
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(used == name and nid not in inside for used, nid in uses):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_console_script_target_resolves():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, name = meta["project"]["scripts"]["lieq"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_cli_verify_prints_the_report_text(capsys, tmp_path):
    from lieq.cli import main

    expected = lieq.verify_entries(lieq.packaged_corpus("appendix_a.lalg")).to_text()
    assert main(["verify", "--packaged", "appendix_a.lalg"]) == 0
    assert capsys.readouterr().out == expected
    path = tmp_path / "appendix_a.lalg"
    path.write_text(lieq.packaged_text("appendix_a.lalg"), encoding="utf-8")
    assert main(["verify", str(path), "--seed", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out == lieq.verify_entries(
        lieq.packaged_corpus("appendix_a.lalg"), seed=4, k=2).to_text()


def test_cli_verify_exit_status(capsys, tmp_path):
    from lieq.cli import main

    wrong = tmp_path / "wrong.lalg"
    wrong.write_text("algebra [3,[2,0],1,1]\ndim 3\nbracket e2 e3 = 1*e1\n", encoding="utf-8")
    assert main(["verify", str(wrong)]) == 1
    out = capsys.readouterr().out
    assert "claim=not_nilpotent status=fail" in out and out.endswith("\n")
    assert main(["verify", str(tmp_path / "absent.lalg")]) == 2
    assert capsys.readouterr().err.startswith("lieq: ")
    bad = tmp_path / "bad.lalg"
    bad.write_text("algebra [3,1]\ndim 3\nbracket e3 e2 = 1*e1\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify"])  # neither FILE nor --packaged
    with pytest.raises(SystemExit):
        main(["verify", str(bad), "--packaged", "appendix_a.lalg"])
