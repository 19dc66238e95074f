"""The public surface that the benchmark in perfbench/ relies on.

The tracer reports a target it cannot find only as ``trace.missing``, so a
renamed or removed entry point would not fail a benchmark run.  These tests
make it fail here instead: every traced target and every ``lieq.<name>`` the
workloads call must resolve, and ``lieq.__all__`` must list each public name
once.
"""

import importlib.util
import re
import types
from pathlib import Path

import pytest

import lieq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
