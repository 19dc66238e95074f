"""Per-layer spans around calls into lieq's public functions.

The tracer replaces public functions and methods of the lieq modules by
wrappers that record a span per call, and puts the originals back when it is
closed.  Nothing inside src/ is changed.  A target that no longer exists is
reported as missing instead of failing the run.

A span's self time is its duration minus the time covered by its child
spans, so the self times of nested layers add up without double counting.
"""

import functools
import time
from fractions import Fraction

#: layer -> public functions ("module.function" or "module.Class.method")
LAYERS = {
    "corpus.parse": ("corpus.parse_corpus", "corpus.load_matrices"),
    "corpus.sample": ("corpus.sample_parameters",),
    "corpus.instantiate": ("corpus.instantiate",),
    "liealg.jacobi": ("liealg.LieAlgebra.check_jacobi",),
    "liealg.series": ("liealg.LieAlgebra.series_profile",),
    "liealg.derived": ("liealg.LieAlgebra.derived_algebra",),
    "liealg.nilradical": ("liealg.LieAlgebra.verify_nilradical",
                          "liealg.LieAlgebra.nilradical_codim_search"),
    "liealg.restrict": ("liealg.LieAlgebra.restrict",),
    "liealg.center": ("liealg.LieAlgebra.center",),
    "liealg.change_basis": ("liealg.LieAlgebra.change_basis",),
    "liealg.killing": ("liealg.LieAlgebra.killing_matrix",),
    "derivations.basis": ("derivations.derivation_basis",),
    "linalg.rank": ("linalg.MatrixQ.rank",),
    "canonical.form": ("canonical.sp4_canonical_form", "canonical.hJ2_canonical_form"),
}
#: layers timed only by probe calls the benchmark makes outside its ops
PROBES = ("linalg.char_poly", "linalg.factor")
MODULES = ("corpus", "liealg", "derivations", "linalg", "canonical")
#: counts and maxima recorded at layer boundaries, with their starting values
COUNTERS = {
    "corpus.claims": 0,
    "liealg.input_max_bits": 0,
    "derivations.max_entry_bits": 0,
    "canonical.witness_over_tol": 0,
    "canonical.witness_residual_log10_max": -30.0,  # log10 of the 1e-30 floor
    "canonical.label_mismatch": 0,
}


def bits(x) -> int:
    """Largest bit-length of the numerator or denominator of a rational."""
    q = Fraction(x)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _table_bits(g) -> int:
    n = g.dim
    return max((bits(c) for i in range(n) for j in range(i + 1, n)
                for c in g.structure_constant(i, j)), default=0)


def _basis_bits(der) -> int:
    best = 0
    for D in der.basis:
        rows, cols = D.shape()
        best = max([best] + [bits(D[(p, q)]) for p in range(rows) for q in range(cols)])
    return best


class Tracer:
    """Self time per layer, and the time covered by spans inside ops."""

    def __init__(self, lieq):
        self.lieq = lieq
        self.self_time = {layer: 0.0 for layer in (*LAYERS, *PROBES)}
        self.errors = {module: 0 for module in MODULES}
        self.counters = dict(COUNTERS)
        self.missing = set()
        self._stack = []  # [start, child time, layer]
        self._restore = []
        #: set while an op runs; outermost spans inside ops add to op_time
        self.in_op = False
        self.op_time = 0.0

    # ---------------------------------------------------------------- spans

    def _enter(self, layer):
        self._stack.append([time.perf_counter(), 0.0, layer])

    def _exit(self):
        start, child, layer = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        elif self.in_op:
            # over a tree of spans the self times add up to the root's
            # duration, so op_time is the summed self time inside ops
            self.op_time += duration

    def _wrap(self, layer, fn, after=None):
        module = layer.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                self._exit()
            if after is not None:
                try:
                    after(out)
                except Exception as exc:  # a changed result type: report, never fail the op
                    self.missing.add(f"{layer}: counter ({type(exc).__name__})")
            return out

        return traced

    def probe(self, layer, namespace, name, *args):
        """Call namespace.name(*args) in a probe span; None if it is gone."""
        fn = getattr(namespace, name, None)
        if fn is None:
            self.missing.add(f"{layer}: {name}")
            return None
        try:
            return self._wrap(layer, fn)(*args)
        except Exception:
            return None

    # ------------------------------------------------------------- patching

    def count(self, name, value, keep_max=False):
        self.counters[name] = max(self.counters[name], value) if keep_max else self.counters[name] + value

    def _after(self, layer):
        if layer == "liealg.change_basis":
            return lambda g: self.count("liealg.input_max_bits", _table_bits(g), keep_max=True)
        if layer == "derivations.basis":
            return lambda d: self.count("derivations.max_entry_bits", _basis_bits(d), keep_max=True)
        return None

    def install(self):
        """Wrap every LAYERS target; record the ones that do not exist."""
        modules = [self.lieq] + [getattr(self.lieq, m, None) for m in MODULES]
        modules = [m for m in modules if m is not None]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, *path = target.split(".")
                owner = getattr(self.lieq, module_name, None)
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                name = path[-1]
                original = getattr(owner, name, None) if owner is not None else None
                if original is None:
                    self.missing.add(f"{layer}: {target}")
                    continue
                wrapper = self._wrap(layer, original, self._after(layer))
                # a function is also bound under its name in every module that
                # imported it; a method lives on its class only
                holders = [owner] if len(path) > 1 else [
                    m for m in modules if getattr(m, name, None) is original]
                for holder in holders:
                    self._restore.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def close(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
