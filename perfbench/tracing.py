"""Per-module tracing for the bredonkit benchmark, from the benchmark's files.

The traced run wraps the public functions that layers.json lists and counts,
for each, the calls and the self time (span minus the spans of wrapped calls
inside it), plus the exceptions that leave each module's wrapped functions and
a few work counters.  Nothing inside the package changes.

A module-level function is replaced on every loaded module that binds it by
name: free_space does `from .exact_linalg import fp_row_reduce, fp_solve`, so
wrapping exact_linalg alone would miss those calls.  Methods are replaced on
their class.
"""

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")


def load_layers():
    with open(LAYERS_PATH) as handle:
        return json.load(handle)


def function_names(spec):
    """Metric stems of one module's wrapped functions, mp_group split by method."""
    names = []
    for fname in spec["functions"]:
        if fname in spec.get("split_by_method", ()):
            names.extend("%s_%s" % (fname, tag) for tag in "abc")
        else:
            names.append(fname)
    return names


def per_layer_metrics(layers):
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, spec in layers["modules"].items():
        for fname in function_names(spec):
            out.append(("%s.%s.calls" % (module, fname), "count", "lower"))
            out.append(("%s.%s.self_s" % (module, fname), "s", "lower"))
        out.append(("%s.self_s" % module, "s", "lower"))
        out.append(("%s.errors" % module, "count", "lower"))
        for extra in spec["extras"]:
            if extra.endswith(".density"):
                out.append((extra, "ratio", "higher"))
            elif extra.endswith("_per_homology_z"):
                out.append((extra, "ratio", "lower"))
            else:
                out.append((extra, "count", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


# -- counters read from arguments and results --------------------------------

def _cells_out(metric):
    def after(stats, args, kwargs, result):
        stats[metric] += len(result.cells)
    return after


def _quotient_entries(stats, args, kwargs, result):
    stats["gcw_complex.quotient.entries"] += sum(
        result.size(k - 1) * result.size(k) for k in range(1, result.dim + 1))


def _bredon_matrix(stats, args, kwargs, result):
    stats["mackey_bredon.matrix.entries"] += result.rows * result.cols
    stats["mackey_bredon.matrix.nnz"] += sum(len(row) - row.count(0)
                                             for row in result.data)


def _row_reduce_entries(stats, args, kwargs, result):
    stats["exact_linalg.fp_row_reduce.entries"] += result[0].size


def _snf_entries(stats, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    stats["exact_linalg.snf.entries"] += m.rows * m.cols


AFTER = {
    "gcw_complex.join": _cells_out("gcw_complex.join.cells_out"),
    "gcw_complex.smash": _cells_out("gcw_complex.smash.cells_out"),
    "gcw_complex.quotient": _quotient_entries,
    "mackey_bredon.BredonComplex.cochain_matrix": _bredon_matrix,
    "mackey_bredon.BredonComplex.boundary_matrix": _bredon_matrix,
    "exact_linalg.fp_row_reduce": _row_reduce_entries,
    "exact_linalg.snf": _snf_entries,
}


def _method(args, kwargs):
    return str(args[2] if len(args) > 2 else kwargs.get("method", "c")).lower()


def _coeff(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("coeff")


class Tracer:
    """Installs the wrappers, collects the counters, and removes them again."""

    def __init__(self, layers):
        self.layers = layers
        self.stats = defaultdict(float)
        self._stack = []          # child time of each open span
        self._open_homology_z = 0
        self._undo = []

    def install(self):
        for module, spec in self.layers["modules"].items():
            mod = importlib.import_module("bredonkit." + module)
            split = spec.get("split_by_method", ())
            for fname, target in spec["functions"].items():
                *path, attr = target.split(".")
                owner = mod
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._wrap(module, fname, orig, fname in split)
                if path:
                    self._replace(owner, attr, wrapper)
                    continue
                for loaded in list(sys.modules.values()):
                    names = getattr(loaded, "__dict__", None) or {}
                    for name, value in list(names.items()):
                        if value is orig:
                            self._replace(loaded, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _replace(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, module, fname, fn, split):
        stats = self.stats
        stack = self._stack
        after = AFTER.get("%s.%s" % (module, fname))
        is_homology = (module, fname) == ("exact_linalg", "homology_at")
        is_snf = (module, fname) == ("exact_linalg", "snf")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = "%s.%s" % (module, fname)
            if split:
                name += "_" + _method(args, kwargs)
            over_z = is_homology and _coeff(args, kwargs) == "Z"
            if over_z:
                stats["_homology_z_calls"] += 1
                tracer._open_homology_z += 1
            elif is_snf and tracer._open_homology_z:
                stats["_snf_in_homology_z"] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[module + ".errors"] += 1
                raise
            finally:
                span = time.perf_counter() - start
                stack.pop()
                own = span - frame[0]
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += own
                stats[module + ".self_s"] += own
                if stack:
                    stack[-1][0] += span
                if over_z:
                    tracer._open_homology_z -= 1
            if after is not None:
                t0 = time.perf_counter()
                after(stats, args, kwargs, result)
                if stack:   # counting is not the caller's own work
                    stack[-1][0] += time.perf_counter() - t0
            return result

        return traced

    def metrics(self):
        """Every per-layer metric except trace.overhead_ratio, as plain numbers."""
        stats = self.stats
        out = {}
        for name, unit, better in per_layer_metrics(self.layers):
            if name != "trace.overhead_ratio":
                out[name] = stats.get(name, 0)
        entries = stats.get("mackey_bredon.matrix.entries", 0)
        out["mackey_bredon.matrix.density"] = (
            stats.get("mackey_bredon.matrix.nnz", 0) / entries if entries else 0.0)
        homology_z = stats.get("_homology_z_calls", 0)
        out["exact_linalg.snf_per_homology_z"] = (
            stats.get("_snf_in_homology_z", 0) / homology_z if homology_z else 0.0)
        return out


def missing_calls(layers, workload, metrics):
    """Wrapped functions that must show calls on this workload but read zero."""
    missing = []
    for module, spec in layers["modules"].items():
        for fname in spec["required_calls"].get(workload, ()):
            if not metrics.get("%s.%s.calls" % (module, fname)):
                missing.append("%s.%s" % (module, fname))
    return missing
