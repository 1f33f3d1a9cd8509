"""Span tracer installed from outside the package, and the per-layer metrics
computed from its spans.

``Tracer.install`` wraps every public function of each qrevivals submodule,
the public methods and ``__post_init__`` of the classes they define, and the
numpy entry points those functions call: ``hermgauss``, ``eigvalsh``/``eigh``
and ``default_rng`` (whose generator is proxied so that each draw is timed).
Every rebinding of a wrapped function in any qrevivals module is replaced, so
calls made through ``from .x import f`` names are seen too. The Monte-Carlo
batch map ``noise._map_ordered`` is wrapped so that each batch becomes a span
whose parent is the map call, also when it runs on a pool thread.

A span is (id, parent id, name, start, end); names are ``layer.function`` or
``layer.Class.method``. Spans and counts stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Layers with metrics of their own. Submodules outside this list are traced
# too; their self time counts as unattributed.
LAYERS = ("cli", "scenarios", "noise", "kernels", "linalg", "measures", "tripartite", "states")
# numpy entry points: (module, attribute, span name)
NUMPY_ENTRIES = (
    ("numpy.polynomial.hermite", "hermgauss", "noise.hermgauss"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.random", "default_rng", "noise.default_rng"),
)
ROOT = "bench.iteration"
SELF_TIME_LAYERS = ("cli", "scenarios", "noise", "linalg", "measures", "tripartite")
_NOISE_INTERNAL = ("noise.hermgauss", "noise.default_rng", "noise.rng_draw", "noise.mc_batch",
                   "noise._map_ordered")


def _kernel_counts(name):
    def count(counts, args, result):
        arrays = [a for a in args if isinstance(a, np.ndarray)] + [result]
        counts["kernels.bytes_computed"] += sum(a.nbytes for a in arrays)
        if name == "ou_phases":  # trajectories x fine steps
            counts["kernels.ou_phases_cells"] += args[0].size
        else:  # trajectories x output times
            counts["kernels.rtn_integrals_cells"] += result.size

    return count


def _count_members(counts, args, result):
    counts["measures.ensemble_members"] += args[0].weights.size


def _count_draws(counts, args, result):
    counts["noise.rng_draws"] += np.size(result)


class _TracedGenerator:
    """Proxy for a numpy Generator that records every method call as a draw."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        return self._tracer.wrap("noise.rng_draw", attr, _count_draws, leaf=True)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, root_parent=0, leaf=False):
        """``fn`` recording a span per call; ``root_parent`` is the parent of
        calls made on a thread with no open span. Inside a ``leaf`` span (a
        numpy entry point) wrapped calls record nothing, so numpy's own use
        of ``eigvalsh`` inside ``hermgauss`` stays part of ``hermgauss``."""
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return fn(*args, **kwargs)
            local.in_leaf = leaf
            stack = tracer._stack()
            parent = stack[-1] if stack else root_parent
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.in_leaf = False
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if count is not None:
                with tracer._count_lock:
                    count(tracer.counts, args, result)
            return result

        return wrapper

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            count = _count_members if name == "measures.WeightedPureEnsemble.__post_init__" else None
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(name, value, count))

    def install(self):
        """Wrap the package and the numpy entry points for the rest of the process."""
        package = importlib.import_module("qrevivals")
        modules = {info.name: importlib.import_module(f"qrevivals.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)}
        replacement = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value):
                    count = _kernel_counts(attr) if layer == "kernels" and attr in (
                        "ou_phases", "rtn_integrals") else None
                    replacement[id(value)] = (value, self.wrap(f"{layer}.{attr}", value, count))
        map_ordered = getattr(modules.get("noise"), "_map_ordered", None)
        if map_ordered is not None:
            replacement[id(map_ordered)] = (map_ordered, self._traced_map(map_ordered))
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for module, attr, name in NUMPY_ENTRIES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            if attr == "default_rng":
                original = self._traced_rng(original)
            setattr(mod, attr, self.wrap(name, original, leaf=True))

    def _traced_map(self, map_ordered):
        def traced(fn, *args, **kwargs):
            parent = self._stack()[-1]
            return map_ordered(self.wrap("noise.mc_batch", fn, root_parent=parent), *args, **kwargs)

        return self.wrap("noise._map_ordered", traced)

    def _traced_rng(self, default_rng):
        def traced(*args, **kwargs):
            return _TracedGenerator(self, default_rng(*args, **kwargs))

        return traced

    def root(self, fn):
        """Run ``fn`` inside the root span; returns its result."""
        return self.wrap(ROOT, fn)()

    def dump(self, path):
        """Write spans as JSON: a name table and one [id, parent, name, start, end] row each."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows, "counts": dict(self.counts)}, fh)


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced iteration. Self time is a span's
    duration minus the union of its children's intervals. Unattributed time
    is the root span's self time plus the self time of unlisted layers."""
    children = defaultdict(list)
    names = {}
    for sid, parent, name, start, end in spans:
        children[parent].append((start, end))
        names[sid] = name
    self_s = Counter()
    calls = Counter()
    total = Counter()
    unattributed = root_len = 0.0
    channel_calls = parse_calls = 0
    parse_s = 0.0
    parse_names = ("scenarios.parse_config", "scenarios.parse_config_text")
    for sid, parent, name, start, end in spans:
        own = (end - start) - _union_length(children.get(sid, ()), start, end)
        calls[name] += 1
        total[name] += end - start
        parent_name = names.get(parent, "")
        if name == ROOT:
            unattributed += own
            root_len = end - start
            continue
        layer = name.split(".", 1)[0]
        self_s[layer] += own
        if layer not in LAYERS:
            unattributed += own
        if name in parse_names and parent_name not in parse_names:
            parse_calls += 1
            parse_s += end - start
        if (layer == "noise" and name.count(".") == 1 and name not in _NOISE_INTERNAL
                and not parent_name.startswith("noise.")):
            channel_calls += 1
    m = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
    m.update({
        "scenarios.parse_s": parse_s,
        "scenarios.parse_calls": parse_calls,
        "scenarios.csv_s": total["scenarios.ScenarioResult.to_csv"],
        "scenarios.runs": calls["scenarios.run_scenario"],
        "noise.channel_calls": channel_calls,
        "noise.hermgauss_calls": calls["noise.hermgauss"],
        "noise.hermgauss_s": total["noise.hermgauss"],
        "noise.rng_draws": counts.get("noise.rng_draws", 0),
        "noise.rng_s": total["noise.default_rng"] + total["noise.rng_draw"],
        "noise.mc_batches": calls["noise.mc_batch"],
        "noise.mc_batch_busy_s": total["noise.mc_batch"],
        "kernels.ou_phases_s": total["kernels.ou_phases"],
        "kernels.ou_phases_cells": counts.get("kernels.ou_phases_cells", 0),
        "kernels.rtn_integrals_s": total["kernels.rtn_integrals"],
        "kernels.rtn_integrals_cells": counts.get("kernels.rtn_integrals_cells", 0),
        "kernels.bytes_computed": counts.get("kernels.bytes_computed", 0),
        "linalg.density_ops": calls["linalg.DensityOperator.__post_init__"],
        "linalg.density_op_s": total["linalg.DensityOperator.__post_init__"],
        "linalg.eig_calls": calls["linalg.eigvalsh"] + calls["linalg.eigh"],
        "linalg.eig_s": total["linalg.eigvalsh"] + total["linalg.eigh"],
        "linalg.partial_trace_calls": calls["linalg.partial_trace"],
        "linalg.entropy_calls": calls["linalg.von_neumann_entropy"],
        "measures.concurrence_calls": calls["measures.concurrence"] + calls["measures.concurrence_pure"],
        "measures.eof_calls": calls["measures.eof_from_concurrence"],
        "measures.ensemble_members": counts.get("measures.ensemble_members", 0),
        "tripartite.evolve_calls": calls["tripartite.evolve_abe"],
        "states.calls": sum(n for name, n in calls.items() if name.startswith("states.")),
        "trace.unattributed_frac": unattributed / root_len if root_len > 0 else 0.0,
    })
    return m
