"""In-memory span tracer for galpha's layers, installed from outside the library.

Every public function and method of the traced modules is wrapped, and each
wrapper is installed under every name a caller looks it up by: a function
imported with `from .x import y` is rebound in each module that holds it,
and methods are replaced on their class.  A span records its name, op id,
parent span, start and end; spans live in flat arrays and are written once,
after the traced pass.  `restore` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "specfile", "verify", "schwarz", "complexfn", "family",
          "blaschke", "harmonic")

# A member's methods are named after its module, as the ROADMAP does.
METHOD_PREFIX = {"family.GAlphaFunction": "family"}

_COMPLEX_BYTES = 16
_MB = float(1 << 20)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.member_atoms: int | None = None  # atom count of the member in norms()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._nested = array("b")  # inside a span of the same name
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        qualified = f"{layer}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr in ("__init__", "__call__"):
                name = f"{qualified}.{attr.strip('_')}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{METHOD_PREFIX.get(qualified, qualified)}.{attr}"
            self._patch(cls, attr, self._wrap(name, member))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        z_index = params.index("z") if "z" in params else None
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            if not hasattr(local, "stack"):
                local.stack = (tracer._main_stack
                               if threading.get_ident() == tracer._main_thread else [])
                local.active = defaultdict(int)
            stack, active = local.stack, local.active
            if stack:
                parent = stack[-1]
            else:  # a sweep worker thread: attach to the submitting span
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            if z_index is not None:
                z = args[z_index] if len(args) > z_index else kwargs.get("z")
                points = int(np.size(z))
            with tracer._lock:
                span = len(tracer._start)
                tracer._name.append(tracer._intern(name))
                tracer._parent.append(parent)
                tracer._op.append(tracer.op)
                tracer._nested.append(active[name] > 0)
                tracer._end.append(float("nan"))
                tracer.counts[name + ".calls"] += 1
                if z_index is not None:
                    tracer.counts[name + ".points"] += points
                tracer._start.append(time.perf_counter())
            stack.append(span)
            active[name] += 1
            try:
                if hook is not None:
                    return hook(tracer, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._end[span] = time.perf_counter()
                active[name] -= 1
                stack.pop()

        return wrapper

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self._names)
            self._names.append(name)
        return index

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    # --------------------------------------------------------------- summary

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Inclusive time skips spans nested in a span of the same name.  Self
        time is a span's duration minus the union of its children's
        intervals; children from sweep threads may overlap each other.
        """
        names = np.asarray(self._name, dtype=np.int64)
        start = np.asarray(self._start)
        end = np.asarray(self._end)
        parent = np.asarray(self._parent)
        nested = np.asarray(self._nested, dtype=bool)
        duration = end - start
        covered = [0.0] * start.size
        children = np.nonzero(parent >= 0)[0]
        order = children[np.lexsort((start[children], parent[children]))]
        starts, ends, parents = self._start.tolist(), self._end.tolist(), self._parent.tolist()
        last_parent, reach = -1, 0.0
        for child in order.tolist():
            p = parents[child]
            if p != last_parent:
                last_parent, reach = p, starts[p]
            lo, hi = max(starts[child], reach), min(ends[child], ends[p])
            if hi > lo:
                covered[p] += hi - lo
                reach = hi
        covered = np.asarray(covered)
        inclusive = np.bincount(names[~nested], weights=duration[~nested],
                                minlength=len(self._names))
        own = np.bincount(names, weights=duration - covered, minlength=len(self._names))
        return (dict(zip(self._names, inclusive.tolist())),
                dict(zip(self._names, own.tolist())))

    def write(self, path: Path) -> None:
        t0 = self._start[0] if self._start else 0.0
        data = {
            "names": self._names,
            "columns": ["name", "op", "parent", "start_s", "end_s"],
            "spans": [[n, o, p, round(s - t0, 9), round(e - t0, 9)]
                      for n, o, p, s, e in zip(self._name, self._op, self._parent,
                                               self._start, self._end)],
        }
        path.write_text(json.dumps(data, separators=(",", ":")))

    @property
    def span_count(self) -> int:
        return len(self._start)


# ----------------------------------------------------------------- hooks

def _norms_hook(tracer: Tracer, fn, args, kwargs):
    member = args[0] if args else kwargs["f"]
    outer, tracer.member_atoms = tracer.member_atoms, member.measure.count
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.member_atoms = outer


def _sup_norm_hook(tracer: Tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    objective = bound.arguments["objective"]
    grid = bound.arguments["grid"]

    def counted(z):
        tracer.add("complexfn.objective.calls", 1)
        tracer.add("complexfn.objective.points", np.size(z))
        return objective(z)

    bound.arguments["objective"] = counted
    if tracer.member_atoms is not None:
        cells = grid.angles_per_circle * grid.radii.size * tracer.member_atoms
        tracer.add("complexfn.grid_sweep.ops_computed", cells)
        tracer.add("complexfn.grid_sweep.bytes_computed", cells * _COMPLEX_BYTES)
    return fn(*bound.args, **bound.kwargs)


def _residual_hook(tracer: Tracer, fn, args, kwargs):
    member = args[0]
    z = args[1] if len(args) > 1 else kwargs["z"]
    m, points = member.measure.count, int(np.size(z))
    tracer.add("family.real_part_bound_residual.ops_computed", points * m * m)
    tracer.add("family.real_part_bound_residual.bytes_computed",
               points * m * _COMPLEX_BYTES)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1] / _MB
        if started:
            tracemalloc.stop()
        key = "family.real_part_bound_residual.peak_mb"
        tracer.peaks[key] = max(tracer.peaks[key], peak)


_HOOKS = {
    "schwarz.norms": _norms_hook,
    "complexfn.sup_norm_estimate": _sup_norm_hook,
    "family.real_part_bound_residual": _residual_hook,
}
