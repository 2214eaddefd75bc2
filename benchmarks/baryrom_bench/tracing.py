"""In-memory spans around every public baryrom function, from outside.

`Tracer.install()` replaces module attributes with timing wrappers at run
time and `Tracer.restore()` puts the originals back; no source file is
edited. A function is wrapped under every name it is looked up by, so
`online.project_to_simplex` (an imported name) and
`simplexqp.project_to_simplex` both land in the span
`simplexqp.project_to_simplex`. The benchmark opens one span per CLI stage
around `cli.main`; the functions of `cli` itself are not wrapped, so a
stage's self time is the time spent in the CLI layer.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "baryrom"
MODULES = (
    "cli",
    "config",
    "diagnostics",
    "flow",
    "greedy",
    "online",
    "pod",
    "simplexqp",
    "store",
    "transport",
)
# layer modules whose public functions are wrapped; cli is the stage layer
LAYERS = tuple(name for name in MODULES if name != "cli")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until written."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # --- span recording -------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        return self.end[sid] - self.start[sid]

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def reset(self):
        """Drop recorded spans and counts; wrappers stay installed."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counts = {}
        self._stack = []

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close(sid)
            if after is not None:
                after(tracer, duration, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --- installing and restoring wrappers -------------------------------

    def install(self):
        """Wrap every public function of the layer modules wherever any
        baryrom module looks it up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
        layer_names = {f"{PACKAGE}.{name}" for name in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in layer_names
                    and not obj.__name__.startswith("_")
                ):
                    continue
                if id(obj) not in wrappers:
                    span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(span, obj, HOOKS.get(span))
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def restore(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- analysis ---------------------------------------------------------

    def arrays(self):
        """(names, name_id, parent, duration, self_time) as numpy arrays."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return list(self.names), nid, parent, dur, dur - child

    def save(self, path):
        """Write the recorded spans to an .npz file."""
        names, nid, parent, _, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=nid,
            parent=parent,
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )


# --- counters taken at layer boundaries -------------------------------------


def _after_solve_batch(tracer, duration, args, kwargs, result):
    tracer.count("simplexqp.solves", result.converged.size)
    tracer.count("simplexqp.unconverged", int(np.count_nonzero(~result.converged)))
    tracer.count("simplexqp.iters_sum", float(result.iterations.sum()))
    tracer.counts["simplexqp.iters_max"] = max(
        tracer.counts.get("simplexqp.iters_max", 0.0), float(result.iterations.max(initial=0))
    )


def _after_greedy_step(tracer, duration, args, kwargs, result):
    tracer.count(f"greedy.sweep_s.n{args[0].size}", duration)


def _after_write_chunk(tracer, duration, args, kwargs, result):
    from baryrom import store

    chunk_path = getattr(store.chunk_path, "__wrapped__", store.chunk_path)
    tracer.count("store.chunk_bytes", chunk_path(args[0], args[1]).stat().st_size)


def _after_save_model(tracer, duration, args, kwargs, result):
    tracer.count("store.model_bytes", _dir_bytes(args[0]))


def _after_energy_landscape(tracer, duration, args, kwargs, result):
    tracer.count("diagnostics.pixels", result.xy.shape[0])


HOOKS = {
    "simplexqp.solve_batch": _after_solve_batch,
    "greedy.greedy_step": _after_greedy_step,
    "store.write_chunk": _after_write_chunk,
    "store.save_model": _after_save_model,
    "diagnostics.energy_landscape": _after_energy_landscape,
}
