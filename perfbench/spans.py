"""In-process tracing of the program's layers, from outside the program.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, on every name under which a layer module holds it (e.g.
`qnd_povm.cli.posterior` as well as `qnd_povm.povm.posterior`, and
`qnd_povm.analysis.clebsch_gordan_row`), so calls are seen where the caller
looks them up.  Nothing under src/ is edited.  Spans (id, parent, run id,
name, start, end) are kept in memory and written to a side file; the
per-layer metrics are derived from that file alone.

The wrappers keep one call stack and assume one thread: the benchmark
unsets QND_THREADS, so the program runs single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "spin_state", "povm", "approx", "analysis", "numerics",
          "validate", "cli")
# private kernels worth a span of their own: the diagonal-map bases are
# rebuilt twice per shot by `measure`
PRIVATE = {"povm": ("_log_bases",)}
HOOK = "trace.hook"  # counter bookkeeping after a span; not program time
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _useful_entries(dist, tol: float) -> int:
    """Entries needed, largest first, to reach 1 - tol of the mass."""
    p = np.sort(np.fromiter((q for _, q in dist.entries), float, len(dist.entries)))[::-1]
    return min(int(np.searchsorted(np.cumsum(p), 1.0 - tol)) + 1, len(p))


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, run, name, start, end)
        self.counters = defaultdict(float)
        self.run = 0
        self._stack = [0]
        self._next = 1
        self._saved = []           # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            rss0 = _rss_mb() if after else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.run, name, t0, t1))
            if after:
                # a span of its own, so that the callers' times can leave it out
                h0 = time.perf_counter()
                after(self.counters, name, args, kwargs, result, _rss_mb() - rss0)
                self.spans.append((self._next, parent, self.run, HOOK, h0, time.perf_counter()))
                self._next += 1
            return result
        return wrapper

    @staticmethod
    def _distribution_counts(counters, name, args, kwargs, dist, rss_growth):
        tol = kwargs.get("mass_tolerance", args[2] if len(args) > 2 else None)
        state = args[1] if len(args) > 1 else kwargs["state"]
        dim = sum(sec.two_j + 1 for sec in state.sectors)
        n = len(dist.entries)
        counters[name + ".entries"] += n
        counters[name + ".useful_entries"] += _useful_entries(dist, tol)
        counters[name + ".cells"] += n * dim
        counters[name + ".rss_growth_mb"] += rss_growth

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap the layer functions; `uninstall` (or leaving `with`) restores them."""
        mods = {layer: importlib.import_module(f"qnd_povm.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            if layer == "cli":
                continue  # cli's own helpers stay inside cli.main's self time
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and (
                        not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
                    after = self._distribution_counts if attr == "outcome_distribution" else None
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, after)
        cli = mods["cli"]
        wrappers[cli.main] = self._wrap("cli.main", cli.main)
        for mod in [*mods.values(), importlib.import_module("qnd_povm")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        config_cls = mods["config"].ExperimentConfig
        load = inspect.getattr_static(config_cls, "load")
        self._saved.append((config_cls, "load", load))
        config_cls.load = staticmethod(self._wrap("config.load", load.__func__))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- side file ---------------------------------------------------------
    def write(self, path: str, **meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path: str):
    """(meta, counters, spans) from a side file written by `Tracer.write`."""
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return head["meta"], head["counters"], spans


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {sid: end - start for sid, _, _, _, start, end in spans}
    for _, parent, _, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_metrics(path: str) -> dict:
    """Per-function and per-layer totals from a side file.

    Keys are `<layer>.<function>.{time_s,self_s,calls}`, `<layer>.self_s`,
    the counters the wrappers recorded, and `trace.*` from the file's meta.
    Bookkeeping spans (HOOK) are left out of every program time.
    """
    meta, counters, spans = read(path)
    own = self_times(spans)
    parent_of = {sid: parent for sid, parent, *_ in spans}
    hooked = defaultdict(float)
    for sid, parent, _, name, start, end in spans:
        if name == HOOK:
            while parent in parent_of:
                hooked[parent] += end - start
                parent = parent_of[parent]
    out = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        if name == HOOK:
            continue
        out[name + ".time_s"] += end - start - hooked[sid]
        out[name + ".self_s"] += own[sid]
        out[name + ".calls"] += 1
        out[name.split(".", 1)[0] + ".self_s"] += own[sid]
    out.update(counters)
    entries = counters.get("povm.outcome_distribution.entries", 0)
    if entries:
        out["povm.outcome_distribution.useful_share"] = (
            counters["povm.outcome_distribution.useful_entries"] / entries)
    out["trace.spans"] = len(spans)
    for key in ("wall_s", "untraced_wall_s", "overhead_s"):
        out["trace." + key] = meta[key]
    out["cli.bytes_out"] = meta["bytes_out"]
    return dict(out)
