"""Span tracer that times calls into the starnambu layers from outside.

``install(tracer)`` replaces each function named in ``WRAPPED`` with a
timing wrapper.  A module-level function is rebound in every ``starnambu``
module that holds it by name (``pmul`` lives in ``poly`` and is also bound
in ``radical``, ``phase`` and ``operators``); rebinding the defining module
too covers the function-local ``from .poly import pmul`` imports.  A method
is replaced on its class.  Nothing in ``src/`` is edited.

Each call records a span (function, start, end, parent span) in compact
arrays, kept per thread by a stack.  The stack also gives exact self time
online: a span's duration minus the durations of its direct children.
Calls into ``gauss`` are leaves called millions of times per pass, so they
are counted and timed but not stored as spans; their time still counts as
child time of the span that called them.  ``Tracer.write`` saves the spans
when the pass ends and ``read_spans`` loads them back.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from typing import Dict, List

LAYERS = ("gauss", "poly", "radical", "phase", "brackets", "operators",
          "models", "lang", "catalog")

# Per layer: module-level functions, or "Class.method".  Every entry must be
# reached by at least one workload (checked by ``run.py --workload all``).
WRAPPED = {
    "gauss": ("qadd", "qmul", "qinv", "qdiv", "qnorm", "qpow_i", "qis_zero",
              "qre", "qim"),
    "poly": ("padd", "psub", "pneg", "pscale", "pmul", "pderive",
             "pdivmod_exact", "pshift_hbar", "pdivide_ihbar", "pconst"),
    "radical": ("rmake", "rfrom_poly", "rfrom_scalar", "radd", "rsub", "rneg",
                "rmul", "rscale", "rinv", "rderive", "rtimes_ihbar",
                "rdivide_ihbar", "rsubst_hbar_zero", "ris_zero"),
    "phase": ("PhaseExpr.__add__", "PhaseExpr.__sub__", "PhaseExpr.__neg__",
              "PhaseExpr.__mul__", "PhaseExpr.__truediv__", "PhaseExpr.scale",
              "PhaseExpr.times_ihbar", "PhaseExpr.diff_x",
              "PhaseExpr.diff_p", "PhaseExpr.divide_exact_hbar",
              "PhaseExpr.subst_hbar_zero", "PhaseExpr.equals",
              "PhaseExpr.is_zero"),
    "brackets": ("star", "star_commutator", "poisson", "moyal",
                 "nambu_jacobian", "qnb", "jordan", "phase_algebra",
                 "SubsetCache.get"),
    "operators": ("ExactMatrix.__add__", "ExactMatrix.__sub__",
                  "ExactMatrix.__neg__", "ExactMatrix.__mul__",
                  "ExactMatrix.__eq__", "ExactMatrix.times_hbar",
                  "ExactMatrix.is_zero",
                  "commutator", "matrix_algebra", "number_matrix",
                  "oscillator_bracket_entries", "oscillator_theorem_check",
                  "random_sector_matrix", "chiral_tensor_rep",
                  "chiral_block_rep"),
    "models": ("get_model", "fab", "half_charges"),
    "lang": ("parse", "evaluate", "print_canonical"),
    "catalog": ("run_suite", "run_entry"),
}

# Metric key of a wrapped function when it is not "<layer>.<name>".
KEYS = {
    "PhaseExpr.diff_x": "phase.diff",
    "PhaseExpr.diff_p": "phase.diff",
    "ExactMatrix.__mul__": "operators.matmul",
    "SubsetCache.get": "brackets.subset_cache.get",
}

UNSTORED_LAYERS = ("gauss",)


def metric_key(layer: str, name: str) -> str:
    if name in KEYS:
        return KEYS[name]
    short = name.split(".")[-1].strip("_")
    return f"{layer}.{short}"


class _Thread:
    """One thread's span buffers, counters and open-span stack."""

    def __init__(self, tid: int, nfuncs: int):
        self.tid = tid
        self.stack: list = []
        self.calls = [0] * nfuncs
        self.self_s = [0.0] * nfuncs
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Spans and per-function counters of one pass."""

    def __init__(self):
        self.names: List[str] = []      # function id -> "layer:name"
        self.keys: List[str] = []       # function id -> metric key
        self.threads: List[_Thread] = []
        self.counters: Dict[str, float] = {
            "brackets.qnb.products": 0, "brackets.qnb.nodes": 0,
            "brackets.subset_cache.hits": 0, "poly.pdivmod_exact.successes": 0,
            "lang.print_canonical.chars": 0, "models.build_s": 0.0,
            "catalog.entry.wait_s": 0.0,
        }
        self.entry_s: Dict[str, float] = {}
        self.entry_cpu_s: Dict[str, float] = {}
        self._built: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread(self) -> _Thread:
        with self._lock:
            state = _Thread(len(self.threads), len(self.names))
            self.threads.append(state)
        self._local.state = state
        return state

    def wrap(self, fn, layer: str, name: str, hook=None):
        fid = len(self.names)
        self.names.append(f"{layer}:{name}")
        self.keys.append(metric_key(layer, name))
        store = layer not in UNSTORED_LAYERS
        perf = time.perf_counter
        local, new_thread = self._local, self._thread

        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = new_thread()
            stack = st.stack
            if store:
                idx = len(st.fid)
                st.fid.append(fid)
                st.parent.append(stack[-1][0] if stack else -1)
                st.start.append(0.0)
                st.end.append(0.0)
            else:
                idx = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                st.calls[fid] += 1
                st.self_s[fid] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if store:
                    st.start[idx] = t0
                    st.end[idx] = t1
            if hook is not None:
                with self._lock:
                    hook(args, result, d)
            return result

        return wrapper

    # -- hooks for the counters that need a call's arguments or result ----

    def _qnb(self, args, result, d):
        self.counters["brackets.qnb.products"] += result.stats.products
        self.counters["brackets.qnb.nodes"] += result.stats.nodes

    def _cache_get(self, args, result, d):
        if result is not None:
            self.counters["brackets.subset_cache.hits"] += 1

    def _pdivmod(self, args, result, d):
        if result is not None:
            self.counters["poly.pdivmod_exact.successes"] += 1

    def _printed(self, args, result, d):
        self.counters["lang.print_canonical.chars"] += len(result)

    def _get_model(self, args, result, d):
        name = args[0].strip()
        if name not in self._built:
            self._built.add(name)
            self.counters["models.build_s"] += d

    def _entry(self, args, result, d):
        entry_id = args[0].id
        self.entry_s[entry_id] = self.entry_s.get(entry_id, 0.0) + d
        self.counters["catalog.entry.wait_s"] += d - self.entry_cpu_s[entry_id]

    def _thread_cpu(self, fn):
        """run_entry with the entry thread's CPU time recorded."""
        def run_entry(entry, ctx):
            c0 = time.thread_time()
            try:
                return fn(entry, ctx)
            finally:
                self.entry_cpu_s[entry.id] = time.thread_time() - c0
        return run_entry

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per function id: (calls, self seconds), summed over threads."""
        calls = [sum(t.calls[i] for t in self.threads)
                 for i in range(len(self.names))]
        self_s = [sum(t.self_s[i] for t in self.threads)
                  for i in range(len(self.names))]
        return calls, self_s

    def by_key(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for key, n, s in zip(self.keys, *self.totals()):
            agg = out.setdefault(key, {"calls": 0, "self_s": 0.0})
            agg["calls"] += n
            agg["self_s"] += s
        return out

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, n, s in zip(self.names, *self.totals()):
            agg = out[name.split(":")[0]]
            agg["calls"] += n
            agg["self_s"] += s
        return out

    def reached(self) -> Dict[str, int]:
        return dict(zip(self.names, self.totals()[0]))

    def write(self, path: str, meta: dict) -> int:
        """Write the spans: one JSON header line, then the raw arrays.

        Threads are written one after another; ``parent`` indexes the whole
        file (-1 for a root span) and ``thread`` numbers the threads.
        """
        fid, parent, thread = array("i"), array("q"), array("i")
        start, end = array("d"), array("d")
        for t in self.threads:
            offset = len(fid)
            fid.extend(t.fid)
            parent.extend(p + offset if p >= 0 else -1 for p in t.parent)
            thread.extend([t.tid] * len(t.fid))
            start.extend(t.start)
            end.extend(t.end)
        header = dict(meta, functions=self.names, spans=len(fid),
                      arrays=[("fid", "i"), ("parent", "q"), ("thread", "i"),
                              ("start", "d"), ("end", "d")])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (fid, parent, thread, start, end):
                arr.tofile(fh)
        return len(fid)


def read_spans(path: str):
    """Load a spans file: (header, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            out[field] = arr
    return header, out


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED, wherever starnambu binds it."""
    pkg = importlib.import_module("starnambu")
    mods = [importlib.import_module(f"starnambu.{m}")
            for m in LAYERS + ("cli",)]
    mods.append(pkg)
    hooks = {
        ("brackets", "qnb"): tracer._qnb,
        ("brackets", "SubsetCache.get"): tracer._cache_get,
        ("poly", "pdivmod_exact"): tracer._pdivmod,
        ("lang", "print_canonical"): tracer._printed,
        ("models", "get_model"): tracer._get_model,
        ("catalog", "run_entry"): tracer._entry,
    }
    for layer, names in WRAPPED.items():
        home = importlib.import_module(f"starnambu.{layer}")
        for name in names:
            hook = hooks.get((layer, name))
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                orig = vars(cls)[attr]
                setattr(cls, attr, tracer.wrap(orig, layer, name, hook))
                continue
            orig = getattr(home, name)
            fn = tracer._thread_cpu(orig) if name == "run_entry" else orig
            wrapper = tracer.wrap(fn, layer, name, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
