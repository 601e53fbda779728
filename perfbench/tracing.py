"""Span tracing for the benchmark's traced run.

The tracer wraps every public function of each engine module and rebinds
the wrapper under every name that refers to the function in any loaded
``amhedge`` module, so calls made through ``from .lp import solve`` are
caught as well as calls made through the module attribute.  Nothing in
``src/`` changes; ``uninstall`` restores the original objects.

Spans are kept in memory as ``[name, layer, start, end, parent, request,
payload]`` lists and summarised after the run.  A layer's self time is
its span time minus the time of child spans from other layers; nested
spans of the same layer are counted once.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# engine modules that form the layers; rationals and errors are leaf
# helpers whose calls are too fine-grained to span
LAYERS = ("cli", "campaign", "robust", "divisible", "measures", "hedging",
          "strategies", "enlarged", "market", "lp")
SPAN_MARK = "__perfbench_span__"

NAME, LAYER, START, END, PARENT, REQUEST, PAYLOAD = range(7)
# spans whose return value feeds a per-layer count
_COUNTED = frozenset({"lp.solve", "strategies.enumerate_stopping_times",
                      "measures.build_polytope", "measures.dual_subhedge",
                      "enlarged.enlarge"})


def _engine_modules() -> dict[str, object]:
    return {n: m for n, m in list(sys.modules.items())
            if m is not None and (n == "amhedge" or n.startswith("amhedge."))}


def _payload(name: str, result):
    """The small piece of a return value that per-layer counts need."""
    if name == "lp.solve":
        return result                       # bit lengths are measured after the run
    if name == "strategies.enumerate_stopping_times":
        return len(result)
    if name in ("measures.build_polytope", "measures.dual_subhedge"):
        return result.num_tau_rows
    if name == "enlarged.enlarge":
        return (result.num_paths, len(result.enodes))
    return None


class Tracer:
    """Installs span wrappers into the loaded engine modules."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, self.clock
        keep = name in _COUNTED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[PAYLOAD] = _payload(name, result)
            return result

        setattr(wrapper, SPAN_MARK, name)
        return wrapper

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = _engine_modules()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"amhedge.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def wrapped_names() -> list[str]:
    """Names in the loaded engine modules that are currently span wrappers."""
    found = []
    for n, mod in _engine_modules().items():
        for attr, obj in vars(mod).items():
            if getattr(obj, SPAN_MARK, None) is not None:
                found.append(f"{n}.{attr}")
    return found


def _max_bits(outcome) -> int:
    best = 0
    for vec in (outcome.primal, outcome.duals, outcome.farkas, outcome.ray):
        for q in vec or ():
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def request_layer_self(spans: list[list]) -> dict[int, dict[str, float]]:
    """Layer self times per request, for the self-sum check."""
    out: dict[int, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        per = out.setdefault(s[REQUEST], {})
        per[s[LAYER]] = per.get(s[LAYER], 0.0) + own
    return out


def layer_metrics(spans: list[list], lo: int = 0, hi: int | None = None,
                  slowdowns: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]``, one traced pass.

    Parent links index the whole list, so the pass is given as a range.
    With ``slowdowns`` (per request), times are divided by the host slowdown
    of their request, as end-to-end times are.
    """
    own = self_times(spans)
    self_s = {layer: 0.0 for layer in LAYERS}
    lp_under = {layer: 0.0 for layer in LAYERS}
    m = {
        "lp.solve_s": 0.0, "lp.calls": 0, "lp.pivots": 0, "lp.rows_max": 0,
        "lp.cols_max": 0, "lp.tableau_cells": 0, "lp.max_bits": 0,
        "lp.infeasible": 0, "lp.unbounded": 0, "measures.tau_rows": 0,
        "strategies.enum_s": 0.0, "strategies.taus": 0, "market.load_s": 0.0,
        "enlarged.enlarge_s": 0.0, "enlarged.paths": 0, "enlarged.nodes": 0,
        "campaign.checks": 0,
    }
    for s, t_own in zip(spans[lo:hi], own[lo:hi]):
        name, layer, dur = s[NAME], s[LAYER], s[END] - s[START]
        if slowdowns is not None:
            dur /= slowdowns[s[REQUEST]]
            t_own /= slowdowns[s[REQUEST]]
        self_s[layer] += t_own
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if layer == "lp" and parent is not None and parent[LAYER] != "lp":
            lp_under[parent[LAYER]] += dur
        if name == "lp.solve":
            out = s[PAYLOAD]
            m["lp.solve_s"] += dur
            m["lp.calls"] += 1
            if out is not None:       # None when the solve raised
                m["lp.pivots"] += out.pivots
                m["lp.rows_max"] = max(m["lp.rows_max"], out.rows)
                m["lp.cols_max"] = max(m["lp.cols_max"], out.cols)
                m["lp.tableau_cells"] += out.pivots * out.rows * out.cols
                m["lp.max_bits"] = max(m["lp.max_bits"], _max_bits(out))
                m["lp.infeasible"] += out.status == "infeasible"
                m["lp.unbounded"] += out.status == "unbounded"
        elif name == "strategies.enumerate_stopping_times":
            m["strategies.enum_s"] += dur
            m["strategies.taus"] += s[PAYLOAD] or 0
        elif name in ("measures.build_polytope", "measures.dual_subhedge"):
            # dual_superhedge reports its polytope's rows, already counted here
            m["measures.tau_rows"] += s[PAYLOAD] or 0
        elif name == "market.load_model":
            m["market.load_s"] += dur
        elif name == "enlarged.enlarge":
            m["enlarged.enlarge_s"] += dur
            if s[PAYLOAD] is not None:
                m["enlarged.paths"] += s[PAYLOAD][0]
                m["enlarged.nodes"] += s[PAYLOAD][1]
        elif name.startswith("campaign.check_"):
            m["campaign.checks"] += 1
    m["lp.pivots_per_s"] = m["lp.pivots"] / m["lp.solve_s"] if m["lp.solve_s"] else 0.0
    m["hedging.lp_s"] = lp_under["hedging"]
    m["measures.lp_s"] = lp_under["measures"]
    m["measures.tau_useful_ratio"] = (m["measures.tau_rows"] / m["strategies.taus"]
                                      if m["strategies.taus"] else 0.0)
    for layer in ("hedging", "measures", "cli", "divisible", "robust", "campaign"):
        m[f"{layer}.self_s"] = self_s[layer]
    return m
