"""Per-layer tracing from outside the library.

`Tracer.install` wraps every public module-level function of the seven
layer modules, plus the methods named in COUNTED_METHODS, and rebinds each
wrapper in every `qmsets.*` namespace that holds the original, because the
modules call one another through their own imported names.  Each wrapped
call adds to its layer's call count and self time (its own duration minus
that of the wrapped calls it makes).  Span records (name, start, end,
parent, op) are kept only for calls at depth <= 2 within an op (the op's own
library calls and their direct callees), and for at most SPANS_PER_OP of
the callees, since one n = 6 lattice render makes ~460 k `refines` calls
straight from `lattice_render`.  Spans not kept are counted in `dropped`.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("universe", "attributes", "group_action", "gf2", "calculus", "scenario", "cli")

# (layer, class, method, counter); counter None means timed but not counted.
COUNTED_METHODS = (
    ("universe", "SetPartition", "from_blocks", "universe.partitions_built"),
    ("group_action", "Permutation", "compose", "group_action.compositions"),
    ("gf2", "SetKet", "to_subset", "gf2.to_subset"),
    ("attributes", "Attribute", "preimage", None),
    ("calculus", "OutcomeDistribution", "__init__", "calculus.distributions"),
    ("calculus", "Outcome", "__init__", "calculus.outcomes"),
)
COUNTED_FUNCTIONS = {
    "gf2.gf2_rank": "gf2.eliminations",
    "gf2.gf2_solve": "gf2.eliminations",
    "universe.refines": "universe.refines",
    "calculus.measure_sample": "calculus.draws",
}
SPAN_DEPTH = 2
SPANS_PER_OP = 1000


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[float] = []  # child time of each open wrapped call
        self.span_ids: list[int] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters: dict[str, float] = {}
        self.self_by_size: dict[tuple[str, int], float] = {}
        self.spans: list[tuple] = []
        self.op_id = -1
        self.op_n = 0
        self.op_spans = 0
        self.dropped = 0
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------
    def install(self, qmsets) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qmsets" or name.startswith("qmsets.")]
        for layer in LAYERS:
            mod = sys.modules[f"qmsets.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(fn, layer, key, COUNTED_FUNCTIONS.get(key))
                if key == "universe.enumerate_partitions":
                    wrapper = self._counting_results(wrapper, "universe.enumerated")
                elif key == "calculus.measure_sample":
                    wrapper = self._counting_within(
                        wrapper, "calculus.outcomes", "calculus.outcomes_in_draws")
                elif key == "cli.lattice_render":
                    wrapper = self._counting_within(
                        wrapper, "universe.refines", "universe.refines_in_lattice")
                elif key == "scenario.parse_scenario":
                    wrapper = self._counting_raises(
                        wrapper, qmsets.ScenarioError, "scenario.rejects")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        for layer, cls_name, meth, counter in COUNTED_METHODS:
            cls = getattr(sys.modules[f"qmsets.{layer}"], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                self.missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            key = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, layer, key, counter)))
            else:
                setattr(cls, meth, self._wrap(raw, layer, key, counter))

    def _wrap(self, fn, layer: str, key: str, counter: str | None):
        stack, span_ids, spans = self.stack, self.span_ids, self.spans
        self_s, calls, errors, counters = self.self_s, self.calls, self.errors, self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            depth = len(stack)
            keep = depth == 0 or (depth < SPAN_DEPTH and tracer.op_spans < SPANS_PER_OP)
            if keep:
                span_ids.append(len(spans))
                spans.append(None)
                if depth:
                    tracer.op_spans += 1
            elif depth < SPAN_DEPTH:
                tracer.dropped += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                if counter is not None:
                    counters[counter] = counters.get(counter, 0) + 1
                if stack:
                    stack[-1] += dt
                if keep:
                    sid = span_ids.pop()
                    spans[sid] = (key, t0, t1, span_ids[-1] if span_ids else None,
                                  tracer.op_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_results(self, wrapper, counter: str):
        counters, tracer = self.counters, self

        def counted(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            if tracer.active:
                counters[counter] = counters.get(counter, 0) + len(result)
            return result

        return counted

    def _counting_raises(self, wrapper, exc_type, counter: str):
        counters, tracer = self.counters, self

        def counted(*args, **kwargs):
            try:
                return wrapper(*args, **kwargs)
            except exc_type:
                if tracer.active:
                    counters[counter] = counters.get(counter, 0) + 1
                raise

        return counted

    def _counting_within(self, wrapper, inner: str, counter: str):
        """Adds to `counter` the `inner` counts made during each call."""
        counters = self.counters

        def counted(*args, **kwargs):
            before = counters.get(inner, 0)
            try:
                return wrapper(*args, **kwargs)
            finally:
                counters[counter] = counters.get(counter, 0) + counters.get(inner, 0) - before

        return counted

    # -- per-op bookkeeping -----------------------------------------------
    def begin_op(self, op_id: int, n: int) -> None:
        self.op_id, self.op_n, self.op_spans = op_id, n, 0
        self._before = dict(self.self_s)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        for layer, t in self.self_s.items():
            delta = t - self._before[layer]
            if delta:
                key = (layer, self.op_n)
                self.self_by_size[key] = self.self_by_size.get(key, 0.0) + delta

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, t0, t1, parent, op = span
                    fh.write(json.dumps([sid, name, t0, t1, parent, op]) + "\n")
