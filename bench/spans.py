"""Spans around calls into ditkin's public functions, for the traced run.

`Tracer.install` replaces each traced function, in every ditkin module that
binds it, with a wrapper that records a span: name, operation id, parent
span, start, end, the time its child spans cover, and its tracemalloc peak
above the memory in use when it opened.  A call that re-enters the function
of the innermost open span (the parsers and `eventual_form` recurse) is not
recorded again.  Spans stay in memory and `write` stores them at the end.
tracemalloc slows every allocation, so it only runs in the traced run.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

# (span name, module, attribute); a class attribute is named "Class.method"
TARGETS = (
    ("weights.parse", "weights", "weight_family_from_obj"),
    ("weights.eventual_form", "weights", "eventual_form"),
    ("weights.classify", "weights", "WeightFamily.classify"),
    ("weights.tail_infimum", "weights", "WeightFamily.tail_infimum"),
    ("algebra.element_parse", "algebra", "element_from_obj"),
    ("algebra.norm", "algebra", "Element.norm"),  # split into _exact / _interval
    ("algebra.arith", "algebra", "Element.__add__"),
    ("algebra.arith", "algebra", "Element.__sub__"),
    ("algebra.arith", "algebra", "Element.__mul__"),
    ("algebra.arith", "algebra", "Element.__rmul__"),
    ("approx_identity.residual_norm", "approx_identity", "residual_norm"),
    ("approx_identity.residual_oracle", "approx_identity", "residual_oracle"),
    ("approx_identity.select_ai", "approx_identity", "select_ai_subsequence"),
    ("approx_identity.ditkin_approximation", "approx_identity", "ditkin_approximation"),
    ("classifier.property_report", "classifier", "property_report"),
    ("classifier.witness", "classifier", "relative_unit_witness"),
)

SPAN_NAMES = tuple(
    dict.fromkeys(
        n
        for name, _, _ in TARGETS
        for n in (
            (name + "_exact", name + "_interval") if name == "algebra.norm" else (name,)
        )
    )
)


class Span:
    __slots__ = ("i", "name", "op", "parent", "start", "end", "child_ns", "mem0", "peak")

    def __init__(self, i, name, op, parent, mem0):
        self.i, self.name, self.op, self.parent, self.mem0 = i, name, op, parent, mem0
        self.child_ns = 0
        self.peak = mem0


class Tracer:
    def __init__(self, dk):
        self.dk = dk
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [self.dk] + [
            getattr(self.dk, m) for m in ("weights", "algebra", "approx_identity", "classifier", "cli")
        ]
        rule_based = self.dk.algebra.RuleBased

        def norm_label(f, *args, **kwargs) -> str:
            return "algebra.norm_interval" if isinstance(f, rule_based) else "algebra.norm_exact"

        for name, mod, attr in TARGETS:
            owner = getattr(self.dk, mod)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            fn = getattr(owner, attr)
            wrapped = self._wrap(norm_label if name == "algebra.norm" else name, fn)
            for t in targets:
                if t.__dict__.get(attr) is fn:
                    self._undo.append((t, attr, fn))
                    setattr(t, attr, wrapped)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = label(*args, **kwargs) if callable(label) else label
            if tracer.stack and tracer.stack[-1].name == name:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def open(self, name: str) -> Span:
        cur, peak = tracemalloc.get_traced_memory()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        span = Span(len(self.spans), name, self.op, -1 if parent is None else parent.i, cur)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        if self.stack:
            parent = self.stack[-1]
            parent.peak = max(parent.peak, span.peak)
            parent.child_ns += span.end - span.start

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per operation: inclusive and self ms of each span name; max peak KiB."""
        total = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0)
        peak = dict.fromkeys(SPAN_NAMES, 0)
        for s in self.spans:
            if s.name not in total:
                continue
            d = s.end - s.start
            total[s.name] += d
            own[s.name] += d - s.child_ns
            peak[s.name] = max(peak[s.name], s.peak - s.mem0)
        out = {}
        for n in SPAN_NAMES:
            out[n + "_ms"] = total[n] / ops / 1e6
            out[n + "_self_ms"] = own[n] / ops / 1e6
            out[n + "_peak_kb"] = peak[n] / 1024
        return out

    def write(self, path, counts: dict) -> None:
        """One JSON array per span, then one object with the run's counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.name, s.op, s.parent, s.start, s.end, s.end - s.start - s.child_ns,
                         (s.peak - s.mem0) / 1024]
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": counts}) + "\n")
