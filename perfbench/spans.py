"""Spans around the library's layer boundaries, for the traced run only.

``Tracer.install`` replaces a function with a recording wrapper at the name
its caller looks it up (a module global or a class attribute) and
``restore`` puts every original back.  The untraced run never constructs a
tracer, so it calls the library unchanged.

A span records its name, the operation it belongs to, its parent span, start
and duration (``perf_counter`` seconds) and optional attributes computed
from the call's arguments and result.  Self time is the duration minus the
durations of the direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    dur: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self, owner, attr: str, annotate=None) -> None:
        """Wrap ``owner.attr`` in spans named ``attr``; ``annotate(args,
        kwargs, result)`` returns attributes stored on the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), parent.id if parent else None, tracer.op, attr, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                span.start = t0
                tracer._stack.pop()
                if parent is not None:
                    parent.child += span.dur
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def write_jsonl(self, path, header: dict, metrics: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "run", **header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "type": "span", "id": s.id, "parent": s.parent, "op": s.op,
                    "name": s.name, "start": s.start, "dur": s.dur,
                    "self": s.self_time, "attrs": s.attrs,
                }) + "\n")
            for name, m in metrics.items():
                fh.write(json.dumps({"type": "metric", "name": name, **m}) + "\n")


def install_layers(tracer: Tracer, A) -> None:
    """Wrap the library's layer entry points and the benchmark's own calls
    into them (looked up on the package ``A``)."""
    import alphasched.chain_lp as chain_lp
    import alphasched.interval_lp as interval_lp
    import alphasched.preemptive as preemptive
    import alphasched.rounding as rounding

    def lp_dims(args, kwargs, result):
        lp = result.lp
        return {
            "vars": lp.num_vars,
            "rows": len(lp.rows),
            "nonzeros": int(sum(idx.size for idx, _, _, _ in lp.rows)),
        }

    def simplex_info(args, kwargs, result):
        lp = args[0]
        senses = [sense for _, _, sense, _ in lp.rows]
        m = len(senses) + int((lp.upper < float("inf")).sum())
        slack = sum(s != "==" for s in senses)
        art = sum(s != "<=" for s in senses)
        total = lp.num_vars + slack + art
        # The dense simplex holds A (m x n), the tableau (m x total) and
        # the basis inverse (m x m) in float64.
        tableau = 8.0 * m * (lp.num_vars + total + m) / 2**20
        return {"iterations": int(result.iterations), "tableau_mb": tableau}

    def draws(args, kwargs, result):
        return {"draws": int(getattr(result, "size", 1))}

    def chain_info(args, kwargs, result):
        return {"rounds": int(result.iterations), "support": len(result.chains)}

    install = tracer.install
    install(A, "solve_interval_lp")
    install(A, "estimate_ratio")
    install(A, "solve_chain_lp", chain_info)
    install(A, "solve_chain_lp_compressed", chain_info)
    install(A, "estimate_ratio_preemptive")
    install(interval_lp, "build_interval_lp", lp_dims)
    install(interval_lp, "validate_fractional")
    install(rounding, "validate_fractional")
    install(interval_lp, "solve_lp", simplex_info)
    install(chain_lp, "solve_lp", simplex_info)
    install(chain_lp, "price_chain_multi")
    install(A.OffsetDistribution, "sample", draws)
    install(rounding, "simulate_rounding")
    install(preemptive, "simulate_preemptive_rounding")
    install(preemptive, "chain_eval_many")


def layer_metrics(tracer: Tracer, passes: int, load_s: float, horizon: float, speed) -> dict:
    """Per-layer metrics per timed pass; a layer the workload does not run
    reports 0.  Times and rates are scaled to the reference machine speed
    like the end-to-end metrics; ``machine.kernel_us`` is the speed kernel's
    measured mean time."""

    def total(name, parent=None, self_time=False):
        spans = [s for s in tracer.by_name(name) if parent is None or tracer.parent_name(s) == parent]
        return sum(s.self_time if self_time else s.dur for s in spans) / passes

    def count(name, parent=None):
        return sum(1 for s in tracer.by_name(name) if parent is None or tracer.parent_name(s) == parent) / passes

    def attr_sum(name, key, parent=None):
        spans = [s for s in tracer.by_name(name) if parent is None or tracer.parent_name(s) == parent]
        return sum(s.attrs[key] for s in spans) / passes

    def attr_mean(name, key):
        values = [s.attrs[key] for s in tracer.by_name(name)]
        return sum(values) / len(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    simplex_s = total("solve_lp", self_time=True)
    iterations = attr_sum("solve_lp", "iterations")
    sample_s = total("sample", self_time=True)
    tableau = [s.attrs["tableau_mb"] for s in tracer.by_name("solve_lp")]
    values = {
        "instance.load_s": (load_s, "s"),
        "instance.horizon": (horizon, "slots"),
        "interval_lp.build_s": (total("build_interval_lp", self_time=True), "s"),
        "interval_lp.validate_s": (total("validate_fractional", self_time=True), "s"),
        "interval_lp.vars": (attr_mean("build_interval_lp", "vars"), "count"),
        "interval_lp.rows": (attr_mean("build_interval_lp", "rows"), "count"),
        "interval_lp.nonzeros": (attr_mean("build_interval_lp", "nonzeros"), "count"),
        "simplex.solve_s": (simplex_s, "s"),
        "simplex.calls": (count("solve_lp"), "count"),
        "simplex.iterations": (iterations, "count"),
        "simplex.ms_per_iteration": (1000.0 * ratio(simplex_s, iterations), "ms"),
        "simplex.tableau_mb": (max(tableau, default=0.0), "MB"),
        "distributions.sample_s": (sample_s, "s"),
        "distributions.draws_per_s": (ratio(attr_sum("sample", "draws"), sample_s), "1/s"),
        "rounding.simulate_s": (total("simulate_rounding"), "s"),
        "rounding.rest_s": (total("simulate_rounding", self_time=True), "s"),
        "chain_lp.solve_s": (total("solve_chain_lp"), "s"),
        "chain_lp.rest_s": (total("solve_chain_lp", self_time=True), "s"),
        "chain_lp.rounds": (attr_sum("solve_chain_lp", "rounds"), "count"),
        "chain_lp.master_s": (total("solve_lp", parent="solve_chain_lp"), "s"),
        "chain_lp.master_iterations": (attr_sum("solve_lp", "iterations", parent="solve_chain_lp"), "count"),
        "chain_lp.pricing_s": (total("price_chain_multi"), "s"),
        "chain_lp.pricing_calls": (count("price_chain_multi"), "count"),
        "chain_lp.support": (attr_mean("solve_chain_lp", "support"), "count"),
        "chain_lp.compressed_s": (total("solve_chain_lp_compressed"), "s"),
        "chain_lp.compressed_rounds": (attr_sum("solve_chain_lp_compressed", "rounds"), "count"),
        "preemptive.simulate_s": (total("simulate_preemptive_rounding"), "s"),
        "preemptive.rest_s": (total("simulate_preemptive_rounding", self_time=True), "s"),
        "chains.eval_s": (total("chain_eval_many", self_time=True), "s"),
    }
    factor = speed.scale(1.0)
    scaled = {"s": factor, "ms": factor, "1/s": 1.0 / factor}
    out = {name: {"value": float(v) * scaled.get(unit, 1.0), "unit": unit} for name, (v, unit) in values.items()}
    out["machine.kernel_us"] = {"value": 1e6 * speed.kernel_s, "unit": "us"}
    return out

