"""Spans and counts around the calls into graphrates' layers.

Used only by the traced run. Each wrapped function records a span (name,
start, end, parent span, operation id) in memory; the caller reads them out
once the job has ended. A wrapper replaces the function in every graphrates
module namespace that holds it, because `cli`, `acceptance` and `mcharness`
import names with `from .graphs import ...` and would otherwise bypass it.
"""

import sys
import time
from collections import Counter, defaultdict

from graphrates import (acceptance, cli, graphs, mcharness, measures, oracles, rates, seeds,
                        varsolve)

# (home module, attribute, span name): the calls that become timed spans
SPANS = [
    (cli, "main", "cli.main"),
    (graphs, "sample_colored_graph", "graphs.sample_colored_graph"),
    (graphs, "empirical_measures", "graphs.empirical_measures"),
    (graphs, "sample_conditional", "graphs.sample_conditional"),
    (measures, "quantize", "measures.quantize"),
    (measures, "consistify", "measures.consistify"),
    (measures, "cap_degrees", "measures.cap_degrees"),
    (measures, "phi_counts", "measures.phi_counts"),
    (rates, "rate_zeta", "rates.rate_zeta"),
    (varsolve, "zeta_inner", "varsolve.zeta_inner"),
    (varsolve, "minimize", "varsolve.minimize"),
    (varsolve, "ising_annealed", "varsolve.ising_annealed"),
    (oracles, "binomial_log_tail", "oracles.binomial_log_tail"),
    (oracles, "ising_oracle", "oracles.ising_oracle"),
    (oracles, "partition_bound_check", "oracles.partition_bound_check"),
    (oracles, "support_bound_check", "oracles.support_bound_check"),
    (mcharness, "lln_check", "mcharness.lln_check"),
]
# layers reported as <layer>.calls and <layer>.s
CALL_LAYERS = ("graphs.sample_colored_graph", "graphs.empirical_measures",
               "graphs.sample_conditional", "graphs.ColoredGraph",
               "measures.quantize", "measures.consistify", "measures.cap_degrees",
               "measures.phi_counts", "rates.rate_zeta", "varsolve.ising_annealed",
               "oracles.binomial_log_tail", "oracles.ising_oracle",
               "oracles.partition_bound_check", "oracles.support_bound_check")
MC_KINDS = ("edges", "pair", "degree_zero")
CRITERIA = tuple(range(1, 12))

# every per-layer metric with its unit, in the order they are printed
PER_LAYER = [(f"{layer}.{field}", unit) for layer in CALL_LAYERS
             for field, unit in (("calls", "count"), ("s", "s"))]
PER_LAYER += [("cli.self_s", "s"),
              ("varsolve.zeta_inner.s", "s"), ("varsolve.zeta_inner.iterations", "count"),
              ("varsolve.minimize.calls", "count"), ("varsolve.minimize.nfev", "count")]
PER_LAYER += [(f"mcharness.{kind}.{field}", unit) for kind in MC_KINDS
              for field, unit in (("s", "s"), ("replicas_per_s", "1/s"), ("hit_ratio", "ratio"))]
PER_LAYER += [("mcharness.lln_check.s", "s"), ("seeds.derive_child_seed.calls", "count")]
PER_LAYER += [(f"acceptance.criterion_{cid}.s", "s") for cid in CRITERIA]
# run.py adds trace.overhead_s and trace.overhead_ratio, which need an untraced run


class Tracer:
    """In-memory span recorder; spans[i] = (name, start, end, parent, op).

    A span opens a new operation id when it has no parent or is an
    acceptance criterion; any other span shares its parent's id.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []  # (span index, op id) of the open spans
        self._ops = 0

    def _wrap(self, name, fn, on_result=None, opens_op=False):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent, op = self._stack[-1] if self._stack else (-1, None)
            if op is None or opens_op:
                self._ops += 1
                op = self._ops
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append((idx, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, start, end, parent, op)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _add(self, key, attr):
        def hook(args, result):
            self.counts[key] += getattr(result, attr)
        return hook

    def _mc_hook(self, args, estimate):
        exp = args[0]
        kind = exp.event["kind"]
        self.counts[f"mcharness.{kind}.replicas"] += exp.replicas * len(exp.sizes)
        self.counts[f"mcharness.{kind}.hits"] += sum(row["hits"] for row in estimate.rows)

    def _count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @staticmethod
    def _replace_everywhere(home, attr, wrapper):
        original = getattr(home, attr)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("graphrates")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapper)

    def install(self):
        """Wrap the layers for the rest of this process's life."""
        hooks = {"varsolve.zeta_inner": self._add("varsolve.zeta_inner.iterations", "iterations"),
                 "varsolve.minimize": self._add("varsolve.minimize.nfev", "nfev")}
        for home, attr, name in SPANS:
            self._replace_everywhere(
                home, attr, self._wrap(name, getattr(home, attr), hooks.get(name)))
        self._replace_everywhere(
            mcharness, "estimate_tail_exponent",
            self._wrap(lambda args: f"mcharness.{args[0].event['kind']}",
                       mcharness.estimate_tail_exponent, self._mc_hook))
        # counted, not timed: a span would cost more than the call
        self._replace_everywhere(
            seeds, "derive_child_seed",
            self._count_calls("seeds.derive_child_seed.calls", seeds.derive_child_seed))
        graphs.ColoredGraph.__init__ = self._wrap("graphs.ColoredGraph",
                                                  graphs.ColoredGraph.__init__)
        for cid in CRITERIA:
            acceptance.CRITERIA[cid] = self._wrap(f"acceptance.criterion_{cid}",
                                                  acceptance.CRITERIA[cid], opens_op=True)

    def summary(self):
        """calls, inclusive seconds and self seconds per span name.

        Inclusive time counts only the outermost span of a name, so a nested
        call of the same name is not counted twice. Self time is a span's
        duration minus the time its direct children cover.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, inclusive, self_time = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return calls, inclusive, self_time

    def layer_metrics(self, criterion_times):
        """[name, value, unit] for each PER_LAYER metric, and a per-span-name summary."""
        calls, inclusive, self_time = self.summary()
        metrics = {}
        for layer in CALL_LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.s"] = inclusive[layer]
        metrics["cli.self_s"] = self_time["cli.main"]
        metrics["varsolve.zeta_inner.s"] = inclusive["varsolve.zeta_inner"]
        metrics["varsolve.minimize.calls"] = calls["varsolve.minimize"]
        for key in ("varsolve.zeta_inner.iterations", "varsolve.minimize.nfev",
                    "seeds.derive_child_seed.calls"):
            metrics[key] = self.counts[key]
        for kind in MC_KINDS:
            s = inclusive[f"mcharness.{kind}"]
            replicas = self.counts[f"mcharness.{kind}.replicas"]
            metrics[f"mcharness.{kind}.s"] = s
            metrics[f"mcharness.{kind}.replicas_per_s"] = replicas / s if s else 0.0
            metrics[f"mcharness.{kind}.hit_ratio"] = (
                self.counts[f"mcharness.{kind}.hits"] / replicas if replicas else 0.0)
        metrics["mcharness.lln_check.s"] = inclusive["mcharness.lln_check"]
        for cid in CRITERIA:
            metrics[f"acceptance.criterion_{cid}.s"] = criterion_times.get(cid, 0.0)
        detail = {"calls": dict(calls), "inclusive_s": dict(inclusive),
                  "self_s": dict(self_time), "counts": dict(self.counts)}
        return [[name, metrics[name], unit] for name, unit in PER_LAYER], detail

    def span_rows(self, origin):
        """Spans as [name, start, end, parent, op], times in seconds from origin."""
        return [[name, round(start - origin, 7), round(end - origin, 7), parent, op]
                for name, start, end, parent, op in self.spans]
