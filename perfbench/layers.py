"""Per-layer tracing of lambcoin from outside the program.

`Tracer.install` wraps the public functions of each lambcoin module at the
module bindings their callers use (`lambcoin.explore.is_normal` is the
binding the explorer calls, `lambcoin.rewrite.is_normal` the one nobody
outside rewrite sees). Each wrapped call is a span: its inclusive time, its
self time (inclusive minus the time covered by child spans) and its parent
span are aggregated in memory by span name. The term classes' `__eq__` and
`__hash__` are counted, not timed, since they run millions of times.
`metrics()` turns the aggregates into the per-layer metrics that
BENCHMARK.json lists; `spans()` is the full table written to the trace file.
"""

from __future__ import annotations

import importlib
import sys
import typing
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("syntax", "typecheck", "rewrite", "distribution", "explore",
          "equivalence", "cli")

# Within these modules the public functions call each other through the
# module's own globals (comp_equiv -> enum_contexts -> enum_normal_closed,
# main -> cmd_equiv), so those bindings are wrapped too. syntax, typecheck
# and rewrite also recurse through their globals (free_vars, unify,
# children); wrapping those bindings would count each recursive step and
# multiply the overhead, so only their callers' bindings are wrapped.
WRAP_OWN_BINDINGS = {"distribution", "explore", "equivalence", "cli"}

# (class attribute, span name) pairs for the methods that are layer work.
METHODS = {
    "distribution": (("Distribution", "__init__", "distribution.construct"),),
    "explore": (("Explorer", "normal_form_distributions",
                 "explore.Explorer.normal_form_distributions"),),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.by_parent: Counter = Counter()       # (name, parent) -> calls
        self.inclusive_by_parent: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()          # derived from results
        self._stack: list[list] = []              # [name, child seconds]
        self._eq = [0]
        self._hash = [0]

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    key = (name, parent[0])
                    self.by_parent[key] += 1
                    self.inclusive_by_parent[key] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, span_name: str, site: str):
        """Result hook for the counts that no call count gives, or None."""
        counts = self.counts
        if span_name == "rewrite.is_normal" and site == "lambcoin.explore":
            def observe(args, result):
                counts["explore.non_normal"] += not result
        elif span_name == "explore.Explorer.normal_form_distributions":
            def observe(args, result):
                counts["explore.endpoints"] += len(result)
        elif span_name == "explore.reduce_with_strategy":
            def observe(args, result):
                counts["explore.strategy_steps"] += len(result.steps)
        elif span_name == "equivalence.enum_contexts":
            def observe(args, result):
                counts["equivalence.contexts"] += len(result)
        elif span_name == "equivalence.enum_normal_closed":
            def observe(args, result):
                counts["equivalence.enum_kept"] += len(result)
        elif span_name == "equivalence.comp_equiv":
            def observe(args, result):
                counts["equivalence.distinct_context_results"] += len(
                    {(c.left, c.right) for c in result.per_context})
        else:
            return None
        return observe

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("lambcoin")
        modules = {layer: importlib.import_module(f"lambcoin.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                span_name = f"{layer}.{name}"
                for site in (package, *modules.values()):
                    if site is module and layer not in WRAP_OWN_BINDINGS:
                        continue
                    if vars(site).get(name) is obj:
                        wrapped = self.span(span_name, self._measured(span_name, obj),
                                            self._observer(span_name, site.__name__))
                        setattr(site, name, wrapped)
            for cls_name, attr, span_name in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is not None and attr in vars(cls):
                    self._wrap_method(cls, attr, span_name)
        self._count_term_methods(modules["syntax"])

    def _wrap_method(self, cls, attr: str, span_name: str) -> None:
        method = self._measured(span_name, vars(cls)[attr])
        setattr(cls, attr, self.span(span_name, method, self._observer(span_name, "")))

    def _measured(self, span_name: str, fn):
        """`fn`, or a wrapper of it that reads a count off its side effects."""
        counts = self.counts
        if span_name == "explore.Explorer.normal_form_distributions":
            def nodes(explorer, *args, **kwargs):
                before = explorer.stats.nodes
                try:
                    return fn(explorer, *args, **kwargs)
                finally:
                    counts["explore.nodes"] += explorer.stats.nodes - before
            return nodes
        if span_name == "cli.main":
            def output(*args, **kwargs):
                stream = sys.stdout  # the caller redirects it to a StringIO
                before = len(stream.getvalue())
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts["cli.output_bytes"] += len(
                        stream.getvalue()[before:].encode())
            return output
        return fn

    def _count_term_methods(self, syntax) -> None:
        for cls in typing.get_args(getattr(syntax, "Term", None)):
            for attr, cell in (("__eq__", self._eq), ("__hash__", self._hash)):
                original = getattr(cls, attr)
                if original is None:
                    continue

                def counted(*args, _original=original, _cell=cell):
                    _cell[0] += 1
                    return _original(*args)

                setattr(cls, attr, counted)

    # -- results ----------------------------------------------------------

    def _layer_self_ms(self, layer: str) -> float:
        return 1e3 * sum(t for name, t in self.self_time.items()
                         if name.startswith(layer + "."))

    def _layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if name.startswith(layer + "."))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: (value, unit) by name. `_ms` values are self
        time, except `enum_ms` and `plug_eval_ms`, which include children."""
        calls, counts = self.calls, self.counts

        def self_ms(name):
            return 1e3 * self.self_time[name]

        nodes = counts["explore.nodes"]
        hits = counts["explore.non_normal"] - nodes
        explore_combines = self.by_parent[
            ("distribution.combine", "explore.Explorer.normal_form_distributions")]
        # The explorer formats each distinct result of a node once, to sort them.
        explore_kept = self.by_parent[
            ("distribution.format_distribution",
             "explore.Explorer.normal_form_distributions")]
        candidates = self.by_parent[("typecheck.typecheck",
                                     "equivalence.enum_normal_closed")]
        plug_eval = sum(t for (name, parent), t in self.inclusive_by_parent.items()
                        if parent == "equivalence.comp_equiv"
                        and name.startswith("explore."))
        count, ms, ratio = "count", "ms", "ratio"
        return {
            "syntax.parse_calls": (calls["syntax.parse"], count),
            "syntax.parse_ms": (self_ms("syntax.parse"), ms),
            "syntax.pretty_calls": (calls["syntax.pretty"], count),
            "syntax.pretty_ms": (self_ms("syntax.pretty"), ms),
            "syntax.instantiate_ms": (self_ms("syntax.instantiate"), ms),
            "syntax.term_eq_calls": (self._eq[0], count),
            "syntax.term_hash_calls": (self._hash[0], count),
            "typecheck.calls": (self._layer_calls("typecheck"), count),
            "typecheck.ms": (self._layer_self_ms("typecheck"), ms),
            "rewrite.redexes_calls": (calls["rewrite.redexes"], count),
            "rewrite.redexes_ms": (self_ms("rewrite.redexes"), ms),
            "rewrite.step_at_calls": (calls["rewrite.step_at"], count),
            "rewrite.step_at_ms": (self_ms("rewrite.step_at"), ms),
            "rewrite.is_normal_calls": (calls["rewrite.is_normal"], count),
            "rewrite.is_normal_ms": (self_ms("rewrite.is_normal"), ms),
            "rewrite.select_redex_ms": (self_ms("rewrite.select_redex"), ms),
            "distribution.constructed": (calls["distribution.construct"], count),
            "distribution.construct_ms": (self_ms("distribution.construct"), ms),
            "distribution.combine_calls": (calls["distribution.combine"], count),
            "distribution.combine_ms": (self_ms("distribution.combine"), ms),
            "distribution.lift_step_ms": (self_ms("distribution.lift_step"), ms),
            "distribution.format_calls": (calls["distribution.format_distribution"], count),
            "distribution.format_ms": (self_ms("distribution.format_distribution"), ms),
            "explore.nodes": (nodes, count),
            "explore.memo_hits": (hits, count),
            "explore.memo_hit_ratio": (hits / (hits + nodes) if nodes else 0.0, ratio),
            "explore.endpoints": (counts["explore.endpoints"], count),
            "explore.combine_yield": (explore_kept / explore_combines
                                      if explore_combines else 0.0, ratio),
            "explore.ms": (self._layer_self_ms("explore"), ms),
            "explore.strategy_steps": (counts["explore.strategy_steps"], count),
            "equivalence.contexts": (counts["equivalence.contexts"], count),
            "equivalence.distinct_context_results":
                (counts["equivalence.distinct_context_results"], count),
            "equivalence.enum_ms": (1e3 * self.inclusive["equivalence.enum_contexts"], ms),
            "equivalence.enum_yield": (counts["equivalence.enum_kept"] / candidates
                                       if candidates else 0.0, ratio),
            "equivalence.plug_calls": (calls["equivalence.plug"], count),
            "equivalence.plug_eval_ms": (1e3 * plug_eval, ms),
            "cli.main_ms": (self._layer_self_ms("cli"), ms),
            "cli.output_bytes": (counts["cli.output_bytes"], "bytes"),
        }

    def spans(self) -> list[dict]:
        return [{"span": name, "calls": self.calls[name],
                 "inclusive_ms": 1e3 * self.inclusive[name],
                 "self_ms": 1e3 * self.self_time[name]}
                for name in sorted(self.calls)]
