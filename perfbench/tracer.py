"""Outside-in tracing of scc-preserve: wrap public functions, count, time.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces each
traced function in every namespace where a caller looks it up: the defining
module, every module that imported it by name, the package root, and, for
methods, the class.  Two bindings get a wrapper of their own so the caller
shows in the name: ``sscp`` and ``important_cut_container`` as looked up by
``fpt`` (the FptCache recomputations).

Calls above the kernel are *spans*, kept in memory as
``[name, parent_index, start, end]``.  The kernel (bitmask reachability,
oracle states, graph surgery, residual-network runs) is called millions of
times, so it keeps only a call count and summed time per name.  Every call,
span or kernel, belongs to a layer (named after its module); time is charged
to the layer of the innermost active call, which makes a layer's self time
its span time minus the time of child calls in other layers.  A layer's busy
time is the time during which at least one of its calls is active.

A tracer lives for one traced pass: install it on a freshly imported
package and drop the package afterwards.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer, defining module, attribute, metric name, kind); kind is "span",
# "kernel" or "gen" (a generator whose yielded items are counted).
TARGETS = (
    ("digraph", "digraph", "reach_mask", "digraph.reach_mask", "kernel"),
    ("digraph", "digraph", "scc_masks", "digraph.scc_masks", "kernel"),
    ("digraph", "digraph", "closure_masks", "digraph.closure_masks", "kernel"),
    ("digraph", "digraph", "DiGraph.induced", "digraph.induced", "kernel"),
    ("digraph", "digraph", "DiGraph.restrict_to", "digraph.restrict_to", "kernel"),
    ("digraph", "digraph", "DiGraph.reverse", "digraph.reverse", "kernel"),
    ("variants", "variants", "ConnectivityOracle.state", "variants.state", "kernel"),
    ("variants", "variants", "ConnectivityOracle.changed", "variants.changed", "kernel"),
    ("variants", "variants", "fault_sets_colex", "variants.fault_sets", "gen"),
    ("preservers", "preservers", "greedy_preserver", "preservers.greedy", "span"),
    ("preservers", "preservers", "hierarchy_preserver", "preservers.hierarchy", "span"),
    ("preservers", "preservers", "sscp", "preservers.sscp", "span"),
    ("fpt", "fpt", "fpt_preserver", "fpt.preserver", "span"),
    ("fpt", "fpt", "FptCache.sscp_for", "fpt.sscp_for", "span"),
    ("fpt", "fpt", "FptCache.container_side", "fpt.container_side", "span"),
    ("expander", "expander", "build_hierarchy", "expander.build_hierarchy", "span"),
    ("expander", "expander", "sparsest_cut_wrt", "expander.sparsest_cut", "span"),
    ("expander", "expander", "is_unbreakable", "expander.is_unbreakable", "span"),
    ("flowcut", "flowcut", "flow_value", "flowcut.flow_value", "span"),
    ("flowcut", "flowcut", "max_flow", "flowcut.max_flow", "span"),
    ("flowcut", "flowcut", "farthest_min_cut", "flowcut.farthest_min_cut", "span"),
    ("flowcut", "flowcut", "symmetric_connectivity", "flowcut.symmetric", "span"),
    ("flowcut", "flowcut", "_Residual.run", "flowcut.residual_run", "kernel"),
    ("impcut", "impcut", "important_cut_container", "impcut.container", "span"),
    ("kconn", "kconn", "greedy_kconn_preserver", "kconn.greedy", "span"),
    ("kconn", "kconn", "demand_pairs", "kconn.demand_pairs", "span"),
    ("kconn", "kconn", "unbreakability_decomposition", "kconn.decomposition", "span"),
    ("verify", "verify", "verify_ft", "verify.verify_ft", "span"),
    ("verify", "verify", "enumerate_critical_edges", "verify.critical", "span"),
    ("verify", "verify", "verify_kconn", "verify.verify_kconn", "span"),
    ("cli", "cli", "main", "cli.main", "span"),
    ("families", "families", "gen_random", "families.gen", "span"),
    ("families", "families", "gen_baswana_tree", "families.gen", "span"),
    ("families", "families", "gen_st_lower", "families.gen", "span"),
    ("families", "families", "gen_bounded_degree_lower", "families.gen", "span"),
    ("families", "families", "gen_color_fault_lower", "families.gen", "span"),
)

# Bindings that get their own span name: (looking-up module, attribute) -> name.
SITES = {
    ("fpt", "sscp"): "fpt.sscp",
    ("fpt", "important_cut_container"): "fpt.important_cut_container",
}

# Span names counted together; a call nested directly in a call of the same
# group (impcut's in-direction recursion) is not counted again.
GROUPS = {
    "impcut.containers": ("impcut.container", "fpt.important_cut_container"),
}

SURGERY = ("digraph.induced", "digraph.restrict_to", "digraph.reverse")
VERIFY_SCANS = ("verify.verify_ft", "verify.critical")
PKG = "sccpreserve"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.kernel: dict[str, list] = {}  # name -> [calls, seconds]
        self.items: Counter = Counter()  # (generator, owning span) -> items
        self.stats: Counter = Counter()  # sums taken from returned results
        self.self_s: defaultdict = defaultdict(float)  # exclusive time per layer
        self.busy_s: defaultdict = defaultdict(float)  # time any call of layer active
        self._depth: Counter = Counter()
        self._layers: list[str] = []  # layers of the active calls, innermost last
        self._open: list[int] = []  # indices of the active spans
        self._mark = [0.0]  # time of the last enter/exit event

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported package."""
        modules = {
            name[len(PKG) + 1:] if name != PKG else "": mod
            for name, mod in list(sys.modules.items())
            if name == PKG or name.startswith(PKG + ".")
        }
        for layer, home, attr, name, kind in TARGETS:
            owner = modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(kind, layer, name, original))
                continue
            original = getattr(owner, attr)
            generic = self._wrap(kind, layer, name, original)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    site = SITES.get((mod_name, key))
                    if site is None:
                        setattr(mod, key, generic)
                    else:
                        setattr(mod, key, self._wrap(kind, layer, site, original))

    def _wrap(self, kind, layer, name, fn):
        if kind == "span":
            on_result = RESULT_HOOKS.get(name)
            return self._span(layer, name, fn, on_result)
        if kind == "kernel":
            return self._kernel(layer, name, fn)
        return self._gen(name, fn)

    # -- wrappers ----------------------------------------------------------

    def _enter(self, layer: str) -> tuple[float, bool]:
        now = perf_counter()
        layers = self._layers
        if layers:
            self.self_s[layers[-1]] += now - self._mark[0]
        self._mark[0] = now
        layers.append(layer)
        outer = self._depth[layer] == 0
        self._depth[layer] += 1
        return now, outer

    def _exit(self, layer: str, start: float, outer: bool) -> float:
        end = perf_counter()
        self.self_s[layer] += end - self._mark[0]
        self._mark[0] = end
        self._layers.pop()
        self._depth[layer] -= 1
        if outer:
            self.busy_s[layer] += end - start
        return end

    def _span(self, layer, name, fn, on_result):
        spans, open_spans = self.spans, self._open
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            record = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(record)
            start, outer = enter(layer)
            record[2] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = leave(layer, start, outer)
                open_spans.pop()
            if on_result is not None:
                on_result(self.stats, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, layer, name, fn):
        stat = self.kernel.setdefault(name, [0, 0.0])
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            start, outer = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end = leave(layer, start, outer)
                stat[0] += 1
                stat[1] += end - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _gen(self, name, fn):
        items, spans, open_spans = self.items, self.spans, self._open

        def wrapper(*args, **kwargs):
            key = (name, spans[open_spans[-1]][0] if open_spans else None)
            for item in fn(*args, **kwargs):
                items[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ------------------------------------------------------------

    def _span_totals(self) -> dict[str, list]:
        """Span name or group -> [calls, summed seconds].

        A span nested directly in a span of the same name (or group) is
        recursion and is not counted again.
        """
        group_of = {member: group for group, members in GROUPS.items() for member in members}
        totals: defaultdict = defaultdict(lambda: [0, 0.0])
        spans = self.spans
        for name, parent, start, end in spans:
            parent_name = spans[parent][0] if parent >= 0 else None
            keys = [name] if parent_name != name else []
            group = group_of.get(name)
            if group is not None and group_of.get(parent_name) != group:
                keys.append(group)
            for key in keys:
                total = totals[key]
                total[0] += 1
                total[1] += end - start
        return totals

    def kernel_summary(self) -> str:
        """Calls and summed seconds of every kernel wrapper, for the report."""
        return ", ".join(
            f"{name} {calls} calls {seconds:.3f} s"
            for name, (calls, seconds) in sorted(self.kernel.items())
        )

    def metrics(self, traced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``.

        Times are reported as shares of ``traced_s``, the wall time of the
        traced section: tracing inflates absolute times, and shares do not
        swing with the speed of a shared machine.
        """
        out: dict[str, tuple[float, str]] = {}

        def count(name, value):
            out[name] = (int(value), "count")

        def share(name, value):
            out[name] = (value / traced_s, "frac")

        def frac(name, num, den):
            out[name] = (num / den if den else 0.0, "frac")

        totals = self._span_totals()

        def span(name):
            calls, seconds = totals.get(name, (0, 0.0))
            return calls, seconds

        def kernel_calls(name):
            return self.kernel.get(name, [0, 0.0])[0]

        for short in ("reach_mask", "scc_masks", "closure_masks"):
            count(f"digraph.{short}.calls", kernel_calls(f"digraph.{short}"))
        count("digraph.surgery.calls", sum(kernel_calls(n) for n in SURGERY))

        count("variants.state.calls", kernel_calls("variants.state"))
        count("variants.changed.calls", kernel_calls("variants.changed"))
        count("variants.fault_sets", sum(
            n for (gen, _), n in self.items.items() if gen == "variants.fault_sets"
        ))
        share("variants.busy_frac", self.busy_s["variants"])

        calls, busy = span("preservers.greedy")
        count("preservers.greedy.calls", calls)
        share("preservers.greedy.busy_frac", busy)
        count("preservers.greedy.oracle_calls", self.stats["greedy.oracle_calls"])
        frac("preservers.greedy.removed_frac", self.stats["greedy.removed"],
             self.stats["greedy.removal_attempts"])
        share("preservers.hierarchy.busy_frac", span("preservers.hierarchy")[1])

        share("fpt.preserver.busy_frac", span("fpt.preserver")[1])
        count("fpt.iterations", self.stats["fpt.iterations"])
        lookups = span("fpt.sscp_for")[0]
        recomputed, busy = span("fpt.sscp")
        count("fpt.sscp.lookups", lookups)
        count("fpt.sscp.recomputed", recomputed)
        frac("fpt.sscp.hit_frac", lookups - recomputed, lookups)
        share("fpt.sscp.busy_frac", busy)
        lookups = span("fpt.container_side")[0]
        recomputed = span("fpt.important_cut_container")[0]
        count("fpt.container_side.lookups", lookups)
        count("fpt.container_side.recomputed", recomputed)
        frac("fpt.container_side.hit_frac", lookups - recomputed, lookups)
        count("fpt.reseeds", self.stats["fpt.reseeds"])

        for short, name in (("build_hierarchy", "expander.build_hierarchy"),
                            ("sparsest_cut", "expander.sparsest_cut"),
                            ("is_unbreakable", "expander.is_unbreakable")):
            calls, busy = span(name)
            count(f"expander.{short}.calls", calls)
            share(f"expander.{short}.busy_frac", busy)
        frac("expander.exact_frac", self.stats["hierarchy.exact"],
             self.stats["hierarchy.built"])

        for short in ("flow_value", "max_flow", "farthest_min_cut"):
            count(f"flowcut.{short}.calls", span(f"flowcut.{short}")[0])
        share("flowcut.busy_frac", self.busy_s["flowcut"])
        share("flowcut.self_frac", self.self_s["flowcut"])

        calls, busy = span("impcut.containers")
        count("impcut.container.calls", calls)
        share("impcut.container.busy_frac", busy)

        share("kconn.greedy.busy_frac", span("kconn.greedy")[1])
        frac("kconn.greedy.removed_frac", self.stats["kconn.removed"],
             self.stats["kconn.removal_attempts"])
        count("kconn.demand_pairs.calls", span("kconn.demand_pairs")[0])
        share("kconn.decomposition.busy_frac", span("kconn.decomposition")[1])

        calls, busy = span("verify.verify_ft")
        count("verify.verify_ft.calls", calls)
        share("verify.verify_ft.busy_frac", busy)
        count("verify.fault_sets_scanned", sum(
            n for (gen, owner), n in self.items.items()
            if gen == "variants.fault_sets" and owner in VERIFY_SCANS
        ))
        share("verify.critical.busy_frac", span("verify.critical")[1])
        share("verify.verify_kconn.busy_frac", span("verify.verify_kconn")[1])

        count("cli.commands", span("cli.main")[0])
        share("cli.self_frac", self.self_s["cli"])

        share("families.gen.busy_frac", self.busy_s["families"])
        return out


def _greedy_result(stats, result):
    stats["greedy.oracle_calls"] += result.stats["oracle_calls"]
    stats["greedy.removal_attempts"] += result.stats["removal_attempts"]
    stats["greedy.removed"] += result.stats["input_edges"] - result.stats["output_edges"]


def _kconn_result(stats, result):
    stats["kconn.removal_attempts"] += result.stats["removal_attempts"]
    stats["kconn.removed"] += result.stats["input_edges"] - result.stats["output_edges"]


def _fpt_result(stats, result):
    stats["fpt.iterations"] += result.stats["iterations"]


def _hierarchy_result(stats, result):
    stats["hierarchy.built"] += 1
    stats["hierarchy.exact"] += bool(result.exact)


RESULT_HOOKS = {
    "preservers.greedy": _greedy_result,
    "kconn.greedy": _kconn_result,
    "fpt.preserver": _fpt_result,
    "expander.build_hierarchy": _hierarchy_result,
}
