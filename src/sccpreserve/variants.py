"""Preserver variants and the shared fault-enumeration kernel.

A :class:`VariantSpec` names which pairs a preserver must protect:
``st(s, t)``, ``single_source(s)``, ``sourcewise(U)``, ``all_pairs`` or
``global`` (whole-graph strong connectivity).  The same spec drives both
edge-criticality checks (greedy constructions) and exhaustive verification,
so the per-variant connectivity state lives here.

Fault sets are enumerated in colexicographic edge-id order, which equals
ascending order of the subset bitmask: the empty set first, then subsets by
largest member.  Every "first witness" and "first counterexample" in the
package is defined against this order, and both are found here, each by
one loop over fault sets: :class:`CriticalityScan` (does dropping one edge
break a protected pair?) and :meth:`ConnectivityOracle.first_counterexample`
(does a subgraph lose a protected pair that the graph keeps?).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DiGraph, reach_mask, scc_masks, set_to_mask
from .errors import InputError

ALL_PAIRS = "all_pairs"
SOURCEWISE = "sourcewise"
SINGLE_SOURCE = "single_source"
ST = "st"
GLOBAL = "global"

_KINDS = (ALL_PAIRS, SOURCEWISE, SINGLE_SOURCE, ST, GLOBAL)


@dataclass(frozen=True)
class VariantSpec:
    kind: str
    s: int | None = None
    t: int | None = None
    sources: frozenset | None = None

    @staticmethod
    def all_pairs() -> "VariantSpec":
        return VariantSpec(ALL_PAIRS)

    @staticmethod
    def single_source(s: int) -> "VariantSpec":
        return VariantSpec(SINGLE_SOURCE, s=s)

    @staticmethod
    def st(s: int, t: int) -> "VariantSpec":
        if s == t:
            raise InputError("s and t must differ")
        return VariantSpec(ST, s=s, t=t)

    @staticmethod
    def sourcewise(sources) -> "VariantSpec":
        return VariantSpec(SOURCEWISE, sources=frozenset(sources))

    @staticmethod
    def global_() -> "VariantSpec":
        return VariantSpec(GLOBAL)

    def validate(self, g: DiGraph) -> None:
        if self.kind not in _KINDS:
            raise InputError(f"unknown variant kind {self.kind!r}")
        if self.kind in (SINGLE_SOURCE, ST):
            g._check_vertex(self.s)
        if self.kind == ST:
            g._check_vertex(self.t)
        if self.kind == SOURCEWISE:
            if self.sources is None:
                raise InputError("sourcewise spec needs a source set")
            for v in self.sources:
                g._check_vertex(v)

    def describe(self) -> dict:
        out = {"variant": self.kind}
        if self.s is not None:
            out["s"] = self.s
        if self.t is not None:
            out["t"] = self.t
        if self.sources is not None:
            out["sources"] = sorted(self.sources)
        return out


def fault_sets_colex(edge_ids, k: int):
    """All subsets of ``edge_ids`` of size <= k, in colex (bitmask) order."""
    ids = tuple(sorted(edge_ids))

    def rec(limit: int, budget: int):
        yield ()
        if budget == 0:
            return
        for j in range(limit):
            for rest in rec(j, budget - 1):
                yield rest + (ids[j],)

    return rec(len(ids), k)


class ConnectivityOracle:
    """Variant-aware connectivity snapshots of g minus a banned edge set.

    ``state(active, fault)`` summarizes exactly the connectivity facts the
    variant cares about; ``changed`` asks whether dropping one more edge
    breaks a pair that the baseline state still connects.  States of
    subgraphs only ever lose connectivity, so "some protected pair broke"
    is the same as "the state differs".
    """

    def __init__(self, g: DiGraph, spec: VariantSpec):
        spec.validate(g)
        self.g = g
        self.spec = spec
        self.n = g.n
        self.edges = tuple((e.id, e.tail, e.head) for e in g.edges)
        self.full = (1 << g.n) - 1
        if spec.kind == SOURCEWISE:
            self.source_list = tuple(sorted(spec.sources))
            self.source_mask = set_to_mask(spec.sources)

    def _adj(self, active, fault):
        n = self.n
        adj = [0] * n
        inn = [0] * n
        for eid, tail, head in self.edges:
            if eid in active and eid not in fault:
                adj[tail] |= 1 << head
                inn[head] |= 1 << tail
        return adj, inn

    def state(self, active, fault=frozenset()):
        kind = self.spec.kind
        adj, inn = self._adj(active, fault)
        if kind == ALL_PAIRS:
            return tuple(scc_masks(adj))
        if kind == SINGLE_SOURCE:
            s = 1 << self.spec.s
            return (reach_mask(adj, s), reach_mask(inn, s))
        if kind == ST:
            s = 1 << self.spec.s
            return (reach_mask(adj, s), reach_mask(inn, s))
        if kind == GLOBAL:
            if self.n <= 1:
                return (self.full, self.full)
            return (reach_mask(adj, 1), reach_mask(inn, 1))
        if kind == SOURCEWISE:
            return tuple(
                (reach_mask(adj, 1 << u), reach_mask(inn, 1 << u))
                for u in self.source_list
            )
        raise AssertionError(kind)

    def connected(self, state) -> bool:
        """Whether the variant's protected pairs are intact in this state.

        Only meaningful for ``st`` (the pair is connected) and ``global``
        (the graph is strongly connected); other kinds are partition-valued.
        """
        kind = self.spec.kind
        if kind == ST:
            rs, rts = state
            t = 1 << self.spec.t
            return bool(rs & t) and bool(rts & t)
        if kind == GLOBAL:
            rs, rts = state
            return rs == self.full and rts == self.full
        raise InputError(f"connected() undefined for {kind}")

    def changed(self, base_state, active, fault, removed: int) -> bool:
        """Does removing ``removed`` on top of ``fault`` break a protected pair?"""
        kind = self.spec.kind
        e = self.g.edge(removed)
        tail_bit = 1 << e.tail
        head_bit = 1 << e.head
        if kind == SINGLE_SOURCE:
            rs, rts = base_state
            if not (rs & tail_bit) and not (rts & head_bit):
                return False
            new = self.state(active, _with(fault, removed))
            return (rs & rts) != (new[0] & new[1])
        if kind == ST:
            rs, rts = base_state
            t = 1 << self.spec.t
            if not ((rs & t) and (rts & t)):
                return False  # pair already broken in the baseline
            if not (rs & tail_bit) and not (rts & head_bit):
                return False
            new = self.state(active, _with(fault, removed))
            return not ((new[0] & t) and (new[1] & t))
        if kind == GLOBAL:
            if not self.connected(base_state):
                return False
            new = self.state(active, _with(fault, removed))
            return not self.connected(new)
        if kind == SOURCEWISE:
            touched = any(
                (rs & tail_bit) or (rts & head_bit) for rs, rts in base_state
            )
            if not touched:
                return False
            new = self.state(active, _with(fault, removed))
            for (rs, rts), (nrs, nrts) in zip(base_state, new):
                if (rs & rts) != (nrs & nrts):
                    return True
            return False
        # all_pairs
        new = self.state(active, _with(fault, removed))
        return base_state != new

    # -- verification helpers (graph vs. subgraph under the same faults) --

    def first_broken_pair(self, state_g, state_h):
        """Row-major first pair strongly connected in G-F but not in H-F."""
        kind = self.spec.kind
        if kind == ALL_PAIRS:
            for s in range(self.n):
                diff = state_g[s] & ~state_h[s] & ~(1 << s)
                if diff:
                    return (s, _low_bit(diff))
            return None
        if kind == SOURCEWISE:
            for idx, u in enumerate(self.source_list):
                rg, rtg = state_g[idx]
                rh, rth = state_h[idx]
                diff = (rg & rtg) & ~(rh & rth) & ~(1 << u)
                if diff:
                    return (u, _low_bit(diff))
            return None
        if kind == SINGLE_SOURCE:
            rg, rtg = state_g
            rh, rth = state_h
            s = self.spec.s
            diff = (rg & rtg) & ~(rh & rth) & ~(1 << s)
            if diff:
                return (s, _low_bit(diff))
            return None
        if kind == ST:
            if self.connected(state_g) and not self.connected(state_h):
                return (self.spec.s, self.spec.t)
            return None
        raise AssertionError(kind)

    def breaks(self, state_g, state_h) -> bool:
        """Whether H-F lost a protected connectivity fact that G-F still has."""
        if self.spec.kind == GLOBAL:
            return self.connected(state_g) and not self.connected(state_h)
        return self.first_broken_pair(state_g, state_h) is not None

    def first_counterexample(self, kept, faults, edges_of=None):
        """First item of ``faults`` under which g[kept] loses a protected fact.

        An item is a fault set of edge ids or, with ``edges_of``, a label
        (such as a color family) that ``edges_of`` maps to one.  The item F
        is a counterexample when H - F breaks a fact that g - F still has.
        Returns ``(item, pair)`` with the row-major first broken pair (None
        for the global variant), or None when every item passes.
        """
        active_g = self.g.edge_ids()
        for item in faults:
            fault = item if edges_of is None else edges_of(item)
            state_g = self.state(active_g, fault)
            state_h = self.state(kept, fault)
            if not self.breaks(state_g, state_h):
                continue
            if self.spec.kind == GLOBAL:
                return item, None
            return item, self.first_broken_pair(state_g, state_h)
        return None


class CriticalityScan:
    """Criticality of single edges within a shrinking active edge set.

    An active edge e is critical when, for some fault set F of at most k
    other active edges, dropping e from ``active - F`` breaks a protected
    pair.  Self-loops never carry connectivity and are never critical.  The
    baseline state of ``active - F`` does not depend on e, so it is cached
    per F and shared by every edge until :meth:`remove` shrinks the set.
    """

    def __init__(self, oracle: ConnectivityOracle, active, k: int):
        self.oracle = oracle
        self.active = set(active)
        self.k = k
        self.base_states: dict[tuple, object] = {}
        self.oracle_calls = 0  # changed() evaluations

    def _base(self, fault: tuple):
        state = self.base_states.get(fault)
        if state is None:
            state = self.oracle.state(self.active, fault)
            self.base_states[fault] = state
        return state

    def first_witness(self, eid: int) -> tuple | None:
        """First fault set (colex order) proving ``eid`` critical, or None."""
        edge = self.oracle.g.edge(eid)
        if edge.tail == edge.head:
            return None
        for fault in fault_sets_colex(self.active - {eid}, self.k):
            self.oracle_calls += 1
            if self.oracle.changed(self._base(fault), self.active, fault, eid):
                return fault
        return None

    def broken_pair(self, fault: tuple, eid: int):
        """The first pair that dropping ``eid`` on top of ``fault`` breaks.

        None for the global variant, which protects no single pair.
        """
        oracle = self.oracle
        if oracle.spec.kind == GLOBAL:
            return None
        after = oracle.state(self.active, _with(fault, eid))
        return oracle.first_broken_pair(self._base(fault), after)

    def remove(self, eid: int) -> None:
        self.active.discard(eid)
        self.base_states.clear()


def _with(fault, extra: int):
    s = set(fault)
    s.add(extra)
    return s


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
