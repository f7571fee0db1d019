"""Preserver variants and the shared fault-enumeration kernel.

A k-FT preserver H of G keeps, for every fault set F of at most k edges,
the strongly connected components of G - F.  A :class:`VariantSpec` names
the part of that condition a preserver must keep: ``all_pairs``,
``sourcewise(U)``, ``single_source(s)``, ``st(s, t)`` or ``global``
(whole-graph strong connectivity).  :class:`ConnectivityOracle` reads every
spec the same way, as roots and protected masks: each root must stay
strongly connected with the vertices of its protected mask.  All-pairs
roots every vertex, sourcewise roots each source, single-source and s-t
root s (s-t protects only t), and global roots vertex 0 with one extra
flag, since its only protected fact is that root 0's component is all of V.
The same oracle drives both edge-criticality checks (greedy constructions)
and exhaustive verification.

Every check runs over a fixed active edge set while the fault changes:
the active set changes at most m times per scan, the fault once per fault
set.  So the oracle binds an active set once into an :class:`EdgeView`
(its adjacency masks, plus how to drop each edge), and a state under a
fault copies those masks and clears at most |F| bits.  On top of the view,
two exact shortcuts skip work.  :meth:`ConnectivityOracle.changed` finds
the one component that can break and tests the removed edge as a strong
bridge of it: one search from the edge's tail, stopped at its head, in
place of a new state.  :meth:`ConnectivityOracle.first_counterexample`
computes the subgraph's state first and skips the graph's when nothing can
be lost.

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
from typing import NamedTuple

from .digraph import DiGraph, reach_mask, reaches
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


class EdgeView(NamedTuple):
    """The masks of one active edge set, ready to lose a fault's edges.

    ``out``/``inn`` are the out- and in-neighbour masks of g[active] with
    self-loops skipped; ``drop`` maps each active non-loop edge id to
    ``(tail, head, twins)``, where ``twins`` are the other active edges
    from the same tail to the same head.
    """

    out: tuple
    inn: tuple
    drop: dict


class ConnectivityOracle:
    """Connectivity of an active edge set minus a fault, for one variant.

    ``__init__`` turns the spec into data, and every other method is one
    code path over it:

    * ``roots``: every vertex for all-pairs, the sorted sources for
      sourcewise, s for single-source and s-t, vertex 0 for global (no root
      when n = 0);
    * ``protected``: one mask per root, the vertices that must stay strongly
      connected with it: every other vertex, or only t for s-t;
    * ``whole``: set for global, whose single protected fact is that root
      0's component is all of V.

    An active edge set is bound once, with :meth:`bind`, into an
    :class:`EdgeView`; ``state(view, fault)`` is then the tuple of the
    roots' SCC masks in g[active] - fault.  It copies the view's two masks
    and clears the bits of the faulted edges, so a state costs O(n + |F|)
    before the reachability search, not a walk over all m edges.  States
    of subgraphs only ever lose connectivity: each mask can only shrink.
    """

    def __init__(self, g: DiGraph, spec: VariantSpec):
        spec.validate(g)
        self.g = g
        self.n = n = g.n
        self.full = (1 << n) - 1
        if spec.kind == ALL_PAIRS:
            roots = tuple(range(n))
        elif spec.kind == SOURCEWISE:
            roots = tuple(sorted(spec.sources))
        elif spec.kind == GLOBAL:
            roots = (0,) if n else ()
        else:
            roots = (spec.s,)
        self.roots = roots
        self.root_bits = tuple(1 << r for r in roots)
        if spec.kind == ST:
            self.protected = (1 << spec.t,)
        else:
            self.protected = tuple(self.full & ~bit for bit in self.root_bits)
        self.whole = spec.kind == GLOBAL

    def bind(self, active) -> EdgeView:
        """The :class:`EdgeView` of g[active]; ids outside g are ignored.

        Parallel edges share one mask bit, so an edge may clear its bit only
        when every active twin is faulted too: the pair (tail, head) stays
        adjacent in g[active] - F while any of its active edges survives.
        """
        n = self.n
        out = [0] * n
        inn = [0] * n
        twins: dict[tuple, list] = {}
        for e in self.g.edges:
            if e.id in active and e.tail != e.head:
                out[e.tail] |= 1 << e.head
                inn[e.head] |= 1 << e.tail
                twins.setdefault((e.tail, e.head), []).append(e.id)
        drop = {}
        for (tail, head), eids in twins.items():
            for eid in eids:
                drop[eid] = (tail, head, tuple(t for t in eids if t != eid))
        return EdgeView(tuple(out), tuple(inn), drop)

    def _masks(self, view: EdgeView, fault):
        """Out- and in-masks of the view minus ``fault`` (any id container)."""
        out = list(view.out)
        inn = list(view.inn)
        drop = view.drop
        for eid in fault:
            entry = drop.get(eid)
            if entry is None:
                continue
            tail, head, twins = entry
            if not twins or all(t in fault for t in twins):
                out[tail] &= ~(1 << head)
                inn[head] &= ~(1 << tail)
        return out, inn

    def state(self, view: EdgeView, fault=()):
        """The roots' SCC masks, each the meet of out-reach and in-reach.

        Strong connectivity is an equivalence, so a root that lies in an
        earlier root's component has that same component and reuses it.
        """
        out, inn = self._masks(view, fault)
        comps = []
        for bit in self.root_bits:
            for comp in comps:
                if comp & bit:
                    break
            else:
                comp = reach_mask(out, bit) & reach_mask(inn, bit)
            comps.append(comp)
        return tuple(comps)

    def changed(self, base_state, view: EdgeView, fault, removed: int) -> bool:
        """Does removing ``removed`` on top of ``fault`` break a protected fact?

        ``base_state`` is ``state(view, fault)``; the answer equals
        ``breaks(base_state, state(view, fault + (removed,)))``.  It is found
        by one search from the edge's tail, plus a full recomputation of one
        component only for s-t.

        Prune: removing an edge can shrink a root's component only if both
        of its ends are in that component.  A vertex v leaves the component
        of root r only if every closed walk through r and v uses the edge;
        such a walk exists, and every vertex on it, both ends of the edge
        included, is in the component.  So unless some root's component C
        holds both ends and a protected vertex, nothing breaks; an s-t pair
        that is already broken answers at once.  Under global, nothing
        breaks unless the baseline component is all of V.  An edge outside
        the view (inactive, or a self-loop) or with an active twin outside
        the fault takes no adjacency away, and nothing breaks either.

        Strong-bridge test (Italiano, Laura and Santaroni): C is strongly
        connected in active - F and holds both ends of e = (u, v).  If u
        still reaches v in active - F - e, every walk through e detours
        along that path, so no two vertices drop apart anywhere.  If not, u
        and v drop apart, and C splits.  So one search from u, stopped when
        it meets v, decides whether C survives.

        One component: components are disjoint, so C is the only one that
        holds both ends, and the components of roots outside C do not
        change.  When C splits, each root r in C keeps only its own part and
        loses a vertex of C - r.  When every vertex of C but r is protected
        (all-pairs, sourcewise, single-source, global with C = V, and s-t
        with C = {s, t}), the split breaks a fact, and the first root whose
        component qualifies stands for all of them.  Otherwise (s-t with a
        larger C), C may split with s and t on the same side, so s's new
        out-reach and in-reach are checked against t, the in-reach skipped
        when the out-reach already misses it.
        """
        drop = view.drop
        entry = drop.get(removed)
        if entry is None:
            return False
        tail, head, twins = entry
        if self.whole and base_state[0] != self.full:
            return False
        both = (1 << tail) | (1 << head)
        for comp, protected, bit in zip(base_state, self.protected, self.root_bits):
            if comp & both == both and comp & protected:
                break
        else:
            return False
        for twin in twins:
            if twin not in fault:
                return False
        out = list(view.out)  # the out-masks of _masks, without the in-masks
        for eid in fault:
            entry = drop.get(eid)
            if entry is None:
                continue
            f_tail, f_head, f_twins = entry
            if not f_twins or all(t in fault for t in f_twins):
                out[f_tail] &= ~(1 << f_head)
        out[tail] &= ~(1 << head)
        if reaches(out, 1 << tail, 1 << head):
            return False
        at_risk = comp & protected
        if at_risk == comp & ~bit:
            return True
        out, inn = self._masks(view, (*fault, removed))
        if at_risk & ~reach_mask(out, bit):
            return True
        return bool(at_risk & ~reach_mask(inn, bit))

    # -- verification helpers (graph vs. subgraph under the same faults) --

    def breaks(self, state_g, state_h) -> bool:
        """Whether H-F lost a protected connectivity fact that G-F still has."""
        if state_g == state_h:
            return False
        if self.whole:
            return state_g[0] == self.full
        for comp_g, comp_h, protected in zip(state_g, state_h, self.protected):
            if comp_g & ~comp_h & protected:
                return True
        return False

    def first_broken_pair(self, state_g, state_h):
        """Row-major first pair strongly connected in G-F but not in H-F.

        The pair is (root, lowest protected vertex the root lost); None
        under global, which protects no single pair.
        """
        if self.whole:
            return None
        for root, comp_g, comp_h, protected in zip(
            self.roots, state_g, state_h, self.protected
        ):
            lost = comp_g & ~comp_h & protected
            if lost:
                return (root, _low_bit(lost))
        return None

    def first_counterexample(self, kept, faults, edges_of=None):
        """First item of ``faults`` under which g[kept] loses a protected fact.

        An item is a fault set of edge ids or, with ``edges_of``, a label
        (such as a color family) that ``edges_of`` maps to one.  The item F
        is a counterexample when H - F breaks a fact that g - F still has.
        Returns ``(item, pair)`` with the row-major first broken pair (None
        for the global variant), or None when every item passes.

        g and H = g[kept] are bound once.  H - F is computed first: H - F is
        a subgraph of g - F, so each root's component in g - F contains its
        component in H - F.  When every root's H - F component already
        covers its protected mask, no fact can be lost and the state of
        g - F is skipped.
        """
        view_g = self.bind(self.g.edge_ids())
        view_h = self.bind(kept)
        protected = self.protected
        for item in faults:
            fault = item if edges_of is None else edges_of(item)
            state_h = self.state(view_h, fault)
            if all(comp & mask == mask for comp, mask in zip(state_h, protected)):
                continue
            state_g = self.state(view_g, fault)
            if self.breaks(state_g, state_h):
                return item, self.first_broken_pair(state_g, state_h)
        return None


class CriticalityScan:
    """Criticality of single edges within a shrinking active edge set.

    An active edge e is critical when, for some fault set F of at most k
    other active edges, dropping e from ``active - F`` breaks a protected
    pair.  Self-loops never carry connectivity and are never critical.  The
    active set is bound once into an edge view and bound again by
    :meth:`remove`.  The baseline state of ``active - F`` does not depend
    on e, so it is cached per F and shared by every edge.

    The cached states outlive :meth:`remove`, whose precondition is that
    the removed edge e was proved non-critical (``first_witness(e)`` found
    no witness; ``greedy_preserver`` is the only caller).  Lemma: the
    answers of :meth:`first_witness` do not change.  For every F <= active
    - e with |F| <= k, dropping e from active - F breaks no protected fact.
    Outside s-t, ``changed`` reads the cached state only to select the
    component C that holds the removed edge's ends; the tail-to-head
    search runs on the current view.  All-pairs, sourcewise and
    single-source protect V - r for each root r, so each root's component
    in active - F - e equals the cached one and the same C is selected.
    For global, the cached root component is V exactly when the fresh one
    is.  For s-t, the cached component of s may be a superset of the fresh
    one, but it holds t exactly when the fresh one does, and when it is
    {s, t} so is the fresh one; ``changed`` then prunes less often,
    recomputes the new reach in full when the search fails and gives the
    same answer.  By induction this holds across any number of removals,
    and fault sets that contain a removed edge are never enumerated again.
    """

    def __init__(self, oracle: ConnectivityOracle, active, k: int):
        self.oracle = oracle
        self.active = set(active)
        self.view = oracle.bind(self.active)
        self.k = k
        self.base_states: dict[tuple, object] = {}
        self.oracle_calls = 0  # changed() evaluations

    def _base(self, fault: tuple):
        state = self.base_states.get(fault)
        if state is None:
            state = self.oracle.state(self.view, fault)
            self.base_states[fault] = state
        return state

    def first_witness(self, eid: int) -> tuple | None:
        """First fault set (colex order) proving ``eid`` critical, or None."""
        edge = self.oracle.g.edge(eid)
        if edge.tail == edge.head:
            return None
        for fault in fault_sets_colex(self.active - {eid}, self.k):
            self.oracle_calls += 1
            if self.oracle.changed(self._base(fault), self.view, fault, eid):
                return fault
        return None

    def broken_pair(self, fault: tuple, eid: int):
        """The first pair that dropping ``eid`` on top of ``fault`` breaks.

        None for the global variant, which protects no single pair.
        """
        after = self.oracle.state(self.view, (*fault, eid))
        return self.oracle.first_broken_pair(self._base(fault), after)

    def remove(self, eid: int) -> None:
        """Drop an edge proved non-critical; cached states stay valid."""
        self.active.discard(eid)
        self.view = self.oracle.bind(self.active)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
