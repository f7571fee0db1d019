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
The same oracle drives edge-criticality checks (greedy constructions),
exhaustive verification, the giant-component sweep of
``expander.giant_component_check`` and the strong fault-model witness checks
of ``verify``: every strong-connectivity question under faults in the
package is a state of a bound view.

Every check runs over a fixed active edge set while the fault changes:
the active set changes at most m times per scan, the fault once per fault
set.  So the oracle binds an active set once into an :class:`EdgeView`
(its adjacency masks, plus how to drop each edge), and a state under a
fault copies those masks and clears at most |F| bits.  On top of the view,
two exact shortcuts skip work.  :meth:`ConnectivityOracle.changed` finds
the one component that can break and tests the removed edge as a strong
bridge of it: one shortest-path search from the edge's tail, stopped at its
head, in place of a new state.  :meth:`ConnectivityOracle.first_counterexample`
computes the subgraph's state first and skips the graph's when nothing can
be lost.

Fault sets are ordered colexicographically by edge id, which equals
ascending order of the subset bitmask: the empty set first, then subsets by
largest member.  Every "first witness" and "first counterexample" in the
package is defined against this order, and both are found here.
:meth:`ConnectivityOracle.first_counterexample` (does a subgraph lose a
protected pair that the graph keeps?) takes one loop over the fault sets
of :func:`fault_sets_colex`.  :class:`CriticalityScan` (does dropping one
edge break a protected pair?) searches them best-first instead: a fault set
that does not break the pair branches only on the hops of the path that
``changed`` found, and the search still meets the colex-first witness
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from . import limits
from .digraph import DiGraph, reach_mask, shortest_path
from .errors import CapabilityError, InputError, require_int

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

    def rec(top: int, budget: int):
        yield ()
        if budget == 0:
            return
        for j in range(top):
            for rest in rec(j, budget - 1):
                yield rest + (ids[j],)

    return rec(len(ids), k)


class EdgeView(NamedTuple):
    """The masks of one active edge set, ready to lose a fault's edges.

    ``out``/``inn`` are the out- and in-neighbour masks of g[active] with
    self-loops skipped.  ``pairs`` maps each (tail, head) of an active
    non-loop edge to its hop: the active edges from that tail to that head,
    as a mask of edge ids (bit i for id i).  ``drop`` maps each active
    non-loop edge id to ``(tail, head, hop)``.
    """

    out: tuple
    inn: tuple
    drop: dict
    pairs: dict


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
      0's component is all of V;
    * ``loose``: set when some root protects less than every other vertex
      (s-t with n > 2).

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
        self.loose = any(
            protected | bit != self.full
            for protected, bit in zip(self.protected, self.root_bits)
        )

    def bind(self, active) -> EdgeView:
        """The :class:`EdgeView` of g[active]; ids outside g are ignored.

        Parallel edges share one mask bit, so a fault clears the bit only
        when it holds the whole hop: the pair (tail, head) stays adjacent in
        g[active] - F while any of its active edges survives.
        """
        n = self.n
        out = [0] * n
        inn = [0] * n
        pairs: dict[tuple, int] = {}
        for e in self.g.edges:
            if e.id in active and e.tail != e.head:
                out[e.tail] |= 1 << e.head
                inn[e.head] |= 1 << e.tail
                pair = (e.tail, e.head)
                pairs[pair] = pairs.get(pair, 0) | 1 << e.id
        drop = {}
        for (tail, head), hop in pairs.items():
            for eid in _ids(hop):
                drop[eid] = (tail, head, hop)
        return EdgeView(tuple(out), tuple(inn), drop, pairs)

    def _masks(self, view: EdgeView, fault):
        """Out- and in-masks of the view minus ``fault`` (any id container)."""
        out = list(view.out)
        inn = list(view.inn)
        drop = view.drop
        faulted = _id_mask(fault)
        for eid in fault:
            entry = drop.get(eid)
            if entry is not None and not entry[2] & ~faulted:
                tail, head, _ = entry
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

    def changed(
        self, base_state, view: EdgeView, fault, removed: int, hops=None
    ) -> bool:
        """Does removing ``removed`` on top of ``fault`` break a protected fact?

        ``base_state`` is ``state(view, fault)``; the answer equals
        ``breaks(base_state, state(view, fault + (removed,)))``.  It is found
        by one shortest-path search from the edge's tail, plus, for s-t
        only, one search each way between s and t.

        A False answer comes in two kinds.  A prune: no fault set that
        contains ``fault`` makes the removal break anything.  Otherwise a
        certificate: when ``hops`` is a list, the hops of a path that keeps
        the removal harmless are appended to it, each as the mask of its
        active edges outside the fault and the removed edge.  Every fault
        set F' that contains ``fault`` and under which the removal breaks a
        fact holds all of some hop's edges.

        Prune: removing an edge can shrink a root's component only if both
        of its ends are in that component.  A vertex v leaves the component
        of root r only if every closed walk through r and v uses the edge;
        such a walk exists, and every vertex on it, both ends of the edge
        included, is in the component.  So unless some root's component C
        holds both ends and a protected vertex, nothing breaks.  Under s-t
        (``loose``) the prune reads only whether C holds t (see
        :class:`CriticalityScan` for why).  Under global, nothing breaks
        unless the baseline component is all of V.  An edge outside the view
        (inactive, or a self-loop) never breaks anything.  Components only
        shrink as the fault grows, so each prune holds for every superset.

        Strong-bridge test (Italiano, Laura and Santaroni): if u still
        reaches v in active - F - e, for e = (u, v), every walk through e
        detours along that path, so no reachability changes and no fact
        breaks; a fault set that breaks one must cut the path, that is hold
        a whole hop of it.  An active twin of e outside F is such a path of
        one hop.  If u does not reach v and C is strongly connected in
        active - F and holds both ends, u and v drop apart, and C splits.

        One component: components are disjoint, so C is the only one that
        holds both ends, and the components of roots outside C do not
        change.  When C splits, each root r in C keeps only its own part and
        loses a vertex of C - r.  When every vertex of C but r is protected
        (all-pairs, sourcewise, single-source, global with C = V, and s-t
        with C = {s, t}), the split breaks a fact, and the first root whose
        component qualifies stands for all of them.  Otherwise (s-t with a
        larger C, or with an end of e outside C), the pair breaks exactly
        when s no longer reaches t or t no longer reaches s in active - F -
        e; when both paths survive, a breaking fault set must cut one of
        them, and their hops are the certificate.
        """
        drop = view.drop
        entry = drop.get(removed)
        if entry is None:
            return False
        tail, head, hop = entry
        if self.whole and base_state[0] != self.full:
            return False
        both = (1 << tail) | (1 << head)
        loose = self.loose
        for comp, protected, root in zip(base_state, self.protected, self.roots):
            if comp & protected and (loose or comp & both == both):
                break
        else:
            return False
        faulted = _id_mask(fault) | 1 << removed
        if hop & ~faulted:
            if hops is not None:
                hops.append(hop & ~faulted)
            return False
        out = list(view.out)  # the out-masks of _masks, without the in-masks
        for eid in fault:
            entry = drop.get(eid)
            if entry is not None and not entry[2] & ~faulted:
                out[entry[0]] &= ~(1 << entry[1])
        out[tail] &= ~(1 << head)
        path = shortest_path(out, tail, head)
        if path is None:
            at_risk = comp & protected
            if comp & both == both and at_risk == comp & ~(1 << root):
                return True
            t = _low_bit(at_risk)
            there = shortest_path(out, root, t)
            back = there and shortest_path(out, t, root)
            if not back:
                return True
            path = there + back[1:]
        if hops is not None:
            pairs = view.pairs
            for pair in zip(path, path[1:]):
                hops.append(pairs[pair] & ~faulted)
        return False

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
    pair; such an F is a witness.  Self-loops never carry connectivity and
    are never critical.  The active set is bound once into an edge view and
    bound again by :meth:`remove`.  The baseline state of ``active - F``
    does not depend on e, so it is cached per F and shared by every edge.

    :meth:`first_witness` returns the colex-first witness without sweeping
    all fault sets: it searches fault sets best-first.  A node is a fault
    set F; nodes leave a heap in ascending bitmask order, which is colex
    order.  ``changed`` answers each node once: True (F is the witness),
    a prune (no superset of F is a witness) or the hops of a path that
    keeps e harmless under F.  Each hop gives one child, F plus the hop's
    active edges outside F and e, kept when it has at most k edges and was
    not seen before.

    Lemma: the search returns the colex-first witness w, or None when there
    is none.  A witness meets two conditions: one that can only fail as F
    grows (what the prune reads: the pair or component at stake is still
    whole in active - F) and one that can only start to hold (the cut: no
    detour for e survives in active - F - e).  So every witness that
    contains a node F holds all of some hop of F's certificate and so
    contains one of F's children.  Every subset of w has a smaller bitmask,
    so none is a witness, and none is pruned, since w contains it.  So a
    chain of children leads from the empty set to w, each node of it at
    most k edges and a subset of w, and while w has not left the heap some
    node of that chain is in it.  The heap therefore pops only sets below
    w, none of them witnesses, until it pops w.  Hence every answer, and
    every ``is_ft_critical`` witness and greedy output, is that of a sweep
    over :func:`fault_sets_colex`.

    The search guards itself: it raises CapabilityError once ``seen`` holds
    more than ``limits.max_fault_sets()`` fault sets, a cap read when the
    scan is built.  ``seen`` holds distinct subsets of active - e with at
    most k edges (a hop holds active edges outside F and e), so it never
    exceeds C(m - 1, <= k), the sweep that an up-front count would bound:
    no input whose sweep fits under the cap is refused.

    The cached states outlive :meth:`remove`, whose precondition is that
    the removed edge e was proved non-critical (``first_witness(e)`` found
    no witness; ``greedy_preserver`` is the only caller).  Lemma: each
    ``changed`` answer, certificate included, and so each search tree and
    the count of ``changed`` calls, is the same as with fresh states.  For
    every F <= active - e with |F| <= k, dropping e from active - F breaks
    no protected fact.  ``changed`` reads the cached state only to prune
    and to select the component C that holds the removed edge's ends; the
    searches run on the current view.  All-pairs, sourcewise and
    single-source protect V - r for each root r, so each root's component
    in active - F - e equals the cached one and the same C is selected.
    For global, the cached root component is V exactly when the fresh one
    is.  For s-t, the cached component of s may be a superset of the fresh
    one: it holds t exactly when the fresh one does, which is all the s-t
    prune reads, and when it is {s, t} so is the fresh one.  That last read
    only answers True early; with the fresh states the s-to-t and t-to-s
    searches that follow would answer True as well.  A prune on whether C
    holds both ends of the edge would read more than the cached state gets
    right, so s-t does without it.  By induction this holds across any
    number of removals, and fault sets that contain a removed edge are
    never visited again.
    """

    def __init__(self, oracle: ConnectivityOracle, active, k: int):
        require_int("k", k, 0)
        self.cap = limits.max_fault_sets()
        self.oracle = oracle
        self.active = set(active)
        self.view = oracle.bind(self.active)
        self.k = k
        self.base_states: dict[tuple, object] = {}
        self.oracle_calls = 0  # changed() evaluations, one per search node

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
        changed, view, k = self.oracle.changed, self.view, self.k
        heap = [(0, ())]
        seen = {0}
        hops: list[int] = []
        while heap:
            bits, fault = heappop(heap)
            self.oracle_calls += 1
            if changed(self._base(fault), view, fault, eid, hops):
                return fault
            room = k - len(fault)
            for hop in hops:
                child = bits | hop
                if hop.bit_count() <= room and child not in seen:
                    seen.add(child)
                    heappush(heap, (child, _ids(child)))
            hops.clear()
            if len(seen) > self.cap:
                raise CapabilityError(
                    f"criticality search for edge {eid} passed {self.cap} "
                    f"fault sets (k={k})"
                )
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


def _id_mask(ids) -> int:
    mask = 0
    for eid in ids:
        mask |= 1 << eid
    return mask


def _ids(mask: int) -> tuple:
    ids = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        ids.append(bit.bit_length() - 1)
    return tuple(ids)
