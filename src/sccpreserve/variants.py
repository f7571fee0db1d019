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
exhaustive verification, the giant-component search of
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
head, in place of a new state.  A verifier computes the subgraph's state
first and skips the graph's when nothing can be lost.

Fault sets are ordered colexicographically by edge id, which equals
ascending order of the subset bitmask: the empty set first, then subsets by
largest member.  Every "first witness" and "first counterexample" in the
package is defined against this order, and all are found by one best-first
search, :func:`first_fault`: a fault set that is not a hit either prunes
every superset or branches only on the hops of a certificate, and the search
still meets the colex-first hit first.  Four tests run on it.
:class:`CriticalityScan` (does dropping one edge break a protected pair?)
certifies with the path that ``changed`` found, and so does
``preservers.sscp_group`` (for which roots of a group is the edge
critical?), which stops once every root is decided.
:meth:`ConnectivityOracle.search_counterexample` (does a subgraph lose a
protected pair that the graph keeps?) certifies with trees of the subgraph
that carry the graph's edges the subgraph dropped.
``expander.giant_component_check`` (does some component keep enough
terminals?) certifies with trees of the graph over one component's
terminals.  Fault universes that are not edge subsets, color families and
1-bounded-degree matchings, run the counterexample test through a
translation of its nodes and hops (``verify.verify_color_ft``,
``verify.verify_bounded_degree_ft``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from . import limits
from .digraph import DiGraph, reach_mask, set_to_mask, shortest_path, tree_arcs
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
    """All subsets of ``edge_ids`` of size <= k, in colex (bitmask) order.

    The reference order: every search of :func:`first_fault` returns the
    first hit of this sweep, and the tests sweep it to check them.  Nothing
    in the package calls it; the benchmark's tracer wraps it as
    ``variants.fault_sets``, so it stays until that metric is retired with
    the benchmark's other blind counts.
    """
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
    non-loop edge id to its ``(tail, head)``, the key of its hop in
    ``pairs``.
    """

    out: tuple
    inn: tuple
    drop: dict
    pairs: dict

    def copy(self) -> "EdgeView":
        """The same view, with dicts of its own for :func:`drop_edge` to edit."""
        return self._replace(drop=dict(self.drop), pairs=dict(self.pairs))


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
        drop = {}
        for e in self.g.edges:
            if e.id in active and e.tail != e.head:
                out[e.tail] |= 1 << e.head
                inn[e.head] |= 1 << e.tail
                pair = drop[e.id] = (e.tail, e.head)
                pairs[pair] = pairs.get(pair, 0) | 1 << e.id
        return EdgeView(tuple(out), tuple(inn), drop, pairs)

    def masks(self, view: EdgeView, fault):
        """Out- and in-masks of the view minus ``fault`` (any id container)."""
        out = list(view.out)
        inn = list(view.inn)
        drop, pairs = view.drop, view.pairs
        faulted = set_to_mask(fault)
        for eid in fault:
            entry = drop.get(eid)
            if entry is not None and not pairs[entry] & ~faulted:
                tail, head = entry
                out[tail] &= ~(1 << head)
                inn[head] &= ~(1 << tail)
        return out, inn

    def state(self, view: EdgeView, fault=()):
        """The roots' SCC masks, each the meet of out-reach and in-reach.

        Strong connectivity is an equivalence, so a root that lies in an
        earlier root's component has that same component and reuses it.
        """
        return self.components(*self.masks(view, fault))

    def components(self, out, inn):
        """The roots' SCC masks in the graph of ``out``/``inn``."""
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
        drop, pairs = view.drop, view.pairs
        entry = drop.get(removed)
        if entry is None:
            return False
        tail, head = entry
        if self.whole and base_state[0] != self.full:
            return False
        both = (1 << tail) | (1 << head)
        loose = self.loose
        for comp, protected, root in zip(base_state, self.protected, self.roots):
            if comp & protected and (loose or comp & both == both):
                break
        else:
            return False
        faulted = set_to_mask(fault) | 1 << removed
        hop = pairs[entry] & ~faulted
        if hop:
            if hops is not None:
                hops.append(hop)
            return False
        out = list(view.out)  # the out-masks of masks(), without the in-masks
        for eid in fault:
            entry = drop.get(eid)
            if entry is not None and not pairs[entry] & ~faulted:
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

    def search_counterexample(self, kept, k: int, translate=None):
        """Colex-first fault set F of at most k edges of H = g[kept] under
        which H - F loses a protected fact that g - F keeps.

        Returns ``(fault, pair)`` with the row-major first broken pair (None
        for the global variant), the first hit of a sweep over
        ``fault_sets_colex(kept, k)``, or None when H passes.  The fault sets
        are searched by :func:`first_fault`, whose test is below.

        ``translate``, when given, maps that test to the test of another
        fault universe, whose nodes name the edges they fault and whose hops
        are that universe's ids; the search then runs over its nodes, and
        ``fault`` is one of them.  The callers prove each translation.

        F is a counterexample when some root r and protected p are strongly
        connected in g - F but not in H - F.  The first condition can only
        fail as F grows and the second can only start to hold.  So a node at
        which the first fails for every pair is a prune, and a list of hops
        is a certificate when every F' >= F that holds none of them whole
        keeps in H - F' each protected pair that g - F' keeps.

        Covered states: H - F is computed first.  When each root's H - F
        component covers its protected mask, nothing is lost, and unless
        the spec is ``loose`` (s-t with n > 2) both components are then all
        of V in g - F too, so g - F's state is the same and is not computed.

        Narrowing: faults lie in E(H), so an edge of g outside H is never
        faulted.  Let X be the (tail, head) pairs of g joined by a non-loop
        edge outside H, and C_r root r's component in g - F.  For any
        F' >= F, if every X-pair inside C_r has a tail-to-head path in
        H - F', then r keeps its whole g - F' component in H - F': a closed
        walk of g - F' through r stays inside C_r, and each X-edge on it can
        be replaced by such a path.  So only a component that holds both
        ends of some X-pair needs a certificate; when none does, the node
        prunes.  When H holds every non-loop edge of g, X is empty and
        nothing is searched.

        Certificates: unless the spec is ``loose``, a node that is not a
        counterexample has the same root components in H - F as in g - F
        (each root protects every other vertex).  Each component C that
        holds an X-pair gets the breadth-first in-tree of H - F inside C
        from its first root r, cut down to the paths from the X-tails, and
        the out-tree, cut down to the paths to the X-heads: at most
        2(|C| - 1) hops.  While they survive, each X-pair (u, v) inside C
        keeps the path u -> r -> v.  Under global, a node whose component is
        not V is a prune.  Under loose s-t, a node whose H - F component
        misses t either is a counterexample or has t outside g - F's
        component, a prune; otherwise the certificate is a shortest s-to-t
        path and a shortest t-to-s path of H - F.  Every valid certificate
        gives the same answer; a smaller one only means fewer nodes.
        """
        view_g = self.bind(self.g.edge_ids())
        view_h = self.bind(kept)
        pairs_h = view_h.pairs
        x_heads = [0] * self.n
        for (tail, head), hop in view_g.pairs.items():
            if hop != pairs_h.get((tail, head)):
                x_heads[tail] |= 1 << head
        if not any(x_heads):
            return None

        def narrow(comp):
            """The tails and the heads of the X-pairs inside comp, as masks."""
            tails = heads = 0
            bits = comp
            while bits:
                b = bits & -bits
                bits ^= b
                inside = x_heads[b.bit_length() - 1] & comp
                if inside:
                    tails |= b
                    heads |= inside
            return tails, heads

        roots, protected, loose = self.roots, self.protected, self.loose
        pair = None

        def test(fault, room):
            nonlocal pair
            out, inn = self.masks(view_h, fault)
            state = self.components(out, inn)
            if not all(comp & mask == mask for comp, mask in zip(state, protected)):
                state_g = self.state(view_g, fault)
                if self.breaks(state_g, state):
                    pair = self.first_broken_pair(state_g, state)
                    return True
                if loose or self.whole:
                    return None
            if not room:
                return None
            arcs = []
            if loose:
                if narrow(self.state(view_g, fault)[0])[0]:
                    s, t = roots[0], _low_bit(protected[0])
                    for path in (shortest_path(out, s, t), shortest_path(out, t, s)):
                        arcs += zip(path, path[1:])
            else:
                done = 0
                for root, comp in zip(roots, state):
                    if not comp & done:
                        done |= comp
                        tails, heads = narrow(comp)
                        if tails:
                            arcs += tree_arcs(out, root, comp, heads)
                            arcs += [(w, v) for v, w in tree_arcs(inn, root, comp, tails)]
            return map(pairs_h.__getitem__, arcs)

        if translate is not None:
            test = translate(test)
        fault = first_fault(
            test, k, limits.max_fault_sets(), f"counterexample search (|E(H)|={len(kept)})"
        )
        return None if fault is None else (fault, pair)


def first_fault(test, k: int, cap: int, what: str) -> tuple | None:
    """Colex-first fault set of at most k ids that ``test`` hits, or None.

    One best-first search serves criticality (:class:`CriticalityScan` and
    ``preservers.sscp_group``), verification
    (:meth:`ConnectivityOracle.search_counterexample`, over edges, color
    families or 1-bounded-degree matchings) and giant components
    (``expander.giant_component_check``).  A node is a fault set
    F of ids (edge ids, or color ranks), held as its bitmask and its
    ascending id tuple; nodes leave a heap in ascending bitmask order, which
    is colex order.  ``test(fault, room)``, with room = k - |F|, answers
    each node once: True for a hit; otherwise the hops of a certificate,
    each a mask of ids with at least one id outside F, or None for a prune.
    Each hop gives one child, F plus the hop's ids, kept when it has at most
    k ids and was not seen before.  A node with no room gets no children,
    so its test need not build a certificate.

    Lemma: when a prune means that no superset of F is a hit, and every hit
    that contains F holds all of some hop of F's certificate, the search
    returns the colex-first hit w, or None when there is none.  Every
    subset of w has a smaller bitmask, so none is a hit, and none is
    pruned, since w contains it.  So each subset of w that leaves the heap
    has a child that is a larger subset of w with at most k ids, and a
    child's bitmask exceeds its parent's, so that child is pushed or still
    waits in the heap.  While w has not left the heap, some subset of it is
    therefore in the heap, and the heap pops only sets below w, none of
    them hits, until it pops w.  Hence every answer is that of a sweep over
    :func:`fault_sets_colex`.  The same holds over a smaller universe that
    is closed under subsets, when hits, prunes and hops are read inside it
    (matchings: a certificate may leave out hops that no set of the
    universe can hold together with F).

    The search guards itself: it raises CapabilityError, naming ``what``,
    once ``seen`` holds more than ``cap`` fault sets.  ``seen`` holds
    distinct sets of at most k ids drawn from the ids hops can hold, so it
    never exceeds C(m, <= k) for those m ids, the sweep that an up-front
    count would bound: no input whose sweep fits under the cap is refused.
    """
    heap = [(0, ())]
    seen = {0}
    while heap:
        bits, fault = heappop(heap)
        hops = test(fault, k - len(fault))
        if hops is True:
            return fault
        for hop in hops or ():
            child = bits | hop
            if child.bit_count() <= k and child not in seen:
                seen.add(child)
                heappush(heap, (child, _ids(child)))
        if len(seen) > cap:
            raise CapabilityError(f"{what} passed the limit of {cap} fault sets (k={k})")
    return None


class CriticalityScan:
    """Criticality of single edges within a shrinking active edge set.

    An active edge e is critical when, for some fault set F of at most k
    other active edges, dropping e from ``active - F`` breaks a protected
    pair; such an F is a witness.  Self-loops never carry connectivity and
    are never critical.  The active set is bound once into an edge view,
    which the scan owns and :meth:`remove` edits in place.  The baseline
    state of ``active - F`` does not depend on e, so it is cached per F and
    shared by every edge.

    :meth:`first_witness` returns the colex-first witness by
    :func:`first_fault`.  ``changed`` answers each node F once: True (F is
    the witness), a prune or the hops of a path that keeps e harmless under
    F, each hop the path's active edges of one pair outside F and e.  A
    witness meets two conditions: one that can only fail as F grows (what
    the prune reads: the pair or component at stake is still whole in
    active - F) and one that can only start to hold (the cut: no detour for
    e survives in active - F - e).  So no superset of a pruned node is a
    witness, and every witness that contains a node F holds all of some hop
    of F's certificate.  Hence every answer, and every ``is_ft_critical``
    witness and greedy output, is that of a sweep over
    :func:`fault_sets_colex`.  The cap is read when the scan is built; the
    hops hold active edges outside e, so no search exceeds C(m - 1, <= k).

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
        changed, view = self.oracle.changed, self.view
        hops: list[int] = []

        def test(fault, room):
            self.oracle_calls += 1
            if not room:  # a leaf: every child would hold more than k edges
                return changed(self._base(fault), view, fault, eid)
            hops.clear()
            return changed(self._base(fault), view, fault, eid, hops) or hops

        return first_fault(test, self.k, self.cap, f"criticality search for edge {eid}")

    def broken_pair(self, fault: tuple, eid: int):
        """The first pair that dropping ``eid`` on top of ``fault`` breaks.

        None for the global variant, which protects no single pair.
        """
        after = self.oracle.state(self.view, (*fault, eid))
        return self.oracle.first_broken_pair(self._base(fault), after)

    def remove(self, eid: int) -> None:
        """Drop an edge proved non-critical; cached states stay valid.

        The view loses the edge in place (:func:`drop_edge`).
        """
        self.active.discard(eid)
        self.view = drop_edge(self.view, eid)


def drop_edge(view: EdgeView, eid: int) -> EdgeView:
    """The view less one edge, editing its ``drop`` and ``pairs`` in place.

    The result equals a fresh bind of the smaller active set: the edge
    leaves ``drop`` and leaves its hop in ``pairs``.  The hop's other edges
    keep their ``drop`` entries, since those name the pair and not the hop.
    When the hop empties, no active edge joins its pair any more, so the
    pair's ``pairs`` entry and its out- and in-mask bits go too, in a new
    tuple of masks.  A self-loop or inactive id is in no
    hop and leaves the view as it is.  A caller that keeps the old view
    passes ``view.copy()``.
    """
    entry = view.drop.pop(eid, None)
    if entry is None:
        return view
    hop = view.pairs[entry] & ~(1 << eid)
    if hop:
        view.pairs[entry] = hop
        return view
    del view.pairs[entry]
    tail, head = entry
    out, inn = list(view.out), list(view.inn)
    out[tail] &= ~(1 << head)
    inn[head] &= ~(1 << tail)
    return view._replace(out=tuple(out), inn=tuple(inn))


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _ids(mask: int) -> tuple:
    ids = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        ids.append(bit.bit_length() - 1)
    return tuple(ids)
