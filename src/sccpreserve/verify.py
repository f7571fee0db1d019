"""Ground-truth oracles: exhaustive fault-set verification, critical-edge
enumeration, cut-characterization verifiers, and strong-fault witnesses.

``verify_ft`` searches fault sets drawn from the preserver's edges
best-first, in colex edge-id order, skipping every fault set that a
certificate proves harmless (``ConnectivityOracle.search_counterexample``);
pairs are read in row-major vertex order.  The first counterexample under
that order is the one reported, the same as a sweep over every fault set
would report.  It is also the first counterexample among all fault sets of
the host graph: if F is one, so is F & E(H) (H - F does not change, and
g - F can only gain connectivity), and F & E(H) comes no later than F in
colex order.

Color families and 1-bounded-degree matchings are searched the same way,
through a translation of the search's nodes and hops into each universe
(``verify_color_ft``, ``verify_bounded_degree_ft``), so every fault-set
question here counts search nodes against ``limits.max_fault_sets()``.
Every check under faults reads states of the variants oracle's bound view,
the strong fault-model witness checks included.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .digraph import DiGraph, mask_to_set, set_to_mask
from .errors import InputError, require_int
from .flowcut import bind, boundary_edges
from .variants import ConnectivityOracle, CriticalityScan, VariantSpec


@dataclass(frozen=True)
class Counterexample:
    pair: tuple | None  # None for the global variant
    faults: frozenset


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: Counterexample | None = None


def _check_kept(g: DiGraph, kept_edges) -> frozenset:
    kept = frozenset(kept_edges)
    for eid in kept:
        g.edge(eid)
    return kept


def _verdict(hit) -> VerifyResult:
    """VerifyResult of a ``(faults, pair)`` hit of ``search_counterexample``
    (None means verified); faults are edge ids, or colors for families."""
    if hit is None:
        return VerifyResult(ok=True)
    faults, pair = hit
    return VerifyResult(ok=False, counterexample=Counterexample(pair, frozenset(faults)))


def verify_ft(g: DiGraph, kept_edges, spec: VariantSpec, k: int) -> VerifyResult:
    """Exactly check the variant's k-FT condition for H = g[kept_edges].

    Fault sets range over E(H).  The search counts the fault sets it visits
    and raises CapabilityError past ``limits.max_fault_sets()``.
    """
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    spec.validate(g)
    oracle = ConnectivityOracle(g, spec)
    return _verdict(oracle.search_counterexample(kept, k))


def verify_kconn(g: DiGraph, kept_edges, k: int) -> VerifyResult:
    """Check that H preserves min(lambda, k) for every vertex pair."""
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    view_h = bind(g.restrict_to(kept))
    for s, t, want in bind(g).symmetric_pairs(k):
        if want and view_h.symmetric(s, t, k) != want:
            return VerifyResult(
                ok=False, counterexample=Counterexample(pair=(s, t), faults=frozenset())
            )
    return VerifyResult(ok=True)


def enumerate_critical_edges(g: DiGraph, spec: VariantSpec, k: int) -> frozenset:
    """Exact set of k-fault critical edges for the variant (test oracle).

    Each edge gets its own criticality search, capped like any other.
    """
    scan = CriticalityScan(ConnectivityOracle(g, spec), g.edge_ids(), k)
    return frozenset(e.id for e in g.edges if scan.first_witness(e.id) is not None)


# -- cut-characterization verifiers -----------------------------------------


def _minimal_symmetric_cuts(g: DiGraph):
    """Per ordered pair (s, t): the minimal symmetric (s, t)-cut sides.

    A cut (S, V-S) with s in S, t outside is minimal symmetric if no other
    side has a strictly smaller out-boundary (by set inclusion) while still
    separating {s, t} in one direction or the other.
    """
    limits.guard_side_enumeration(g.n)
    n = g.n
    sides = []
    for mask in range(1, (1 << n) - 1):
        sides.append((mask, boundary_edges(g, mask_to_set(mask))))
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            s_bit, t_bit = 1 << s, 1 << t
            separating = [
                (mask, boundary)
                for mask, boundary in sides
                if bool(mask & s_bit) != bool(mask & t_bit)
            ]
            forward = [
                (mask, boundary)
                for mask, boundary in separating
                if mask & s_bit
            ]
            for mask, boundary in forward:
                minimal = True
                for _, other in separating:
                    if other != boundary and other < boundary:
                        minimal = False
                        break
                if minimal:
                    yield s, t, mask, boundary


def verify_ft_by_cuts(g: DiGraph, kept_edges, k: int) -> bool:
    """Cut characterization of all-pairs k-FT preservers.

    H preserves every minimal symmetric (s, t)-cut up to the clamp k+1:
    min(|boundary in H|, k+1) must match min(|boundary in G|, k+1).
    Agrees with the flow-based ``verify_ft`` on the all-pairs variant.
    """
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    for _, _, _, boundary in _minimal_symmetric_cuts(g):
        in_h = len(boundary & kept)
        in_g = len(boundary)
        if min(in_h, k + 1) != min(in_g, k + 1):
            return False
    return True


def verify_kconn_by_cuts(g: DiGraph, kept_edges, k: int) -> bool:
    """Cut characterization of k-connectivity preservers.

    Every minimal symmetric (s, t)-cut must keep at least min(lambda(s,t), k)
    edges in H.  Agrees with the flow-based ``verify_kconn``.
    """
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    view = bind(g)
    lam_cache: dict[tuple, int] = {}
    for s, t, _, boundary in _minimal_symmetric_cuts(g):
        key = (min(s, t), max(s, t))
        lam = lam_cache.get(key)
        if lam is None:
            lam = view.symmetric(key[0], key[1], k)
            lam_cache[key] = lam
        if len(boundary & kept) < lam:
            return False
    return True


# -- strong fault-model witnesses --------------------------------------------


def _witness_stands(g: DiGraph, kept_edges, cross_edge: int, fault, s: int, y: int) -> bool:
    """s, y strongly connected in g-F but not in g-F-cross_edge, which is kept.

    One single-source(s) oracle view of g gives s's component under both
    fault sets; a twin of cross_edge outside F keeps the pair adjacent.
    """
    kept = _check_kept(g, kept_edges)
    g.edge(cross_edge)
    g._check_vertex(y)
    oracle = ConnectivityOracle(g, VariantSpec.single_source(s))
    view = oracle.bind(g.edge_ids())
    y_bit = 1 << y
    if not oracle.state(view, fault)[0] & y_bit:
        return False
    if oracle.state(view, fault | {cross_edge})[0] & y_bit:
        return False
    return cross_edge in kept


def _search(g: DiGraph, kept, k: int, faults_of, lift):
    """All-pairs ``search_counterexample`` over another fault universe.

    A node is a set of that universe's ids; ``faults_of(node)`` gives the
    edges it faults, and ``lift(node, hops)`` turns the hops of the edge
    test's certificate (masks of H-edges) into masks of ids, leaving out any
    hop that no node of the universe holds together with ``node``.
    """

    def translate(test):
        def on_node(node, room):
            hops = test(faults_of(node), room)
            return True if hops is True else lift(node, hops or ())

        return on_node

    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    return oracle.search_counterexample(kept, k, translate)


def verify_bounded_degree_ft(g: DiGraph, kept_edges) -> VerifyResult:
    """Exact 1-bounded-degree verification over the whole fault universe.

    A 1-bounded-degree fault set touches each vertex at most once: a
    matching of g, self-loops included.  The counterexample is the
    colex-first matching F under which H - F loses a pair that g - F keeps,
    found by searching only matchings of the non-loop edges of H, which hold
    at most n // 2 edges.  The witness checkers are the primary interface;
    the search stops past ``limits.max_fault_sets()`` nodes.

    Shrinking: if a matching w is a counterexample, so is w' = w & E(H)
    minus self-loops.  H - w' equals H - w up to self-loops, which carry no
    connectivity, and g - w' holds g - w, so it keeps every pair that g - w
    keeps.  w' is a matching and comes no later than w in colex order, so
    the colex-first counterexample of all of g lies in the searched
    universe.

    Matching filter: each node runs ``verify_ft``'s edge test.  Its
    certificate's hops are kept only when a hop is one edge whose ends F
    does not touch.  Every matching counterexample w that contains F holds
    all of some hop; the edges of one hop share both ends, so that hop is a
    single edge, and it joins F inside w, so F does not touch its ends.
    Matchings are closed under subsets, so ``first_fault``'s lemma holds
    over them.
    """
    kept = _check_kept(g, kept_edges)
    ends = {e.id: 1 << e.tail | 1 << e.head for e in g.edges}

    def lift(fault, hops):
        touched = 0
        for eid in fault:
            touched |= ends[eid]
        return [h for h in hops if not h & (h - 1) and not ends[h.bit_length() - 1] & touched]

    return _verdict(_search(g, kept, g.n // 2, lambda fault: fault, lift))


def verify_color_ft(g: DiGraph, kept_edges, k: int = 1) -> VerifyResult:
    """Exact k-color-fault verification over all color families.

    Every family of at most k colors fails together, faulting each of its
    edges, of H and of g alike.  Requires a fully colored graph.  A
    counterexample names the colex-first failed color family, not its
    edges, and the search stops past ``limits.max_fault_sets()`` nodes.

    Colors get ranks in sorted order, and a node is a set of ranks, so colex
    order over rank bits is colex order over colors.  Each node runs
    ``verify_ft``'s edge test on the edges of its colors.  A hop of its
    certificate, the H-edges of one pair, becomes the OR of their colors'
    bits: the pair loses its last H-edge exactly when all of those colors
    fail, so the lifted hops certify the node as the edge hops do.

    Narrowing still holds although a family also faults edges of g outside
    H.  Let F' hold the node's colors and some more, and C_r be root r's
    component in g - F for the node's faults F.  A closed walk of g - F'
    through r stays inside C_r.  Each of its H-edges survives in H - F',
    since an edge survives by its color alone.  Each of its edges outside H
    has both ends in C_r, so it joins an X-pair inside C_r, which the
    certificate's trees connect through r while their hops survive; a
    faulted edge is not on the walk.  So r keeps its g - F' component in
    H - F' unless F' kills a whole lifted hop, as ``search_counterexample``
    needs.
    """
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    if any(e.color is None for e in g.edges):
        raise InputError("color-fault verification needs every edge colored")
    colors = sorted({e.color for e in g.edges})
    rank = {color: i for i, color in enumerate(colors)}
    rank_of = {e.id: rank[e.color] for e in g.edges}

    def faults_of(family):
        return [eid for eid, r in rank_of.items() if r in family]

    def lift(family, hops):
        return [set_to_mask(map(rank_of.__getitem__, mask_to_set(hop))) for hop in hops]

    hit = _search(g, kept, k, faults_of, lift)
    return _verdict(hit and ([colors[r] for r in hit[0]], hit[1]))


def verify_bounded_degree_witness(
    g: DiGraph, kept_edges, cross_edge: int, fault, s: int, y: int
) -> bool:
    """Check a 1-bounded-degree criticality witness for one edge.

    The fault set may touch each vertex's incident edges at most once.  The
    witness stands if s and y are strongly connected in g-F but not once
    cross_edge is also removed; a preserver must then keep cross_edge, and
    the check confirms that kept_edges does.
    """
    fault = frozenset(fault)
    incident: dict[int, int] = {}
    for eid in fault:
        e = g.edge(eid)
        for v in {e.tail, e.head}:
            incident[v] = incident.get(v, 0) + 1
    if incident and max(incident.values()) > 1:
        worst = max(incident, key=incident.get)
        raise InputError(
            f"fault set touches vertex {worst} {incident[worst]} times; "
            "1-bounded-degree faults allow one"
        )
    return _witness_stands(g, kept_edges, cross_edge, fault, s, y)


def verify_color_witness(
    g: DiGraph, kept_edges, cross_edge: int, failed_color: int, s: int, y: int
) -> bool:
    """Check a 1-color-fault criticality witness for one edge.

    Failing a color removes every edge of that color; the witness stands if
    s and y stay strongly connected under the color failure but lose strong
    connectivity once cross_edge is also removed.
    """
    used_colors = {e.color for e in g.edges if e.color is not None}
    if failed_color not in used_colors:
        raise InputError(f"unknown color {failed_color}")
    fault = frozenset(e.id for e in g.edges if e.color == failed_color)
    return _witness_stands(g, kept_edges, cross_edge, fault, s, y)
