"""Slow, dead-simple reference implementations used as independent oracles.

Everything here works on plain dict adjacency and python sets, on purpose:
no bitmasks, no residual graphs, no shared code with the library kernels.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def edge_list(g, banned=frozenset()):
    return [(e.id, e.tail, e.head) for e in g.edges if e.id not in banned]


def reach_ref(n, edges, sources):
    """BFS reachability over an explicit edge list (self-loops harmless)."""
    adj = {}
    for _, tail, head in edges:
        adj.setdefault(tail, set()).add(head)
    seen = set(sources)
    queue = list(seen)
    while queue:
        v = queue.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def scc_sets_ref(g, banned=frozenset()):
    """SCC partition via pairwise mutual reachability (O(n^2 m))."""
    edges = edge_list(g, banned)
    reach = {v: reach_ref(g.n, edges, [v]) for v in range(g.n)}
    comps = set()
    for v in range(g.n):
        comp = frozenset(w for w in range(g.n) if w in reach[v] and v in reach[w])
        comps.add(comp)
    return comps


def scc_order_ref(g):
    """(component_of, components) in ``digraph.scc``'s documented order.

    From the closure: every vertex's reach set, components by mutual
    reachability, numbered by descending reach size of the component's
    lowest vertex, ties by that vertex.
    """
    edges = edge_list(g)
    reach = [reach_ref(g.n, edges, [v]) for v in range(g.n)]
    lowest = {}
    for v in range(g.n):
        comp = frozenset(w for w in reach[v] if v in reach[w])
        lowest.setdefault(comp, min(comp))
    components = tuple(sorted(lowest, key=lambda c: (-len(reach[lowest[c]]), lowest[c])))
    component_of = tuple(
        next(i for i, comp in enumerate(components) if v in comp) for v in range(g.n)
    )
    return component_of, components


def strongly_connected_pair_ref(g, banned, a, b):
    edges = edge_list(g, banned)
    return b in reach_ref(g.n, edges, [a]) and a in reach_ref(g.n, edges, [b])


def is_strongly_connected_ref(g, banned=frozenset()):
    return len(scc_sets_ref(g, banned)) == 1


def flow_by_path_families(g, sources, sinks, banned=frozenset()):
    """Max edge-disjoint path count by exhaustive path-family search."""
    edges = edge_list(g, banned)
    sources = set(sources)
    sinks = set(sinks)

    def all_paths(avail):
        # simple paths from any source to any sink over available edges
        results = []

        def extend(v, used_vertices, used_edges):
            if v in sinks:
                results.append(frozenset(used_edges))
                return
            for eid, tail, head in avail:
                if tail == v and eid not in used_edges and head not in used_vertices:
                    extend(head, used_vertices | {head}, used_edges + [eid])

        for s in sources:
            extend(s, {s}, [])
        return results

    def best(avail):
        paths = all_paths(avail)
        top = 0
        for path in paths:
            rest = [e for e in avail if e[0] not in path]
            top = max(top, 1 + best(rest))
        return top

    return best(edges)


def min_cut_ref(g, sources, sinks):
    """Minimum out-boundary over all (X, Y)-separating sides (2^n scan)."""
    sources = set(sources)
    sinks = set(sinks)
    best = None
    for r in range(g.n + 1):
        for side in combinations(range(g.n), r):
            side = set(side)
            if not sources <= side or side & sinks:
                continue
            size = sum(
                1 for e in g.edges if e.tail in side and e.head not in side
            )
            if best is None or size < best:
                best = size
    return best


def all_min_cut_sides(g, sources, sinks):
    lam = min_cut_ref(g, sources, sinks)
    sources = set(sources)
    sinks = set(sinks)
    sides = []
    for r in range(g.n + 1):
        for side in combinations(range(g.n), r):
            side = set(side)
            if not sources <= side or side & sinks:
                continue
            size = sum(
                1 for e in g.edges if e.tail in side and e.head not in side
            )
            if size == lam:
                sides.append(frozenset(side))
    return lam, sides


def maximal_min_cut_side(g, sources, sinks):
    """The unique inclusion-maximal minimum-cut side (asserts uniqueness)."""
    _, sides = all_min_cut_sides(g, sources, sinks)
    maximal = [
        s for s in sides if not any(s < other for other in sides)
    ]
    assert len(maximal) == 1, f"min-cut sides not a lattice? {maximal}"
    return maximal[0]


def reachable_cut_ref(g, side, sources, direction):
    """(side, boundary) after shrinking a cut side to its reachable part.

    The side keeps what the sources reach by BFS over the edges inside it,
    reversed for ``direction='in'``; the boundary is the edges leaving the
    kept side ('out') or entering it ('in').
    """
    side = set(side)
    inside = [
        (eid, tail, head) if direction == "out" else (eid, head, tail)
        for eid, tail, head in edge_list(g)
        if tail in side and head in side
    ]
    kept = reach_ref(g.n, inside, sources)
    boundary = {
        eid
        for eid, tail, head in edge_list(g)
        if ((tail in kept) != (head in kept)) and ((tail in kept) == (direction == "out"))
    }
    return frozenset(kept), frozenset(boundary)


def symmetric_connectivity_ref(g, s, t, k):
    if k == 0:
        return 0
    fwd = flow_by_path_families(g, [s], [t])
    bwd = flow_by_path_families(g, [t], [s])
    return min(fwd, bwd, k)


def fault_set_count(m, k):
    """Number of edge subsets of size at most k out of m edges."""
    return sum(comb(m, i) for i in range(0, min(k, m) + 1))


def fault_sets_ref(edge_ids, k):
    """All fault sets of size <= k (unordered; for containment checks)."""
    ids = sorted(edge_ids)
    for r in range(min(k, len(ids)) + 1):
        for combo in combinations(ids, r):
            yield frozenset(combo)


def ft_critical_ref(g, eid, pairs, k, global_variant=False):
    """Reference k-fault criticality over explicit pair lists."""
    others = [e for e in g.edge_ids() if e != eid]
    for fault in fault_sets_ref(others, k):
        if global_variant:
            if is_strongly_connected_ref(g, fault) and not is_strongly_connected_ref(
                g, fault | {eid}
            ):
                return True
            continue
        for a, b in pairs:
            if strongly_connected_pair_ref(g, fault, a, b) and not (
                strongly_connected_pair_ref(g, fault | {eid}, a, b)
            ):
                return True
    return False


def verify_ft_ref(g, kept, pairs, k, global_variant=False):
    """Reference verifier: H preserves every pair under every fault set."""
    kept = set(kept)
    for fault in fault_sets_ref(g.edge_ids(), k):
        h_banned = fault | (set(g.edge_ids()) - kept)
        if global_variant:
            if is_strongly_connected_ref(g, fault) != is_strongly_connected_ref(
                g, h_banned
            ):
                return False
            continue
        for a, b in pairs:
            if strongly_connected_pair_ref(g, fault, a, b) != (
                strongly_connected_pair_ref(g, h_banned, a, b)
            ):
                return False
    return True


def first_counterexample_ref(g, kept, pairs, k, global_variant=False):
    """(pair, fault) of the colex-first fault set over all of E(g) under
    which H = g[kept] loses a pair (the first one in ``pairs``) that g keeps;
    pair is None for the global variant.  None if H passes."""
    kept = set(kept)
    faults = sorted(
        fault_sets_ref(g.edge_ids(), k), key=lambda f: sum(1 << e for e in f)
    )
    for fault in faults:
        h_banned = fault | (set(g.edge_ids()) - kept)
        if global_variant:
            if is_strongly_connected_ref(g, fault) and not is_strongly_connected_ref(
                g, h_banned
            ):
                return None, fault
            continue
        for a, b in pairs:
            if strongly_connected_pair_ref(g, fault, a, b) and not (
                strongly_connected_pair_ref(g, h_banned, a, b)
            ):
                return (a, b), fault
    return None


def first_color_counterexample_ref(g, kept, k):
    """(pair, colors) of the first color family of at most k colors, in
    colex order of color ids, whose failure makes H = g[kept] lose an
    all-pairs pair (row-major first) that g keeps.  None if H passes."""
    kept = set(kept)
    colors = sorted({e.color for e in g.edges})
    families = sorted(
        fault_sets_ref(colors, k), key=lambda f: sum(1 << c for c in f)
    )
    for family in families:
        fault = {e.id for e in g.edges if e.color in family}
        h_banned = fault | (set(g.edge_ids()) - kept)
        for a in range(g.n):
            for b in range(g.n):
                if a != b and strongly_connected_pair_ref(g, fault, a, b) and not (
                    strongly_connected_pair_ref(g, h_banned, a, b)
                ):
                    return (a, b), family
    return None


def first_bounded_degree_counterexample_ref(g, kept):
    """(pair, fault) of the first matching of g (a fault set touching each
    vertex at most once, self-loops included), in bitmask order, under which
    H = g[kept] loses an all-pairs pair (row-major first) that g keeps.
    None if H passes."""
    kept = set(kept)
    ends = {eid: {tail, head} for eid, tail, head in edge_list(g)}
    matchings = [frozenset()]
    for eid in sorted(ends):
        matchings += [
            fault | {eid}
            for fault in matchings
            if not any(ends[other] & ends[eid] for other in fault)
        ]
    for fault in sorted(matchings, key=lambda f: sum(1 << e for e in f)):
        h_banned = fault | (set(g.edge_ids()) - kept)
        if scc_sets_ref(g, fault) == scc_sets_ref(g, h_banned):
            continue  # H - F lost no pair
        for a in range(g.n):
            for b in range(g.n):
                if a != b and strongly_connected_pair_ref(g, fault, a, b) and not (
                    strongly_connected_pair_ref(g, h_banned, a, b)
                ):
                    return (a, b), fault
    return None


def unbreakable_ref(g, terminals, q, k):
    """Direct Definition check over all 2^n sides."""
    U = set(terminals)
    for r in range(g.n + 1):
        for side in combinations(range(g.n), r):
            side = set(side)
            out = sum(1 for e in g.edges if e.tail in side and e.head not in side)
            inn = sum(1 for e in g.edges if e.head in side and e.tail not in side)
            if min(out, inn) > k:
                continue
            if len(side & U) > q and len(U - side) > q:
                return False
    return True


def unbreakable_witness_ref(g, terminals, q, k):
    """Side of the first failing (A, B) pair, or None when unbreakable.

    The pair order of ``is_unbreakable``, on the 2^n side scans above:
    (q+1)-subsets A, then disjoint B, in ``combinations`` order over the
    sorted terminals; the witness is the inclusion-maximal minimum (A, B)-cut
    side of the first pair with min cut <= k.
    """
    U = sorted(terminals)
    if len(U) <= 2 * q + 1:
        return None
    for A in combinations(U, q + 1):
        rest = [b for b in U if b not in A]
        for B in combinations(rest, q + 1):
            if min_cut_ref(g, A, B) <= k:
                return maximal_min_cut_side(g, A, B)
    return None


def sparsest_cut_ref(g, terminals, phi):
    """(side, out-boundary ids) of the sparsest cut if its ratio is <= phi.

    Every side is scored from the edge list.  Sides are visited in
    ascending order of their bitmask sum(2^v) and a later side wins only
    with a strictly smaller ratio, so ties go to the smallest mask.
    """
    U = set(terminals)
    best = None  # (ratio, side, boundary)
    for mask in range(1, (1 << g.n) - 1):
        side = {v for v in range(g.n) if mask >> v & 1}
        small = min(len(U & side), len(U - side))
        if small == 0:
            continue
        boundary = {e.id for e in g.edges if e.tail in side and e.head not in side}
        ratio = Fraction(len(boundary), small)
        if best is None or ratio < best[0]:
            best = (ratio, frozenset(side), frozenset(boundary))
    if best is None or best[0] > Fraction(phi):
        return None
    return best[1], best[2]


def boundary_table_ref(g):
    """b[S] = non-loop edges from S to V - S, for every mask S, as a list.

    The recurrence b[S] = b[R] + outdeg(v) - c(v -> R) - c(R -> v), with v
    the highest vertex of S and R = S - {v}, run one list element at a time:
    the block of masks with highest vertex v is b[R] plus an increment list
    w_v that doubles once per u < v, subtracting m(v, u) + m(u, v) in its
    new half.
    """
    n = g.n
    both = [[0] * n for _ in range(n)]
    outdeg = [0] * n
    for e in g.edges:
        if e.tail != e.head:
            outdeg[e.tail] += 1
            both[e.tail][e.head] += 1
            both[e.head][e.tail] += 1
    table = [0]
    for v in range(n):
        w = [outdeg[v]]
        for u in range(v):
            w += [x - both[v][u] for x in w]
        table += [b + x for b, x in zip(table, w)]
    return table
