"""Greedy fault-tolerant preserver constructions and the A-series reductions.

The greedy construction scans the edges once, in ascending edge id, and
deletes every edge that is not critical in the current graph: no fault set
of at most k other current edges makes it carry a protected pair.  Each
deletion leaves the current graph a k-FT preserver of itself, so by
transitivity the result is a preserver of the input.

One pass already gives an edge-minimal result.  Say e was kept because it
is critical in the then current graph H with witness F, and the final graph
H' (a subgraph of H, and a k-FT preserver of H) still contains e.  The
broken pair is connected in H - F, hence in H' - F = H' - (F & E(H')); and
H' - F - e is a subgraph of H - F - e, where the pair is broken.  So e is
critical in H' with witness F & E(H'), and a second pass would remove
nothing.

Different scan orders give different edge-minimal preservers; all of them
pass the exhaustive verifier, and this one is fixed for reproducibility.

Each criticality question goes to one
:class:`~sccpreserve.variants.CriticalityScan`, which answers it by a
best-first search over fault sets that branches on the hops of a
tail-to-head path and returns the colex-first witness, exactly as a sweep
over all fault sets would.  ``stats["oracle_calls"]`` counts the search's
nodes, one ``changed`` call each.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .digraph import DiGraph, check_vertex, set_to_mask
from .errors import InputError, require_int
from .expander import PHI_HALF, build_hierarchy
from .variants import (
    ConnectivityOracle,
    CriticalityScan,
    VariantSpec,
    drop_edge,
    first_fault,
)


@dataclass(frozen=True)
class CriticalityResult:
    critical: bool
    witness: tuple | None = None  # (pair, fault frozenset); pair None for global


@dataclass(frozen=True)
class PreserverResult:
    kept_edges: frozenset
    variant: str
    params: dict
    stats: dict
    provenance: str

    @property
    def size(self) -> int:
        return len(self.kept_edges)


def is_ft_critical(
    g: DiGraph, edge_id: int, spec: VariantSpec, k: int
) -> CriticalityResult:
    """Exhaustive k-fault criticality of one edge.

    Critical means: some protected pair is strongly connected in g-F but not
    in (g-e)-F for a fault set of size at most k (for the global variant,
    g-F strongly connected but (g-e)-F not).  Fault sets containing e never
    witness anything, and self-loops are never critical; the first witness
    in colex order is returned.  It is found by the best-first search of
    :class:`~sccpreserve.variants.CriticalityScan`, which validates k and
    the spec first and raises CapabilityError past the fault-set cap.
    """
    scan = CriticalityScan(ConnectivityOracle(g, spec), g.edge_ids(), k)
    fault = scan.first_witness(edge_id)
    if fault is None:
        return CriticalityResult(False)
    return CriticalityResult(True, (scan.broken_pair(fault, edge_id), frozenset(fault)))


def greedy_preserver(g: DiGraph, spec: VariantSpec, k: int) -> PreserverResult:
    """Edge-minimal k-FT preserver for the given variant."""
    scan = CriticalityScan(ConnectivityOracle(g, spec), g.edge_ids(), k)
    for eid in sorted(g.edge_ids()):
        if scan.first_witness(eid) is None:
            scan.remove(eid)
    kept = frozenset(scan.active)
    return PreserverResult(
        kept_edges=kept,
        variant=spec.kind,
        params={"k": k, **spec.describe()},
        stats={
            "input_edges": g.m,
            "output_edges": len(kept),
            "removal_attempts": g.m,
            "oracle_calls": scan.oracle_calls,
        },
        provenance="greedy",
    )


def sscp(g: DiGraph, s: int, k: int) -> PreserverResult:
    """k-FT single-source connectivity preserver rooted at s (greedy)."""
    return greedy_preserver(g, VariantSpec.single_source(s), k)


def sscp_group(g: DiGraph, roots, k: int) -> dict:
    """``sscp(g, u, k).kept_edges`` for every root u, by one grouped scan.

    The greedy runs of all roots scan the edges together.  Roots whose runs
    have removed the same edges so far form a group and share its current
    graph H, bound once as an edge view; each edge gets one criticality
    search per group, and a group splits when the edge is critical for only
    some of its roots: those keep it, the rest drop it.

    Lemma: one table of g - F's root components, keyed by the fault,
    serves every group.  Each deletion of a root u's run is non-critical
    for u, so H is a k-FT single-source preserver of g for every root u of
    its group, and comp_u(H - F) = comp_u(g - F) for |F| <= k.  Dropping
    e = (a, b) from H - F shrinks comp_u only when that component holds a
    and b (see ``ConnectivityOracle.changed``), so the roots at stake at F
    are the group's roots in the component of g - F that holds both ends.
    Whether a still reaches b in H - F - e, and so the path that certifies
    a node, does not depend on the root; with no such path, the component
    splits and every root at stake finds e critical.

    The search is :func:`~sccpreserve.variants.first_fault`, whose test is
    a hit once no root of the group is undecided.  Components only shrink
    as F grows, so a node at which every root at stake is decided is a
    prune; a node where a root at stake is undecided and the path survives
    branches on the path's hops, as a single root's search would.  So each
    undecided root u with a witness F* is decided: every visited subset of
    F* has u at stake, and either decides it or has a hop inside F*, whose
    child is a larger subset of F*.  A root is only decided at a node that
    witnesses e for it.  Self-loops are never critical and every run drops
    them.
    """
    require_int("k", k, 0)
    roots = sorted(g.vertex_set(roots))
    oracle = ConnectivityOracle(g, VariantSpec.sourcewise(roots))
    if not roots:
        return {}
    view = oracle.bind(g.edge_ids())
    changed = oracle.changed
    cap = limits.max_fault_sets()
    states: dict[tuple, tuple] = {}
    groups = [(set_to_mask(roots), view.copy())]
    for eid in sorted(view.drop):
        tail, head = view.drop[eid]
        both = (1 << tail) | (1 << head)
        split = []
        for members, group_view in groups:
            decided = 0
            hops: list[int] = []

            def test(fault, room):
                nonlocal decided
                state = states.get(fault)
                if state is None:
                    state = states[fault] = oracle.state(view, fault)
                for comp in state:
                    if comp & both == both:
                        break
                else:
                    return None
                if not comp & members & ~decided:
                    return None
                if room:
                    hops.clear()
                    if not changed(state, group_view, fault, eid, hops):
                        return hops
                elif not changed(state, group_view, fault, eid):
                    return None
                decided |= comp & members
                return True if not members & ~decided else None

            first_fault(test, k, cap, f"criticality search for edge {eid}")
            if decided == members:
                split.append((members, group_view))
                continue
            if decided:
                split.append((decided, group_view))
                group_view = group_view.copy()
            split.append((members & ~decided, drop_edge(group_view, eid)))
        groups = split
    kept = {}
    for members, group_view in groups:
        edges = frozenset(group_view.drop)
        for u in roots:
            if members >> u & 1:
                kept[u] = edges
    return kept


def hierarchy_preserver(g: DiGraph, k: int) -> PreserverResult:
    """All-pairs preserver via sourcewise preservers over an expander hierarchy.

    The parameters follow the existential construction: a hierarchy for
    (2k, k)-unbreakable sets (phi = 1/2), then one greedy sourcewise
    preserver per (level, SCC of the prefix graph), unioned over all levels.
    The build checks no certificates, so it reads only phi and runs on
    ``expander.PHI_HALF``; ``params`` reports the construction's
    q = max(2k, 2).  ``stats["exact"]`` is the hierarchy's flag: False when
    some sparse cut was heuristic (past ``limits.exact_cut_limit()``
    vertices).
    """
    require_int("k", k, 0)
    if g.n == 0:
        return PreserverResult(
            frozenset(), "all_pairs", {"k": k},
            {"input_edges": 0, "output_edges": 0, "exact": True}, "hierarchy",
        )
    hierarchy = build_hierarchy(g, PHI_HALF, verify_certificates=False)
    kept: set = set()
    pieces = hierarchy.certificates
    for piece in pieces:
        spec = VariantSpec.sourcewise(piece.local_terminals)
        kept |= greedy_preserver(piece.graph, spec, k).kept_edges
    return PreserverResult(
        kept_edges=frozenset(kept),
        variant="all_pairs",
        params={"k": k, "q": max(2 * k, 2), "phi": str(PHI_HALF.phi)},
        stats={
            "input_edges": g.m,
            "output_edges": len(kept),
            "levels": hierarchy.depth,
            "pieces": len(pieces),
            "exact": hierarchy.exact,
        },
        provenance="hierarchy",
    )


def global_from_single_source(g: DiGraph, k: int) -> PreserverResult:
    """Global k-FT preserver: a single-source preserver rooted anywhere."""
    if g.n == 0:
        raise InputError("need at least one vertex")
    inner = sscp(g, 0, k)
    return PreserverResult(
        kept_edges=inner.kept_edges,
        variant="global",
        params={"k": k, "root": 0},
        stats=inner.stats,
        provenance="global_from_single_source",
    )


def st_from_global(g: DiGraph, s: int, t: int, k: int, global_builder) -> PreserverResult:
    """s-t k-FT preserver from two global preservers on augmented graphs.

    G1 adds (v, s) and (t, v) for every v; G2 adds (s, v) and (v, t).  The
    global builder runs on each, and the union of both outputs intersected
    with E(g) preserves s-t strong connectivity under k faults.
    """
    if s == t:
        raise InputError("s and t must differ")
    check_vertex(s, g.n)
    check_vertex(t, g.n)
    original = g.edge_ids()
    g1 = g.add_edges([(v, s) for v in range(g.n)] + [(t, v) for v in range(g.n)])
    g2 = g.add_edges([(s, v) for v in range(g.n)] + [(v, t) for v in range(g.n)])
    h1 = global_builder(g1, k)
    h2 = global_builder(g2, k)
    kept = (frozenset(h1.kept_edges) | frozenset(h2.kept_edges)) & original
    return PreserverResult(
        kept_edges=kept,
        variant="st",
        params={"k": k, "s": s, "t": t},
        stats={
            "input_edges": g.m,
            "output_edges": len(kept),
            "g1_output": len(h1.kept_edges),
            "g2_output": len(h2.kept_edges),
        },
        provenance="st_from_global",
    )
