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

from .digraph import DiGraph
from .errors import InputError, require_int
from .expander import HierarchyParams, build_hierarchy
from .variants import ConnectivityOracle, CriticalityScan, VariantSpec


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


def hierarchy_preserver(
    g: DiGraph, k: int, params: HierarchyParams | None = None
) -> PreserverResult:
    """All-pairs preserver via sourcewise preservers over an expander hierarchy.

    Default parameters follow the existential construction: a hierarchy for
    (2k, k)-unbreakable sets (phi = 1/2), then one greedy sourcewise
    preserver per (level, SCC of the prefix graph), unioned over all levels.
    ``stats["exact"]`` is the hierarchy's flag: False when some sparse cut
    was heuristic (past ``limits.exact_cut_limit()`` vertices).
    """
    require_int("k", k, 0)
    if g.n == 0:
        return PreserverResult(
            frozenset(), "all_pairs", {"k": k},
            {"input_edges": 0, "output_edges": 0, "exact": True}, "hierarchy",
        )
    if params is None:
        # k=0 still needs valid params; the level structure depends on phi only
        params = HierarchyParams(q=max(2 * k, 2), k=max(k, 1))
    hierarchy = build_hierarchy(g, params, verify_certificates=False)
    kept: set = set()
    pieces = hierarchy.certificates
    for piece in pieces:
        spec = VariantSpec.sourcewise(piece.local_terminals)
        kept |= greedy_preserver(piece.graph, spec, k).kept_edges
    return PreserverResult(
        kept_edges=frozenset(kept),
        variant="all_pairs",
        params={"k": k, "q": params.q, "phi": str(params.phi)},
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
    g._check_vertex(s)
    g._check_vertex(t)
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
