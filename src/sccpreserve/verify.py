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

Every check under faults here reads states of the variants oracle's bound
view, the strong fault-model sweeps and witness checks included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import limits
from .digraph import DiGraph, mask_to_set
from .errors import CapabilityError, InputError, require_int
from .flowcut import bind, boundary_edges
from .variants import ConnectivityOracle, CriticalityScan, VariantSpec, fault_sets_colex


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
    """VerifyResult of a ``search_counterexample`` or ``first_counterexample``
    hit (None means verified)."""
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


def _bounded_degree_faults(g: DiGraph):
    """Every 1-bounded-degree fault set as an edge-id tuple, in DFS preorder.

    Such a set touches each vertex at most once: a matching of g, self-loops
    included.
    """
    edges = g.edges

    def extend(idx: int, touched: int, chosen: tuple):
        yield chosen
        for j in range(idx, len(edges)):
            e = edges[j]
            ends = (1 << e.tail) | (1 << e.head)
            if not ends & touched:
                yield from extend(j + 1, touched | ends, chosen + (e.id,))

    return extend(0, 0, ())


def verify_bounded_degree_ft(g: DiGraph, kept_edges) -> VerifyResult:
    """Exhaustive 1-bounded-degree verification over the whole fault universe.

    Valid fault sets touch every vertex's incident edges at most once, so
    they are enumerated as matchings of the incidence structure.  The
    universe grows exponentially; a counting pass caps the number of fault
    sets before any is checked, and the checking pass streams them.  The
    witness checkers are the primary interface, this exhaustive form is for
    tiny instances only.
    """
    kept = _check_kept(g, kept_edges)
    cap = limits.max_fault_sets()
    if sum(1 for _ in islice(_bounded_degree_faults(g), cap + 1)) > cap:
        raise CapabilityError(f"1-bounded-degree fault universe exceeds {cap} sets")
    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    return _verdict(oracle.first_counterexample(kept, _bounded_degree_faults(g)))


def verify_color_ft(g: DiGraph, kept_edges, k: int = 1) -> VerifyResult:
    """Exhaustive k-color-fault verification over all color families.

    Every family of at most k colors fails together; the guard caps the
    number of families.  Requires a fully colored graph.  A counterexample
    names the failed color family, not its edges.
    """
    require_int("k", k, 0)
    kept = _check_kept(g, kept_edges)
    if any(e.color is None for e in g.edges):
        raise InputError("color-fault verification needs every edge colored")
    by_color: dict[int, set] = {}
    for e in g.edges:
        by_color.setdefault(e.color, set()).add(e.id)
    colors = sorted(by_color)
    limits.guard_fault_sets(len(colors), k)

    def edges_of(family):
        return frozenset().union(*(by_color[c] for c in family))

    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    return _verdict(
        oracle.first_counterexample(kept, fault_sets_colex(colors, k), edges_of)
    )


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
