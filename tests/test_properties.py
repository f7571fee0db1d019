"""Property tests: each shortcut against its plain reference.

Examples are derandomized, so every run checks the same fixed set.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sccpreserve.digraph import DiGraph, mask_to_set
from sccpreserve.expander import (
    HierarchyParams,
    build_hierarchy,
    giant_component_check,
    sparsest_cut_wrt,
)
from sccpreserve.flowcut import (
    bind,
    boundary_edges,
    canonicalize_in_reachable,
    canonicalize_out_reachable,
    make_cut,
)
from sccpreserve.fpt import FptCache, critical_edge_container, sample_count
from sccpreserve.impcut import enumerate_important_cuts, important_cut_container
from sccpreserve.preservers import greedy_preserver, sscp
from sccpreserve.variants import ConnectivityOracle, CriticalityScan, VariantSpec, fault_sets_colex
from sccpreserve.verify import (
    verify_bounded_degree_ft,
    verify_bounded_degree_witness,
    verify_color_ft,
    verify_color_witness,
    verify_ft,
)

from conftest import variant_checks
from oracles import (
    fault_sets_ref,
    first_bounded_degree_counterexample_ref,
    first_color_counterexample_ref,
    first_counterexample_ref,
    ft_critical_ref,
    is_strongly_connected_ref,
    reachable_cut_ref,
    scc_sets_ref,
    sparsest_cut_ref,
    strongly_connected_pair_ref,
    verify_ft_ref,
)

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=10_000,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def loopy_multigraphs(draw):
    """Multigraphs on 2..6 vertices with a parallel edge and a self-loop."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=n + 6))
    loop = draw(vertex)
    at = draw(st.integers(0, len(edges)))
    edges[at:at] = [edges[0], (loop, loop)]
    return DiGraph(n, edges)


def _specs(g):
    """The five variants, plus s-t reversed."""
    return [spec for spec, _, _ in variant_checks(g)] + [VariantSpec.st(g.n - 1, 0)]


def _colex_witness(scan, eid):
    """First witness by a sweep over all fault sets of the scan's active set."""
    oracle, view = scan.oracle, scan.view
    for fault in fault_sets_colex(scan.active - {eid}, scan.k):
        if oracle.changed(oracle.state(view, fault), view, fault, eid):
            return fault
    return None


@PROPERTY
@given(loopy_multigraphs(), st.integers(0, 5), st.integers(0, 3))
def test_first_witness_is_colex_first(g, which, k):
    # The best-first search returns the sweep's witness for every edge, on
    # a fresh scan and on one carried across the removals of greedy; the
    # carried scan visits as many nodes as a scan rebuilt on its active set.
    oracle = ConnectivityOracle(g, _specs(g)[which])
    fresh = CriticalityScan(oracle, g.edge_ids(), k)
    carried = CriticalityScan(oracle, g.edge_ids(), k)
    for eid in sorted(g.edge_ids()):
        assert fresh.first_witness(eid) == _colex_witness(fresh, eid)
        rebuilt = CriticalityScan(oracle, carried.active, k)
        want = _colex_witness(rebuilt, eid)
        before = carried.oracle_calls
        assert rebuilt.first_witness(eid) == want
        assert carried.first_witness(eid) == want
        assert carried.oracle_calls - before == rebuilt.oracle_calls
        if want is None:
            carried.remove(eid)


@PROPERTY
@given(loopy_multigraphs(), st.booleans(), st.integers(0, 5), st.data())
def test_bound_state_matches_reference(g, split, which, data):
    # the fault may name edges outside the active set, which it cannot drop;
    # with ``split`` it drops one edge of an active parallel pair, which
    # keeps its ends adjacent
    oracle = ConnectivityOracle(g, _specs(g)[which])
    ids = sorted(g.edge_ids())
    active = data.draw(st.frozensets(st.sampled_from(ids)))
    fault = data.draw(st.frozensets(st.sampled_from(ids)))
    if split:
        twin, other = _twins(g)
        active |= {twin, other}
        fault = (fault | {twin}) - {other}
    fault = tuple(sorted(fault))
    comps = scc_sets_ref(g, (set(ids) - active) | set(fault))
    want = tuple(next(c for c in comps if r in c) for r in oracle.roots)
    got = oracle.state(oracle.bind(active), fault)
    assert tuple(mask_to_set(comp) for comp in got) == want


def _outcome(res):
    cex = res.counterexample
    return (True, None, None) if cex is None else (res.ok, cex.pair, cex.faults)


def _expected(ref):
    return (True, None, None) if ref is None else (False, *ref)


@PROPERTY
@given(loopy_multigraphs(), st.booleans(), st.integers(0, 4), st.integers(0, 3), st.data())
def test_verify_ft_matches_reference(g, cycle, which, k, data):
    # (ok, pair, faults) against the colex-first counterexample over all of
    # E(g); H is a greedy output (for k and for k - 1, which mostly fails
    # on k faults), that output minus one edge, a random subset, g without
    # its self-loops, or g without one edge of a parallel pair.  A directed
    # Hamiltonian cycle, when added, makes g strongly connected, so more
    # pairs are protected and counterexamples need more faults.
    if cycle:
        g = g.add_edges([(v, (v + 1) % g.n) for v in range(g.n)])
    spec, pairs, global_variant = variant_checks(g)[which]
    ids = sorted(g.edge_ids())
    kept = greedy_preserver(g, spec, k).kept_edges
    _, twin = _twins(g)
    candidates = [
        kept,
        greedy_preserver(g, spec, max(k - 1, 0)).kept_edges,
        data.draw(st.frozensets(st.sampled_from(ids))),
        frozenset(e.id for e in g.edges if e.tail != e.head),
        frozenset(ids) - {twin},
    ]
    if kept:
        candidates.append(kept - {data.draw(st.sampled_from(sorted(kept)))})
    for cand in candidates:
        got = _outcome(verify_ft(g, cand, spec, k))
        assert got == _expected(first_counterexample_ref(g, cand, pairs, k, global_variant))


@PROPERTY
@given(loopy_multigraphs(), st.booleans(), st.integers(0, 3), st.data())
def test_other_fault_universes_match_reference(g, cycle, k, data):
    # (ok, pair, faults) of the color-family and 1-bounded-degree searches
    # against sweeps over every family and every matching of g.  Four colors
    # on a multigraph give pairs whose edges differ in color, so a pair dies
    # only when several colors fail.  H is g, g without one edge (often one
    # of a parallel pair), a random subset, or g without its self-loops.
    if cycle:
        g = g.add_edges([(v, (v + 1) % g.n) for v in range(g.n)])
    colors = data.draw(st.lists(st.integers(0, 3), min_size=g.m, max_size=g.m))
    colored = DiGraph(g.n, [(e.tail, e.head, c) for e, c in zip(g.edges, colors)])
    ids = sorted(g.edge_ids())
    for cand in (
        frozenset(ids),
        frozenset(ids) - {data.draw(st.sampled_from(ids))},
        data.draw(st.frozensets(st.sampled_from(ids))),
        frozenset(e.id for e in g.edges if e.tail != e.head),
    ):
        got = _outcome(verify_color_ft(colored, cand, k))
        assert got == _expected(first_color_counterexample_ref(colored, cand, k))
        got = _outcome(verify_bounded_degree_ft(g, cand))
        assert got == _expected(first_bounded_degree_counterexample_ref(g, cand))


@PROPERTY
@given(loopy_multigraphs(), st.integers(0, 4), st.data())
def test_changed_matches_reference(g, which, data):
    # the removed edge may be inactive or a self-loop; the fault holds
    # other edges, active or not
    spec, pairs, global_variant = variant_checks(g)[which]
    oracle = ConnectivityOracle(g, spec)
    ids = sorted(g.edge_ids())
    active = data.draw(st.frozensets(st.sampled_from(ids)))
    eid = data.draw(st.sampled_from(ids))
    fault = tuple(sorted(data.draw(st.frozensets(st.sampled_from(ids))) - {eid}))
    view = oracle.bind(active)
    base = oracle.state(view, fault)
    got = oracle.changed(base, view, fault, eid)
    assert got == oracle.breaks(base, oracle.state(view, (*fault, eid)))
    before = (set(ids) - active) | set(fault)
    after = before | {eid}
    if global_variant:
        ref = is_strongly_connected_ref(g, before) and not is_strongly_connected_ref(g, after)
    else:
        ref = any(
            strongly_connected_pair_ref(g, before, a, b)
            and not strongly_connected_pair_ref(g, after, a, b)
            for a, b in pairs
        )
    assert got == ref


def _twins(g):
    """The first two parallel edges of g, as (first id, second id)."""
    first = {}
    for e in g.edges:
        other = first.setdefault((e.tail, e.head), e.id)
        if other != e.id:
            return other, e.id
    raise AssertionError("loopy_multigraphs always repeats an edge")


def _matching(g, ids):
    """Greedy 1-bounded-degree fault set: each vertex touched at most once."""
    touched, fault = set(), set()
    for eid in ids:
        ends = {g.edge(eid).tail, g.edge(eid).head}
        if not ends & touched:
            touched |= ends
            fault.add(eid)
    return frozenset(fault)


def _witness_ref(g, kept, cross, fault, s, y):
    return (
        strongly_connected_pair_ref(g, fault, s, y)
        and not strongly_connected_pair_ref(g, fault | {cross}, s, y)
        and cross in kept
    )


@PROPERTY
@given(loopy_multigraphs(), st.data(), st.integers(0, 3), st.integers(0, 1))
def test_giant_component_check_matches_reference(g, data, k, q):
    terminals = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=2))
    target = len(terminals) - 2 * q
    want = target <= 0 or all(
        any(len(comp & terminals) >= target for comp in scc_sets_ref(g, fault))
        for fault in fault_sets_ref(g.edge_ids(), k)
    )
    assert giant_component_check(g, terminals, q, k) == want


@PROPERTY
@given(loopy_multigraphs(), st.data())
def test_witness_checks_match_reference(g, data):
    # a twin of the cross edge that survives the faults keeps the pair
    # adjacent, so such a witness never stands
    ids = sorted(g.edge_ids())
    vertex = st.integers(0, g.n - 1)
    s, y = data.draw(vertex), data.draw(vertex)
    cross = data.draw(st.sampled_from(ids))
    kept = data.draw(st.frozensets(st.sampled_from(ids)))
    twin, other = _twins(g)
    picks = data.draw(st.permutations(ids))

    fault = _matching(g, picks)
    got = verify_bounded_degree_witness(g, kept, cross, fault, s, y)
    assert got == _witness_ref(g, kept, cross, fault, s, y)
    spared = _matching(g, [eid for eid in picks if eid != other])
    assert not verify_bounded_degree_witness(g, kept | {twin}, twin, spared, s, y)

    colors = data.draw(st.lists(st.integers(0, 2), min_size=g.m, max_size=g.m))
    colors[other] = 3  # the twin's own color, never failed below
    colored = DiGraph(g.n, [(e.tail, e.head, c) for e, c in zip(g.edges, colors)])
    failed = data.draw(st.sampled_from(sorted(set(colors) - {3})))
    fault = frozenset(eid for eid in ids if colors[eid] == failed)
    got = verify_color_witness(colored, kept, cross, failed, s, y)
    assert got == _witness_ref(colored, kept, cross, fault, s, y)
    assert not verify_color_witness(colored, kept | {twin}, twin, failed, s, y)


@PROPERTY
@given(loopy_multigraphs())
def test_hierarchy_pieces_match_reference_walk(g):
    # per level, the SCCs of the prefix graph (g without the edges that
    # leave the prefix) with their members at that level
    hier = build_hierarchy(g, HierarchyParams(q=2, k=1), verify_certificates=False)
    levels = [piece.level for piece in hier.pieces]
    assert levels == sorted(levels)
    prefix = set()
    for i, level in enumerate(hier.levels, start=1):
        prefix |= level
        outside = {e.id for e in g.edges if not {e.tail, e.head} <= prefix}
        want = {(c, c & level) for c in scc_sets_ref(g, outside) if c <= prefix}
        got = [(piece.component, piece.terminals) for piece in hier.pieces if piece.level == i]
        assert len(got) == len(want) and set(got) == want
    for piece in hier.pieces:
        if piece.terminals:
            assert (piece.graph, piece.to_parent) == g.induced(piece.component)
            assert {piece.to_parent[j] for j in piece.local_terminals} == piece.terminals
        else:
            assert piece.graph is None


@PROPERTY
@given(
    loopy_multigraphs(),
    st.data(),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
)
def test_sparsest_cut_matches_reference(g, data, phi):
    # the scan reads only sides with boundary <= floor(phi * floor(|U| / 2)):
    # phi = 0 leaves the sides with no boundary, and phi = 3/2 admits
    # boundaries above the smaller terminal side
    terminals = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=2))
    cut = sparsest_cut_wrt(g, terminals, phi)
    got = None if cut is None else (cut.side, cut.boundary)
    assert got == sparsest_cut_ref(g, terminals, phi)


def _terminal_pair(g, data):
    """Two distinct vertices of g, drawn as (x, y)."""
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 2))
    return x, y + (y >= x)


@PROPERTY
@given(loopy_multigraphs(), st.data())
def test_canonicalizers_match_reference(g, data):
    # each vertex is in X, in Y, on the side only, or outside it
    labels = data.draw(st.lists(st.sampled_from("xyso"), min_size=g.n, max_size=g.n))
    x, y = _terminal_pair(g, data)
    labels[x], labels[y] = "x", "y"
    X = {v for v in range(g.n) if labels[v] == "x"}
    Y = {v for v in range(g.n) if labels[v] == "y"}
    side = X | {v for v in range(g.n) if labels[v] == "s"}
    for direction, canonicalize in (
        ("out", canonicalize_out_reachable),
        ("in", canonicalize_in_reachable),
    ):
        cut = canonicalize(g, make_cut(g, side, direction), X, Y)
        assert cut.direction == direction
        assert (cut.side, cut.boundary) == reachable_cut_ref(g, side, X, direction)


@PROPERTY
@given(loopy_multigraphs(), st.data(), st.integers(0, 3))
def test_in_important_cuts_match_reversed_graph(g, data, k):
    # the reference is the detour through a reversed graph: its out-cuts,
    # with their in-boundaries read in g
    x, y = _terminal_pair(g, data)
    rev = enumerate_important_cuts(g.reverse(), [x], [y], k, "out")
    want = tuple(make_cut(g, c.side, "in") for c in rev)
    assert enumerate_important_cuts(g, [x], [y], k, "in") == want


@PROPERTY
@given(loopy_multigraphs(), st.data())
def test_boundary_heads_count_boundary_edges(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    want = len(boundary_edges(g, mask_to_set(mask)))
    assert len(bind(g).boundary_heads(mask)) == want


@PROPERTY
@given(loopy_multigraphs(), st.integers(0, 4), st.integers(0, 2))
def test_greedy_output_verifies_and_is_minimal(g, which, k):
    # sound: the output keeps every protected pair under every fault set;
    # minimal: each kept edge is critical in the output itself
    spec, pairs, whole = variant_checks(g)[which]
    kept = greedy_preserver(g, spec, k).kept_edges
    assert verify_ft_ref(g, kept, pairs, k, whole)
    h = g.restrict_to(kept)
    for eid in kept:
        assert ft_critical_ref(h, eid, pairs, k, whole)


@PROPERTY
@given(loopy_multigraphs(), st.data(), st.integers(0, 2))
def test_sscp_sandwich(g, data, k):
    # S = sscp(G, u, k) preserves every G' with S <= G' <= G, greedy on G'
    # returns S again, and the FptCache answers G' from G's entry
    u = data.draw(st.integers(0, g.n - 1))
    kept = sscp(g, u, k).kept_edges
    extra = data.draw(st.frozensets(st.sampled_from(sorted(g.edge_ids()))))
    mid = g.restrict_to(kept | extra)
    pairs = [(u, v) for v in range(g.n) if v != u]
    assert verify_ft_ref(g, kept, pairs, k)
    assert verify_ft_ref(mid, kept, pairs, k)
    assert sscp(mid, u, k).kept_edges == kept
    cache = FptCache()
    cache.sscp_for(g, u, k)
    assert cache.sscp_for(mid, u, k) == kept
    (entry,) = cache.sscp_entries.values()
    assert entry[2] == frozenset(g.edges)  # reused, not recomputed on mid


def _container_ref(g, terminals, q, k, seed):
    """critical_edge_container with every draw made and every container
    built: (edges, per-vertex terminals, distinct draws in draw order, the
    keys (x, Y, budget, direction) of the containers that hold a cut)."""
    U = sorted(terminals)
    rng = random.Random(seed)
    lam = sample_count(g.n)
    draws = [
        frozenset(U) if len(U) < q else frozenset(rng.sample(U, q)) for _ in range(lam)
    ]
    samples = tuple(dict.fromkeys(draws))
    edges = set()
    for u in U[: 5 * q * q]:
        edges |= sscp(g, u, k).kept_edges
    per_vertex = {}
    with_cut = set()

    def container(x, y_set, budget, direction):
        res = important_cut_container(g, [x], y_set, budget, direction)
        if res.cut is not None:
            with_cut.add((x, y_set, budget, direction))
        return res

    for v in range(g.n):
        side = set()
        for q_set in samples:
            if v not in q_set:
                for direction in ("out", "in"):
                    side |= container(v, q_set, k, direction).side
        per_vertex[v] = frozenset(side) & terminals
        for u in sorted(per_vertex[v] - {v}):
            for direction in ("out", "in"):
                edges |= container(u, frozenset([v]), k + 1, direction).boundary
    return frozenset(edges), per_vertex, samples, with_cut


@dataclass
class AskedCache(FptCache):
    """FptCache that records the container keys asked of it."""

    asked: set = field(default_factory=set)

    def container_side(self, g, x, y_set, k, direction):
        self.asked.add((x, y_set, k, direction))
        return super().container_side(g, x, y_set, k, direction)


@PROPERTY
@given(loopy_multigraphs(), st.data(), st.integers(1, 4), st.integers(0, 2))
def test_container_matches_unfiltered_reference(g, data, q, k):
    # a container skipped by a single-pair flow holds no cut, and draws
    # after saturation add no sample
    terminals = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=1))
    seed = data.draw(st.integers(0, 1 << 20))
    cache = AskedCache()
    report = critical_edge_container(g, terminals, q, k, seed, cache)
    edges, per_vertex, samples, with_cut = _container_ref(g, terminals, q, k, seed)
    assert with_cut <= cache.asked
    assert report.per_vertex_terminals == per_vertex
    assert report.edges == edges
    assert report.sampled_sets == samples
    assert report.draws <= report.sample_count
    if report.draws < report.sample_count and len(terminals) > q:
        assert len(samples) == comb(len(terminals), q)


@PROPERTY
@given(loopy_multigraphs(), st.integers(0, 5), st.data())
def test_scan_remove_equals_fresh_bind(g, which, data):
    # the view edited in place equals a bind of the smaller active set,
    # also for self-loops and ids removed twice
    oracle = ConnectivityOracle(g, _specs(g)[which])
    scan = CriticalityScan(oracle, g.edge_ids(), 1)
    ids = sorted(g.edge_ids())
    for eid in data.draw(st.lists(st.sampled_from(ids), max_size=2 * len(ids))):
        scan.remove(eid)
        assert scan.view == oracle.bind(scan.active)


@PROPERTY
@given(loopy_multigraphs(), st.data())
def test_minus_edge_equals_fresh_bind(g, data):
    view, kept = bind(g), set(g.edge_ids())
    for eid in data.draw(st.permutations(sorted(g.edge_ids()))):
        edge = g.edge(eid)
        view = view.minus_edge(edge.tail, edge.head)
        kept.discard(eid)
        fresh = bind(g.restrict_to(kept))
        for name in fresh.__slots__:
            assert getattr(view, name) == getattr(fresh, name), name
