"""Property tests: each shortcut against its plain reference.

Examples are derandomized, so every run checks the same fixed set.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sccpreserve.digraph import DiGraph
from sccpreserve.expander import HierarchyParams, build_hierarchy, giant_component_check
from sccpreserve.variants import ConnectivityOracle, CriticalityScan, VariantSpec, fault_sets_colex
from sccpreserve.verify import verify_bounded_degree_witness, verify_color_witness

from conftest import variant_checks
from oracles import fault_sets_ref, scc_sets_ref, strongly_connected_pair_ref

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
@given(loopy_multigraphs(), st.data(), st.integers(0, 2), st.integers(0, 1))
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
