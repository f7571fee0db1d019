"""Property tests: each shortcut against its plain reference.

Examples are derandomized, so every run checks the same fixed set.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sccpreserve.digraph import DiGraph
from sccpreserve.variants import ConnectivityOracle, CriticalityScan, VariantSpec, fault_sets_colex

from conftest import variant_checks

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
