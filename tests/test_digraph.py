import copy
import pickle
import random

import pytest

from sccpreserve.digraph import (
    DiGraph, Edge, parse, reach_mask, scc, serialize, shortest_path,
)
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.expander import giant_component_check, is_unbreakable, sparsest_cut_wrt
from sccpreserve.families import gen_random
from sccpreserve.flowcut import (
    Cut,
    bind,
    canonicalize_in_reachable,
    canonicalize_out_reachable,
    farthest_min_cut,
    flow_value,
    max_flow,
    symmetric_connectivity,
)
from sccpreserve.fpt import critical_edge_container
from sccpreserve.impcut import (
    check_anti_isolation,
    enumerate_important_cuts,
    important_cut_container,
)
from sccpreserve.kconn import demand_pairs
from sccpreserve.preservers import sscp_group
from sccpreserve.variants import SOURCEWISE, ConnectivityOracle, VariantSpec
from sccpreserve.verify import verify_ft

from conftest import bidirected_triangle, three_cycle
from oracles import scc_sets_ref


def test_scc_cycle_is_one_component():
    part = scc(three_cycle())
    assert part.components == (frozenset({0, 1, 2}),)
    assert part.component_of == (0, 0, 0)


def test_scc_chain_is_singletons():
    g = DiGraph(3, [(0, 1), (1, 2)])
    part = scc(g)
    assert set(part.components) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_scc_mixed():
    g = DiGraph(3, [(0, 1), (1, 0), (1, 2)])
    part = scc(g)
    assert set(part.components) == {frozenset({0, 1}), frozenset({2})}


def test_scc_topological_order_respects_edges():
    g = DiGraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (5, 0)])
    part = scc(g)
    index = {v: part.component_of[v] for v in range(6)}
    for e in g.edges:
        assert index[e.tail] <= index[e.head]


def test_remove_edges_keeps_identities():
    g = three_cycle()
    h = g.remove_edges({0})
    assert {e.id for e in h.edges} == {1, 2}
    assert h.edge(1).tail == 1 and h.edge(2).head == 0


def test_remove_edges_empty_is_identity():
    g = three_cycle()
    assert g.remove_edges(frozenset()) == g


def test_remove_one_parallel_edge():
    g = DiGraph(2, [(0, 1), (0, 1)])
    h = g.remove_edges({0})
    assert [e.id for e in h.edges] == [1]
    assert h.edge(1).head == 1


def test_remove_unknown_edge_raises():
    with pytest.raises(InputError):
        three_cycle().remove_edges({7})


def test_reverse():
    g = DiGraph(2, [(0, 1)])
    assert [(e.tail, e.head) for e in g.reverse().edges] == [(1, 0)]


def test_induced_renumbers_with_back_mapping():
    g = three_cycle()
    sub, to_parent = g.induced({0, 1})
    assert to_parent == (0, 1)
    assert [(e.id, e.tail, e.head) for e in sub.edges] == [(0, 0, 1)]


def test_induced_preserves_edge_ids():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    sub, to_parent = g.induced({1, 2, 3})
    assert {e.id for e in sub.edges} == {1, 2, 3}
    assert all(to_parent[e.tail] == g.edge(e.id).tail for e in sub.edges)


def test_induced_on_every_vertex_is_the_graph():
    g = DiGraph(3, [(0, 1), (1, 1), (1, 2), (2, 0), (0, 1, 4)])
    sub, to_parent = g.induced([2, 0, 1, 1])
    assert sub is g and to_parent == (0, 1, 2)
    with pytest.raises(InputError):
        g.induced([0, 1, 3])


def test_restrict_to_all_is_identity():
    g = bidirected_triangle()
    assert g.restrict_to(g.edge_ids()) == g


def test_add_edges_extends_ids():
    g = three_cycle()
    h = g.add_edges([(0, 2), (2, 1, 5)])
    assert h.m == 5
    assert h.edge(3).head == 2
    assert h.edge(4).color == 5


def test_scc_reverse_same_partition():
    for seed in range(25):
        g = gen_random(7, 14, seed)
        assert set(scc(g).components) == set(scc(g.reverse()).components)


def test_removal_refines_components():
    for seed in range(25):
        g = gen_random(7, 16, seed, ensure_strongly_connected=True)
        before = scc(g).components
        after = scc(g.remove_edges({0, 3})).components
        for comp in after:
            assert any(comp <= old for old in before)


def test_scc_matches_reference():
    for seed in range(25):
        g = gen_random(6, 12, seed)
        assert set(scc(g).components) == scc_sets_ref(g)


def test_self_loop_does_not_affect_scc():
    g = DiGraph(2, [(0, 0), (0, 1)])
    assert set(scc(g).components) == {frozenset({0}), frozenset({1})}


def test_roundtrip_exact():
    g = DiGraph(3, [(0, 1), (0, 1), (1, 2, 4), (2, 0)])
    assert parse(serialize(g)) == g
    assert serialize(parse(serialize(g))) == serialize(g)


def test_parse_comments_and_parallel_lines():
    text = "# corpus graph\n3 3\n0 1\n0 1\n# middle comment\n1 2\n"
    g = parse(text)
    assert g.m == 3
    assert g.edge(0).head == 1 and g.edge(1).head == 1


def test_parse_rejects_bad_counts():
    with pytest.raises(InputError):
        parse("2 2\n0 1\n")


def test_parse_caps_the_vertex_count():
    # a header alone must not make the loader allocate for any n it names
    with pytest.raises(CapabilityError):
        parse("200001 0\n")
    assert parse("200000 0\n").n == 200_000


def test_vertex_range_checked():
    with pytest.raises(InputError):
        DiGraph(2, [(0, 5)])


@pytest.mark.parametrize(
    "spec", [(0.5, 1), (0, 1, 1.5), (0, 1, None), (0,), (0, 1, 2, 3), 5, (True, 1), "01"]
)
def test_bad_edge_spec_is_input_error(spec):
    # an accepted edge must print as a line that parse reads back
    with pytest.raises(InputError):
        DiGraph(2, [spec])
    with pytest.raises(InputError):
        DiGraph(2, [(0, 1)]).add_edges([spec])


@pytest.mark.parametrize("ids", [(1, 0, 2), (0, 2, 2), (3, 3)])
def test_records_out_of_order_or_repeated_are_input_error(ids):
    # derived graphs pass their records in ascending id order, never sorted
    records = [Edge(eid, 0, 1) for eid in ids]
    with pytest.raises(InputError, match="strictly ascend"):
        DiGraph(2, _records=records)


def test_pickle_and_deepcopy_round_trip():
    g = DiGraph(4, [(0, 1, 2), (1, 2), (1, 2), (2, 0, 0), (3, 3, 1)])
    sub = g.remove_edges([1])  # gapped ids must survive
    for original in (g, sub, DiGraph(0)):
        for copy_of in (
            lambda x: pickle.loads(pickle.dumps(x)),
            copy.deepcopy,
            copy.copy,
        ):
            clone = copy_of(original)
            assert clone == original
            assert hash(clone) == hash(original)
            assert clone.signature() == original.signature()
            assert [e.color for e in clone.edges] == [e.color for e in original.edges]
            assert sorted(clone.edge_ids()) == sorted(original.edge_ids())


def _distance(adj, start, goal):
    """Arcs on a shortest start-goal path by plain BFS, or None."""
    dist = {start: 0}
    queue = [start]
    for v in queue:
        for w in range(len(adj)):
            if adj[v] >> w & 1 and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist.get(goal)


def test_shortest_path_matches_full_reach():
    # The early-exit search finds a path exactly when the full reach set
    # holds the goal, and the path is a shortest one along existing arcs,
    # including from a start with no out-neighbours and with goal == start.
    rng = random.Random(83)
    for _ in range(400):
        n = rng.randrange(1, 9)
        adj = [rng.getrandbits(n) if rng.random() < 0.7 else 0 for _ in range(n)]
        v = rng.randrange(n)
        adj[v] = 0
        for start in (v, rng.randrange(n)):
            for goal in (start, rng.randrange(n), rng.randrange(n)):
                path = shortest_path(adj, start, goal)
                assert (path is not None) == bool(reach_mask(adj, 1 << start) >> goal & 1)
                if path is None:
                    continue
                assert path[0] == start and path[-1] == goal
                assert all(adj[a] >> b & 1 for a, b in zip(path, path[1:]))
                assert len(path) - 1 == _distance(adj, start, goal)
    assert shortest_path([0, 0], 0, 0) == [0]
    assert shortest_path([0, 0b01], 0, 1) is None
    # two shortest paths 0-1-3 and 0-2-3: the walk back takes the lower one
    assert shortest_path([0b0110, 0b1000, 0b1000, 0], 0, 3) == [0, 1, 3]


_BAD_VERTICES = (True, 1.5, "1", None)


@pytest.mark.parametrize(
    "call",
    [
        # a vertex set that is not an iterable
        pytest.param(lambda g: g.induced(5), id="induced"),
        pytest.param(lambda g: is_unbreakable(g, 5, 1, 1), id="unbreakable"),
        pytest.param(lambda g: giant_component_check(g, 5, 0, 1), id="giant"),
        pytest.param(lambda g: sparsest_cut_wrt(g, 5, "1/2"), id="sparsest-cut"),
        pytest.param(lambda g: flow_value(g, 5, [0]), id="flow-value"),
        pytest.param(lambda g: max_flow(g, [0], 5), id="max-flow"),
        pytest.param(lambda g: farthest_min_cut(g, 5, [0]), id="farthest-min-cut"),
        pytest.param(lambda g: important_cut_container(g, 5, [0], 1), id="container"),
        pytest.param(lambda g: enumerate_important_cuts(g, [0], 5, 1), id="important-cuts"),
        pytest.param(
            lambda g: canonicalize_out_reachable(g, Cut(5, "out", frozenset()), [0], [3]),
            id="canonical-out-side",
        ),
        pytest.param(
            lambda g: canonicalize_in_reachable(g, Cut(5, "in", frozenset()), [0], [3]),
            id="canonical-in-side",
        ),
        pytest.param(lambda g: critical_edge_container(g, 5, 1, 1, 0), id="critical-container"),
        pytest.param(lambda g: check_anti_isolation(g, 0, 5, [], 1), id="anti-isolation"),
        pytest.param(lambda g: sscp_group(g, 5, 1), id="sscp-group"),
        pytest.param(
            lambda g: ConnectivityOracle(g, VariantSpec(SOURCEWISE, sources=5)),
            id="sourcewise-spec",
        ),
        pytest.param(
            lambda g: verify_ft(g, g.edge_ids(), VariantSpec(SOURCEWISE, sources=5), 1),
            id="verify-sourcewise-spec",
        ),
        # a vertex that is not an int in [0, n): a bool, a float, a str, None
        *(
            pytest.param(lambda g, v=v: symmetric_connectivity(g, v, 0, 1), id=f"symmetric-{v!r}")
            for v in _BAD_VERTICES
        ),
        *(
            pytest.param(lambda g, v=v: bind(g).symmetric(0, v, 1), id=f"view-symmetric-{v!r}")
            for v in _BAD_VERTICES
        ),
        *(
            pytest.param(lambda g, v=v: demand_pairs(g, 1).path_min(v, 0), id=f"path-min-{v!r}")
            for v in _BAD_VERTICES
        ),
        # checked before the k = 0 shortcut
        pytest.param(lambda g: symmetric_connectivity(g, 0, 9, 0), id="symmetric-k0-range"),
    ],
)
def test_bad_vertices_raise_input_error(call):
    # each entry point checks its vertices by digraph.check_vertex, through
    # DiGraph.vertex_set for a collection of them
    with pytest.raises(InputError):
        call(gen_random(8, 20, 1, True))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: g.restrict_to(5), id="restrict-to"),
        pytest.param(lambda g: g.remove_edges(5), id="remove-edges"),
        pytest.param(lambda g: verify_ft(g, 5, VariantSpec.all_pairs(), 1), id="verify-kept"),
        pytest.param(lambda g: check_anti_isolation(g, 0, [1], 5, 1), id="anti-isolation-faults"),
        pytest.param(lambda g: check_anti_isolation(g, 0, [1], [5], 1), id="anti-isolation-fault"),
        pytest.param(lambda g: VariantSpec.sourcewise(5), id="sourcewise"),
        pytest.param(lambda g: g.edge_set([[0]]), id="unhashable-id"),
    ],
)
def test_non_iterable_id_collections_raise_input_error(call):
    # edge ids go through DiGraph.edge_set, a spec's sources through
    # digraph.id_set; each raised a bare TypeError before
    with pytest.raises(InputError, match="expected a collection|must be sequences"):
        call(gen_random(6, 12, 1, True))


def test_edge_set_is_the_checked_frozenset():
    g = gen_random(4, 6, 0)
    assert g.edge_set(iter([5, 0, 5])) == frozenset({0, 5})
    assert g.edge_set(()) == frozenset()
    for bad in ([6], [-1], ["0"], 0):
        with pytest.raises(InputError):
            g.edge_set(bad)


def test_vertex_set_is_the_checked_frozenset():
    g = gen_random(4, 6, 0)
    assert g.vertex_set(iter([3, 0, 3])) == frozenset({0, 3})
    assert g.vertex_set(()) == frozenset()
    for bad in ([4], [-1], [True], [[0]], 0):
        with pytest.raises(InputError):
            g.vertex_set(bad)
