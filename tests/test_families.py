import pytest

from sccpreserve.digraph import scc
from sccpreserve.errors import InputError
from sccpreserve.families import (
    gen_baswana_tree,
    gen_bounded_degree_lower,
    gen_color_fault_lower,
    gen_random,
    gen_st_lower,
)

from oracles import reach_ref, edge_list, strongly_connected_pair_ref


def test_baswana_tree_counts_k1():
    g, meta = gen_baswana_tree(1, 1)
    # root + 2 leaves + 1 sink; 2 tree + 2 cross + 1 return edges
    assert g.n == 4
    assert g.m == 5
    assert len(meta["cross_edges"]) == 2
    assert meta["s"] == 0


def test_baswana_tree_counts_k2():
    g, meta = gen_baswana_tree(2, 3)
    assert len(meta["x_vertices"]) == 4
    assert len(meta["cross_edges"]) == 12
    assert len(scc(g).components) == 1  # strongly connected


def test_baswana_tree_witnesses_isolate_leaves():
    g, meta = gen_baswana_tree(2, 2)
    for eid in meta["cross_edges"]:
        x = g.edge(eid).tail
        fault = set(meta["witnesses"][eid])
        assert len(fault) == 2
        reached = reach_ref(g.n, edge_list(g, fault), [meta["s"]])
        assert set(meta["x_vertices"]) & reached == {x}


def test_baswana_tree_rejects_bad_params():
    with pytest.raises(InputError):
        gen_baswana_tree(0, 1)
    with pytest.raises(InputError):
        gen_baswana_tree(2, 0)


def test_st_lower_structure():
    g, meta = gen_st_lower(2, 2)
    assert g.n == 11  # 3 chain + 2 layers x (2 + 2) internals
    assert g.m == 17  # 2 layers x (2 + 2 tree + 4 cross) + closing edge
    assert len(meta["cross_edges"]) == 8
    assert meta["s"] == 0 and meta["t"] == 2
    assert len(scc(g).components) == 1


def test_st_lower_one_layer():
    g, meta = gen_st_lower(1, 2)
    assert len(meta["cross_edges"]) == 4


def test_st_lower_witnesses():
    g, meta = gen_st_lower(2, 2)
    s, t = meta["s"], meta["t"]
    for eid in meta["cross_edges"]:
        fault = frozenset(meta["witnesses"][eid])
        assert len(fault) == 2
        assert strongly_connected_pair_ref(g, fault, s, t)
        assert not strongly_connected_pair_ref(g, fault | {eid}, s, t)


def test_st_lower_rejects_odd_k():
    with pytest.raises(InputError):
        gen_st_lower(2, 3)
    with pytest.raises(InputError):
        gen_st_lower(0, 2)


def test_bounded_degree_counts():
    g, meta = gen_bounded_degree_lower(4, 2)
    assert len(meta["cross_edges"]) == 8
    g2, meta2 = gen_bounded_degree_lower(2, 1)
    assert len(meta2["cross_edges"]) == 2
    with pytest.raises(InputError):
        gen_bounded_degree_lower(4, 0)
    with pytest.raises(InputError):
        gen_bounded_degree_lower(3, 1)


def test_bounded_degree_witnesses_are_one_bounded():
    g, meta = gen_bounded_degree_lower(8, 1)
    for eid in meta["cross_edges"]:
        fault = meta["witnesses"][eid]
        touched = {}
        for fid in fault:
            e = g.edge(fid)
            for v in (e.tail, e.head):
                touched[v] = touched.get(v, 0) + 1
        assert max(touched.values()) == 1


def test_color_graph_every_edge_colored_once():
    g, meta = gen_color_fault_lower(4, 2)
    assert all(e.color is not None for e in g.edges)


def test_color_failure_isolates_leaf():
    g, meta = gen_color_fault_lower(4, 2)
    for color, leaf in meta["color_to_leaf"].items():
        fault = {e.id for e in g.edges if e.color == color}
        reached = reach_ref(g.n, edge_list(g, fault), [meta["s"]])
        assert set(meta["x_vertices"]) & reached == {leaf}


def test_color_zero_disconnects_sinks():
    g, meta = gen_color_fault_lower(4, 2)
    fault = {e.id for e in g.edges if e.color == 0}
    reached = reach_ref(g.n, edge_list(g, fault), [meta["s"]])
    assert not set(meta["y_vertices"]) & reached


def test_random_backbone_only():
    g = gen_random(5, 0, 3, ensure_strongly_connected=True)
    assert g.m == 5
    assert len(scc(g).components) == 1


def test_random_deterministic():
    assert gen_random(8, 20, 9) == gen_random(8, 20, 9)
    assert gen_random(8, 20, 9) != gen_random(8, 20, 10)


def test_random_counts_and_no_self_loops():
    g = gen_random(8, 20, 1, ensure_strongly_connected=True)
    assert g.m == 20
    assert all(e.tail != e.head for e in g.edges)
    g2 = gen_random(6, 9, 2)
    assert g2.m == 9


@pytest.mark.parametrize("count", [2.0, 2.5, True, "2"])
def test_counts_are_ints(count):
    # a float count used to raise a bare TypeError or ValueError, and True
    # quietly counted as 1
    calls = [
        lambda: gen_random(count, 6, 1),
        lambda: gen_random(4, count, 1),
        lambda: gen_baswana_tree(count, 1),
        lambda: gen_baswana_tree(1, count),
        lambda: gen_bounded_degree_lower(count, 1),
        lambda: gen_bounded_degree_lower(2, count),
        lambda: gen_st_lower(count, 2),
        lambda: gen_st_lower(1, count),
        lambda: gen_color_fault_lower(count, 1),
        lambda: gen_color_fault_lower(2, count),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()
