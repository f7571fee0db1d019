import random
from collections import Counter

import pytest

from sccpreserve.digraph import DiGraph, mask_to_set, set_to_mask
from sccpreserve.errors import InputError
from sccpreserve.families import gen_random
from sccpreserve.flowcut import (
    _Residual,
    bind,
    boundary_edges,
    canonicalize_in_reachable,
    canonicalize_out_reachable,
    farthest_min_cut,
    flow_value,
    make_cut,
    max_flow,
    symmetric_connectivity,
)

from conftest import bidirected_triangle, diamond, diamond_with_chord, loopy_multigraph
from oracles import flow_by_path_families, maximal_min_cut_side, min_cut_ref


def test_diamond_flow_is_two():
    g = diamond()
    assert flow_by_path_families(g, [0], [3]) == 2  # independent oracle
    res = max_flow(g, [0], [3])
    assert res.value == 2
    assert len(res.witness_paths) == 2
    assert len(res.min_cut.boundary) == 2


def test_single_edge_flow():
    g = DiGraph(2, [(0, 1)])
    assert max_flow(g, [0], [1]).value == 1


def test_cap_clamps_value():
    g = bidirected_triangle()
    res = max_flow(g, [0], [1], cap=1)
    assert res.value == 1
    assert res.min_cut is None  # clamped early, no certified cut


def test_overlapping_terminals_rejected():
    with pytest.raises(InputError):
        max_flow(diamond(), [0, 1], [1])


def test_witness_paths_are_edge_disjoint():
    for seed in range(20):
        g = gen_random(6, 14, seed, ensure_strongly_connected=True)
        res = max_flow(g, [0], [3])
        used = [eid for path in res.witness_paths for eid in path]
        assert len(used) == len(set(used))
        assert res.value == len(res.witness_paths) == len(res.min_cut.boundary)


def test_max_flow_min_cut_against_enumeration():
    for seed in range(30):
        g = gen_random(6, 12, seed)
        value = max_flow(g, [0], [5]).value
        assert value == min_cut_ref(g, [0], [5])


def test_symmetric_connectivity_examples():
    g = bidirected_triangle()
    assert symmetric_connectivity(g, 0, 1, 1) == 1
    assert symmetric_connectivity(g, 0, 1, 3) == 2  # two disjoint routes each way
    chain = DiGraph(2, [(0, 1)])
    assert symmetric_connectivity(chain, 0, 1, 2) == 0


def test_symmetric_connectivity_is_symmetric():
    for seed in range(20):
        g = gen_random(6, 14, seed)
        for k in (1, 2, 3):
            assert symmetric_connectivity(g, 0, 4, k) == symmetric_connectivity(
                g, 4, 0, k
            )


def test_symmetric_connectivity_rejects_equal_endpoints():
    with pytest.raises(InputError):
        symmetric_connectivity(diamond(), 1, 1, 2)


def test_fmc_single_edge():
    g = DiGraph(2, [(0, 1)])
    assert farthest_min_cut(g, [0], [1]).side == frozenset({0})


def test_fmc_diamond_with_chord():
    cut = farthest_min_cut(diamond_with_chord(), [0], [3])
    assert cut.side == frozenset({0, 1, 2})
    assert cut.side == maximal_min_cut_side(diamond_with_chord(), [0], [3])


def test_fmc_matches_maximal_min_cut():
    for seed in range(40):
        g = gen_random(6, 12, seed)
        cut = farthest_min_cut(g, [0], [5])
        assert cut.side == maximal_min_cut_side(g, [0], [5])
        assert len(cut.boundary) == min_cut_ref(g, [0], [5])


def test_fmc_zero_flow_side_is_not_reaching_set():
    g = DiGraph(4, [(0, 1), (3, 2)])
    cut = farthest_min_cut(g, [0], [2])
    assert cut.side == frozenset({0, 1})
    assert cut.boundary == frozenset()


def test_flow_increase_law_on_chord_diamond():
    # adding (s, v) for v outside the farthest side raises the flow by one
    g = diamond_with_chord()
    cut = farthest_min_cut(g, [0], [3])
    base = max_flow(g, [0], [3]).value
    for v in set(range(4)) - cut.side:
        extended = g.add_edges([(0, v)])
        assert max_flow(extended, [0], [3]).value == base + 1


def test_fmc_nesting_under_source_edges():
    for seed in range(30):
        g = gen_random(6, 10, seed)
        before = farthest_min_cut(g, [0], [5]).side
        extended = g.add_edges([(0, 2), (0, 4)])
        after = farthest_min_cut(extended, [0], [5]).side
        assert before <= after


def test_canonicalize_idempotent_on_reachable_cut():
    g = diamond()
    cut = make_cut(g, {0, 1}, "out")
    out = canonicalize_out_reachable(g, cut, [0], [3])
    assert out.side == frozenset({0, 1})
    assert out.boundary <= cut.boundary


def test_canonicalize_drops_unreachable_vertices():
    g = DiGraph(4, [(0, 1), (1, 3)])
    cut = make_cut(g, {0, 1, 2}, "out")  # 2 is isolated
    out = canonicalize_out_reachable(g, cut, [0], [3])
    assert out.side == frozenset({0, 1})


def test_canonicalize_boundary_shrinks_and_stays_reachable():
    for seed in range(30):
        g = gen_random(6, 14, seed)
        side = {0, 1, 2}
        if side & {5}:
            continue
        cut = make_cut(g, side, "out")
        out = canonicalize_out_reachable(g, cut, [0], [5])
        assert out.boundary <= cut.boundary
        # every surviving vertex is reachable from X avoiding the new boundary
        again = canonicalize_out_reachable(g, out, [0], [5])
        assert again.side == out.side


def test_canonicalize_rejects_non_cut():
    g = diamond()
    with pytest.raises(InputError):
        canonicalize_out_reachable(g, make_cut(g, {0, 3}, "out"), [0], [3])


@pytest.mark.parametrize("canonicalize", [canonicalize_out_reachable, canonicalize_in_reachable])
@pytest.mark.parametrize("stray", [-1, 99])
def test_canonicalize_rejects_side_vertex_out_of_range(canonicalize, stray):
    # such a vertex was dropped silently: both used to give side {0}
    g = DiGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        canonicalize(g, make_cut(g, {0, stray}), [0], [1])


def test_canonicalize_in_reachable_mirrors():
    g = DiGraph(3, [(0, 1), (1, 2)])
    cut = make_cut(g, {1, 2}, "in")
    out = canonicalize_in_reachable(g, cut, [2], [0])
    assert out.direction == "in"
    assert out.side == frozenset({1, 2})
    assert out.boundary == frozenset({0})


def test_boundary_helper_directions():
    g = diamond()
    assert boundary_edges(g, {0}, "out") == frozenset({0, 1})
    assert boundary_edges(g, {3}, "in") == frozenset({2, 3})


# -- the bound view against the arc-list network and the cut oracles -------


def _loopy_hosts(seed, count):
    rng = random.Random(seed)
    return [loopy_multigraph(rng, rng.randrange(2, 8)) for _ in range(count)]


def _terminal_pairs(g, rng, count):
    """Single-vertex pairs plus random disjoint terminal sets."""
    pairs = [([x], [y]) for x in range(g.n) for y in range(g.n) if x != y]
    for _ in range(count):
        order = list(range(g.n))
        rng.shuffle(order)
        cut = rng.randrange(1, g.n)
        pairs.append((order[:cut], order[cut : cut + rng.randrange(1, g.n - cut + 1)]))
    return pairs


def test_view_values_match_residual_and_min_cut():
    rng = random.Random(5)
    for g in _loopy_hosts(41, 60):
        view = bind(g)
        for X, Y in _terminal_pairs(g, rng, 4):
            x_mask, y_mask = set_to_mask(X), set_to_mask(Y)
            full = _Residual(g, X, Y).run()
            assert full == min_cut_ref(g, X, Y)
            assert view.value(x_mask, y_mask) == full
            assert flow_value(g, X, Y) == full
            for cap in range(full + 2):
                expect = _Residual(g, X, Y).run(cap)
                assert expect == min(full, cap)
                assert view.value(x_mask, y_mask, cap) == expect


def test_view_counts_parallel_edges():
    g = DiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (2, 2)])
    view = bind(g)
    assert view.value(0b001, 0b100) == 2
    assert view.value(0b001, 0b100, cap=1) == 1
    assert view.value(0b011, 0b100) == 3


def test_view_farthest_side_with_repeated_heads():
    """A supply of c into v acts as c edges from an X vertex into v."""
    rng = random.Random(6)
    for g in _loopy_hosts(42, 60):
        view = bind(g)
        for X, Y in _terminal_pairs(g, rng, 3):
            x_mask, y_mask = set_to_mask(X), set_to_mask(Y)
            side, value = view.farthest(x_mask, y_mask)
            assert mask_to_set(side) == maximal_min_cut_side(g, X, Y)
            assert value == min_cut_ref(g, X, Y)
            outside = [v for v in range(g.n) if v not in X]
            heads = [rng.choice(outside) for _ in range(rng.randrange(1, 4))]
            heads += heads[: rng.randrange(len(heads) + 1)]  # repeats add capacity
            extended = g.add_edges([(X[0], h) for h in heads])
            supply = [heads.count(v) for v in range(g.n)]
            side, value = view.farthest(x_mask, y_mask, supply)
            assert mask_to_set(side) == maximal_min_cut_side(extended, X, Y)
            assert value == min_cut_ref(extended, X, Y)


def test_view_head_in_sink_set_is_a_unit_path():
    g = DiGraph(3, [(0, 1)])
    side, value = bind(g).farthest(0b001, 0b100, [0, 0, 2])
    assert value == 2
    assert side == 0b011


def test_view_farthest_leaves_supply_unchanged():
    # the flow uses the supply up on a copy; a caller reuses its vector
    g = DiGraph(4, [(0, 1), (1, 3), (2, 3), (2, 3)])
    view = bind(g)
    supply = [0, 1, 3, 0]
    first = view.farthest(0b0001, 0b1000, supply)
    assert supply == [0, 1, 3, 0]
    assert first == view.farthest(0b0001, 0b1000, supply) == (0b0111, 3)


def test_reverse_view_is_view_of_reversed_graph():
    rng = random.Random(7)
    for g in _loopy_hosts(43, 40):
        view = bind(g, reverse=True)
        mirror = bind(g.reverse())
        assert view.cap == mirror.cap and view.nonzero == mirror.nonzero
        for X, Y in _terminal_pairs(g, rng, 3):
            x_mask, y_mask = set_to_mask(X), set_to_mask(Y)
            assert view.value(x_mask, y_mask, 2) == mirror.value(x_mask, y_mask, 2)
            assert view.farthest(x_mask, y_mask) == mirror.farthest(x_mask, y_mask)
            side = view.farthest(x_mask, y_mask)[0]
            tails = Counter(
                e.tail for e in g.edges
                if (side >> e.head) & 1 and not (side >> e.tail) & 1
            )
            assert view.boundary_counts(side) == [tails[v] for v in range(g.n)]


def test_view_symmetric_matches_flows():
    for g in _loopy_hosts(44, 30):
        view = bind(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                for k in range(4):
                    expect = min(min_cut_ref(g, [s], [t]), min_cut_ref(g, [t], [s]), k)
                    assert view.symmetric(s, t, k) == expect
                    assert symmetric_connectivity(g, s, t, k) == expect


def test_flow_functions_check_terminals():
    g = diamond()
    with pytest.raises(InputError):
        flow_value(g, [0], [0])
    with pytest.raises(InputError):
        flow_value(g, [], [3])
    with pytest.raises(InputError):
        farthest_min_cut(g, [0], [9])
    with pytest.raises(InputError):
        symmetric_connectivity(g, 0, 9, 1)
