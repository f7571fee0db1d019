import random

import pytest

from sccpreserve.digraph import DiGraph
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.families import gen_bounded_degree_lower, gen_random
from sccpreserve.flowcut import boundary_edges, canonicalize_in_reachable, flow_value
from sccpreserve.impcut import (
    NO_SMALL_CUTS,
    OK,
    check_anti_isolation,
    enumerate_important_cuts,
    important_cut_container,
)

from conftest import diamond, loopy_multigraph


def test_container_single_edge():
    g = DiGraph(2, [(0, 1)])
    res = important_cut_container(g, [0], [1], 1)
    assert res.status == OK
    assert res.side == frozenset({0})
    assert res.boundary == frozenset({0})
    assert len(res.boundary) <= 1  # lam * 2^{k-lam} = 1


def test_container_path_contains_all_small_cuts():
    g = DiGraph(3, [(0, 1), (1, 2)])
    # {0} is dominated by {0, 1} at equal boundary size, so only the latter
    # is important; the container still covers both out-reachable cuts
    cuts = enumerate_important_cuts(g, [0], [2], 1)
    assert {c.side for c in cuts} == {frozenset({0, 1})}
    res = important_cut_container(g, [0], [2], 1)
    assert res.side == frozenset({0, 1})
    assert res.boundary == frozenset({1})
    for out_reachable_side in (frozenset({0}), frozenset({0, 1})):
        assert out_reachable_side <= res.side


def test_container_sentinel_when_flow_exceeds_k():
    res = important_cut_container(diamond(), [0], [3], 1)
    assert res.status == NO_SMALL_CUTS
    assert res.cut is None
    assert res.side == frozenset()


def test_container_diamond_budget():
    g = diamond()
    res = important_cut_container(g, [0], [3], 3)
    lam = res.flow_value
    assert lam == 2
    assert len(res.boundary) <= lam * 2 ** (3 - lam)
    for cut in enumerate_important_cuts(g, [0], [3], 3):
        assert cut.side <= res.side


def test_enumerate_important_cuts_examples():
    g = DiGraph(2, [(0, 1)])
    cuts = enumerate_important_cuts(g, [0], [1], 1)
    assert [c.side for c in cuts] == [frozenset({0})]
    assert enumerate_important_cuts(diamond(), [0], [3], 1) == ()


def test_enumerate_guard(monkeypatch):
    g = gen_random(9, 10, 0)
    monkeypatch.setenv("SCC_PRESERVE_MAX_ENUM_VERTICES", "8")
    with pytest.raises(CapabilityError):
        enumerate_important_cuts(g, [0], [8], 1)


def _out_reachable_sides_ref(g, x, y, k):
    """All out-reachable (x, y)-cut sides of size <= k, by definition."""
    from itertools import combinations

    found = []
    for r in range(1, g.n):
        for side in combinations(range(g.n), r):
            side = set(side)
            if x not in side or y in side:
                continue
            boundary = {e.id for e in g.edges if e.tail in side and e.head not in side}
            if len(boundary) > k:
                continue
            seen = {x}
            queue = [x]
            while queue:
                v = queue.pop()
                for e in g.edges:
                    if e.tail == v and e.id not in boundary and e.head not in seen:
                        seen.add(e.head)
                        queue.append(e.head)
            if side <= seen:
                found.append(frozenset(side))
    return found


def test_container_soundness_random():
    rng = random.Random(7)
    for trial in range(120):
        g = gen_random(rng.randrange(4, 8), rng.randrange(6, 16), trial)
        x, y = 0, g.n - 1
        for k in range(0, 4):
            res = important_cut_container(g, [x], [y], k)
            cuts = enumerate_important_cuts(g, [x], [y], k)
            if res.status == NO_SMALL_CUTS:
                assert cuts == ()
                continue
            lam = res.flow_value
            assert lam <= k
            assert len(res.boundary) <= lam * 2 ** (k - lam)
            for cut in cuts:
                assert cut.side <= res.side
            # the stronger guarantee: every out-reachable cut fits too
            for side in _out_reachable_sides_ref(g, x, y, k):
                assert side <= res.side


def test_container_nested_sides():
    rng = random.Random(3)
    for trial in range(60):
        g = gen_random(6, rng.randrange(6, 14), 1000 + trial)
        res = important_cut_container(g, [0], [5], 3)
        if res.status != OK:
            continue
        chain = res.nested_sides
        for earlier, later in zip(chain, chain[1:]):
            assert earlier <= later
        assert chain[-1] == res.side


def test_container_direction_duality():
    for trial in range(40):
        g = gen_random(6, 12, 2000 + trial)
        res_in = important_cut_container(g, [0], [5], 2, "in")
        res_out = important_cut_container(g.reverse(), [0], [5], 2, "out")
        assert res_in.status == res_out.status
        assert res_in.side == res_out.side


def test_container_rejects_bad_input():
    with pytest.raises(InputError):
        important_cut_container(diamond(), [0], [0], 1)
    with pytest.raises(InputError):
        important_cut_container(diamond(), [0], [3], -1)


def test_in_cuts_enumerate_via_reverse():
    g = DiGraph(3, [(0, 1), (1, 2)])
    cuts = enumerate_important_cuts(g, [2], [0], 1, "in")
    assert {c.side for c in cuts} == {frozenset({1, 2})}
    for c in cuts:
        assert c.direction == "in"
        assert c.boundary == frozenset({0})


def test_anti_isolation_star():
    g = DiGraph(3, [(0, 1), (0, 2)])
    report = check_anti_isolation(g, 0, [1, 2], [frozenset({1}), frozenset({0})], 1)
    assert report.valid_instance and report.bound_holds
    assert report.r == 2 == report.limit


def test_anti_isolation_k0():
    g = DiGraph(2, [(0, 1)])
    report = check_anti_isolation(g, 0, [1], [frozenset()], 0)
    assert report.valid_instance and report.bound_holds and report.r == 1


def test_anti_isolation_tree_is_tight():
    for k in (1, 2, 3):
        g, meta = gen_bounded_degree_lower(2**k, 1)
        sinks = meta["x_vertices"]
        faults = [frozenset(meta["witnesses"][next(
            eid for eid in meta["cross_edges"] if g.edge(eid).tail == x
        )]) for x in sinks]
        report = check_anti_isolation(g, meta["s"], sinks, faults, k)
        assert report.valid_instance
        assert report.r == 2**k == report.limit
        assert report.bound_holds


def test_anti_isolation_length_mismatch():
    g = DiGraph(2, [(0, 1)])
    with pytest.raises(InputError):
        check_anti_isolation(g, 0, [1], [], 1)


def test_anti_isolation_invalid_instance_detected():
    g = DiGraph(3, [(0, 1), (0, 2)])
    report = check_anti_isolation(g, 0, [1, 2], [frozenset(), frozenset()], 1)
    assert not report.valid_instance


def test_in_container_is_out_container_of_reverse_on_multigraphs():
    rng = random.Random(11)
    for _ in range(60):
        g = loopy_multigraph(rng, rng.randrange(2, 8))
        rev = g.reverse()
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                for k in range(4):
                    res_in = important_cut_container(g, [x], [y], k, "in")
                    res_out = important_cut_container(rev, [x], [y], k, "out")
                    assert res_in.status == res_out.status
                    assert res_in.flow_value == res_out.flow_value
                    assert res_in.k_star == res_out.k_star
                    assert res_in.nested_sides == res_out.nested_sides
                    assert res_in.side == res_out.side
                    if res_in.cut is not None:
                        assert res_in.cut.direction == "in"
                        assert res_in.boundary == boundary_edges(g, res_in.side, "in")


def test_in_container_builds_no_reversed_graph(monkeypatch):
    g = gen_random(6, 12, 2024)

    def refuse(self):
        raise AssertionError("reverse() called")

    monkeypatch.setattr(DiGraph, "reverse", refuse)
    res = important_cut_container(g, [0], [5], 2, "in")
    assert res.flow_value == flow_value(g, [5], [0])
    for cut in enumerate_important_cuts(g, [0], [5], 2, "in"):
        assert canonicalize_in_reachable(g, cut, [0], [5]) == cut
