import random

import pytest

from sccpreserve import kconn
from sccpreserve.digraph import DiGraph
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.expander import is_unbreakable
from sccpreserve.families import gen_random
from sccpreserve.flowcut import boundary_edges
from sccpreserve.kconn import (
    check_kcritical_cut_bound,
    default_part_size,
    demand_pairs,
    greedy_kconn_preserver,
    unbreakability_decomposition,
)
from sccpreserve.verify import verify_kconn

from conftest import bidirected_k4, bidirected_triangle, directed_path, loopy_multigraph
from oracles import symmetric_connectivity_ref


def test_demand_pairs_empty_for_single_vertex():
    assert demand_pairs(DiGraph(1), 2).pairs == ()


def test_demand_pairs_triangle():
    dp = demand_pairs(bidirected_triangle(), 2)
    assert len(dp.pairs) == 2
    assert all(lam == 2 for _, _, lam in dp.pairs)
    dp1 = demand_pairs(bidirected_triangle(), 1)
    assert all(lam == 1 for _, _, lam in dp1.pairs)


def test_demand_pairs_clamped_against_reference():
    for trial in range(10):
        g = gen_random(5, 10, 600 + trial)
        for u, v, lam in demand_pairs(g, 2).pairs:
            assert lam == symmetric_connectivity_ref(g, u, v, 2)


def test_path_min_property():
    rng = random.Random(9)
    for trial in range(20):
        g = gen_random(6, rng.randrange(6, 16), 100 + trial)
        k = rng.randrange(1, 3)
        dp = demand_pairs(g, k)
        from sccpreserve.flowcut import symmetric_connectivity

        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert symmetric_connectivity(g, u, v, k) == dp.path_min(u, v)


def test_greedy_kconn_triangle():
    g = bidirected_triangle()
    res1 = greedy_kconn_preserver(g, 1)
    # ascending-id scan on this edge ordering lands on the 4-arc minimal
    # preserver 0<->2, 1<->2; other scan orders give a directed 3-cycle,
    # and both are edge-minimal and verifier-accepted
    assert res1.kept_edges == frozenset({2, 3, 4, 5})
    assert verify_kconn(g, res1.kept_edges, 1).ok
    rotated = DiGraph(3, [(1, 0), (2, 1), (0, 2), (0, 1), (1, 2), (2, 0)])
    res_rot = greedy_kconn_preserver(rotated, 1)
    assert len(res_rot.kept_edges) == 3  # a directed 3-cycle
    assert verify_kconn(rotated, res_rot.kept_edges, 1).ok
    res2 = greedy_kconn_preserver(g, 2)
    assert res2.kept_edges == g.edge_ids()


def test_greedy_kconn_demand_pairs_mode_matches_all_pairs_mode():
    # demand-pair preservation is equivalent to all-pairs preservation,
    # so the two scan modes accept the same removals and agree exactly
    rng = random.Random(31)
    for trial in range(12):
        g = gen_random(6, rng.randrange(8, 16), 200 + trial, ensure_strongly_connected=True)
        k = rng.randrange(1, 3)
        fast = greedy_kconn_preserver(g, k, use_demand_pairs=True)
        slow = greedy_kconn_preserver(g, k, use_demand_pairs=False)
        assert fast.kept_edges == slow.kept_edges
        assert verify_kconn(g, fast.kept_edges, k).ok


def test_greedy_kconn_output_is_edge_minimal():
    # one pass in either mode: dropping any kept edge breaks some pair
    rng = random.Random(67)
    graphs = [
        gen_random(6, rng.randrange(8, 15), 400 + trial, ensure_strongly_connected=True)
        for trial in range(4)
    ]
    graphs += [loopy_multigraph(rng, rng.randrange(3, 6)) for _ in range(4)]
    for g in graphs:
        for k in (1, 2):
            for use_demand_pairs in (False, True):
                res = greedy_kconn_preserver(g, k, use_demand_pairs)
                assert res.stats["removal_attempts"] == g.m
                kept = res.kept_edges
                assert verify_kconn(g, kept, k).ok
                for eid in kept:
                    e = g.edge(eid)
                    assert e.tail != e.head
                    assert not verify_kconn(g, kept - {eid}, k).ok, (k, use_demand_pairs, eid)


def test_demand_pair_sufficiency_for_subgraphs():
    # preserving the demand pairs is equivalent to preserving all pairs
    rng = random.Random(77)
    from sccpreserve.flowcut import symmetric_connectivity

    for trial in range(10):
        g = gen_random(5, 10, 300 + trial, ensure_strongly_connected=True)
        k = 2
        dp = demand_pairs(g, k)
        ids = sorted(g.edge_ids())
        for _ in range(8):
            kept = frozenset(rng.sample(ids, rng.randrange(3, len(ids) + 1)))
            h = g.restrict_to(kept)
            on_pairs = all(
                symmetric_connectivity(h, u, v, k) == lam for u, v, lam in dp.pairs
            )
            on_all = verify_kconn(g, kept, k).ok
            assert on_pairs == on_all


def test_decomposition_k4_single_part():
    deco = unbreakability_decomposition(bidirected_k4(), 1, 1)
    assert deco.parts == (frozenset({0, 1, 2, 3}),)
    assert deco.cuts == ()


def test_decomposition_path_splits_once():
    deco = unbreakability_decomposition(directed_path(4), 2, 1)
    assert len(deco.cuts) == 1
    assert len(deco.parts) == 2
    for part in deco.parts:
        assert len(part) == 2


def test_decomposition_large_q_never_splits():
    g = gen_random(6, 14, 1, ensure_strongly_connected=True)
    deco = unbreakability_decomposition(g, 4, 1)  # q > n/2
    assert deco.parts == (frozenset(range(6)),)


def test_decomposition_invariants_random():
    rng = random.Random(55)
    for trial in range(15):
        n = rng.randrange(4, 9)
        g = gen_random(n, rng.randrange(n, 3 * n), 400 + trial)
        q = rng.randrange(1, 4)
        k = rng.randrange(0, 3)
        deco = unbreakability_decomposition(g, q, k)
        flat = sorted(v for part in deco.parts for v in part)
        assert flat == list(range(n))
        assert len(deco.cuts) <= n // q if q > 0 else True
        if deco.cuts:
            assert all(len(part) >= q for part in deco.parts)
        for part in deco.parts:
            assert is_unbreakable(g, part, q, k).unbreakable
        for cut in deco.cuts:
            assert len(cut.boundary) <= k


def _restart_decomposition(g, q, k):
    """The decomposition by a scan that restarts after every split."""
    parts = [frozenset(range(g.n))]
    cuts = []
    progress = True
    while progress:
        progress = False
        for part in sorted(parts, key=min):
            if len(part) < 2 * q:
                continue
            res = is_unbreakable(g, part, q - 1, k)
            if not res.unbreakable:
                parts.remove(part)
                parts += [part & res.witness.side, part - res.witness.side]
                cuts.append(res.witness)
                progress = True
                break
    return tuple(sorted(parts, key=min)), tuple(cuts)


def test_decomposition_splits_in_restart_order():
    # the heap of unchecked parts splits what a restarting scan splits, in
    # the same order
    rng = random.Random(56)
    for trial in range(40):
        n = rng.randrange(2, 10)
        g = gen_random(n, rng.randrange(n, 3 * n), 600 + trial,
                       ensure_strongly_connected=bool(trial % 2))
        for q in (1, 2, 3):
            for k in (0, 1, 2):
                deco = unbreakability_decomposition(g, q, k)
                assert (deco.parts, deco.cuts) == _restart_decomposition(g, q, k)


def test_decomposition_checks_each_part_once(monkeypatch):
    checked = []

    def counted(g, part, q, k):
        checked.append(frozenset(part))
        return is_unbreakable(g, part, q, k)

    monkeypatch.setattr(kconn, "is_unbreakable", counted)
    deco = unbreakability_decomposition(gen_random(10, 13, 67, True), 2, 1)
    assert len(deco.parts) == 4
    assert len(checked) == len(set(checked)) == 4


def test_decomposition_cut_bookkeeping():
    # every cross-part edge of the host graph crosses a recorded cut
    rng = random.Random(13)
    for trial in range(10):
        g = gen_random(6, 16, 500 + trial, ensure_strongly_connected=True)
        deco = unbreakability_decomposition(g, 2, 1)
        part_of = {}
        for i, part in enumerate(deco.parts):
            for v in part:
                part_of[v] = i
        crossing = set()
        for cut in deco.cuts:
            crossing |= boundary_edges(g, cut.side, "out")
            crossing |= boundary_edges(g, cut.side, "in")
        for e in g.edges:
            if part_of[e.tail] != part_of[e.head]:
                assert e.id in crossing


def test_cut_bound_cycle():
    g = DiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    report = check_kcritical_cut_bound(g, 1, sample_limit=None)
    assert report.violations == ()
    assert report.cuts_checked > 0


def test_cut_bound_full_enumeration_guarded():
    g = DiGraph(17, [(i, (i + 1) % 17) for i in range(17)])
    with pytest.raises(CapabilityError):
        check_kcritical_cut_bound(g, 1, sample_limit=None)
    sampled = check_kcritical_cut_bound(g, 1, sample_limit=50)
    assert sampled.violations == ()


def test_cut_bound_rejects_negative_sample_limit():
    g = DiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(InputError):
        check_kcritical_cut_bound(g, 1, sample_limit=-1)


def test_cut_bound_on_greedy_outputs():
    rng = random.Random(61)
    for trial in range(10):
        g = gen_random(6, rng.randrange(8, 16), 700 + trial, ensure_strongly_connected=True)
        k = rng.randrange(1, 3)
        h = g.restrict_to(greedy_kconn_preserver(g, k).kept_edges)
        report = check_kcritical_cut_bound(h, k)
        assert report.violations == ()


def test_cut_bound_triangle_minimal():
    g = bidirected_triangle()
    h = g.restrict_to(greedy_kconn_preserver(g, 1).kept_edges)
    report = check_kcritical_cut_bound(h, 1)
    assert report.violations == ()


def test_intra_part_degree_certificate():
    # inside each decomposition part of a k-critical output, each edge sees
    # a small out-degree at its tail or a small in-degree at its head
    rng = random.Random(83)
    for trial in range(8):
        g = gen_random(7, 18, 800 + trial, ensure_strongly_connected=True)
        k = rng.randrange(1, 3)
        h = g.restrict_to(greedy_kconn_preserver(g, k).kept_edges)
        q = default_part_size(h.n, k)
        deco = unbreakability_decomposition(h, q, k)
        for part in deco.parts:
            sub, to_parent = h.induced(part)
            for e in sub.edges:
                outdeg = sum(f.tail == e.tail for f in sub.edges)
                indeg = sum(f.head == e.head for f in sub.edges)
                assert min(outdeg, indeg) <= q + k


def test_cut_bound_sampled_sides():
    g = gen_random(8, 18, 4, ensure_strongly_connected=True)
    h = g.restrict_to(greedy_kconn_preserver(g, 1).kept_edges)
    report = check_kcritical_cut_bound(h, 1, sample_limit=40, seed=2)
    assert report.violations == ()
    again = check_kcritical_cut_bound(h, 1, sample_limit=40, seed=2)
    assert report == again  # seeded sampling is reproducible


def test_default_part_size():
    assert default_part_size(9, 1) == 3
    assert default_part_size(8, 2) == 4
    assert default_part_size(0, 1) == 1
