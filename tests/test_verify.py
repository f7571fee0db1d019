import random

import pytest

from sccpreserve.digraph import DiGraph
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.flowcut import bind
from sccpreserve.preservers import greedy_preserver
from sccpreserve.families import (
    gen_bounded_degree_lower,
    gen_color_fault_lower,
    gen_random,
)
from sccpreserve.variants import VariantSpec
from sccpreserve.verify import (
    enumerate_critical_edges,
    verify_bounded_degree_witness,
    verify_color_ft,
    verify_color_witness,
    verify_ft,
    verify_ft_by_cuts,
    verify_kconn,
    verify_kconn_by_cuts,
)

from conftest import bidirected_triangle, loopy_multigraph, three_cycle, variant_checks
from oracles import (
    fault_set_count,
    first_color_counterexample_ref,
    first_counterexample_ref,
    verify_ft_ref,
)


def all_pairs_of(g):
    return [(a, b) for a in range(g.n) for b in range(g.n) if a != b]


def test_identity_always_verifies():
    rng = random.Random(1)
    for trial in range(10):
        g = gen_random(6, 12, trial)
        for spec in (VariantSpec.all_pairs(), VariantSpec.global_(),
                     VariantSpec.single_source(0), VariantSpec.st(0, 5)):
            assert verify_ft(g, g.edge_ids(), spec, 2).ok


def test_triangle_missing_arc_fails_k1():
    g = bidirected_triangle()
    kept = sorted(g.edge_ids())[:5]
    res = verify_ft(g, kept, VariantSpec.all_pairs(), 1)
    assert not res.ok
    assert res.counterexample is not None
    pair, faults = res.counterexample.pair, res.counterexample.faults
    assert len(faults) <= 1
    assert pair is not None


def test_chord_drop_ok_at_k0():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    res = verify_ft(g, {0, 1, 2, 3}, VariantSpec.all_pairs(), 0)
    assert res.ok


def test_verify_matches_reference():
    rng = random.Random(47)
    for trial in range(20):
        g = gen_random(5, rng.randrange(5, 12), 40 + trial)
        ids = sorted(g.edge_ids())
        kept = frozenset(rng.sample(ids, rng.randrange(2, len(ids) + 1)))
        k = rng.randrange(0, 3)
        got = verify_ft(g, kept, VariantSpec.all_pairs(), k).ok
        assert got == verify_ft_ref(g, kept, all_pairs_of(g), k)
        got_global = verify_ft(g, kept, VariantSpec.global_(), k).ok
        assert got_global == verify_ft_ref(g, kept, [], k, global_variant=True)


def test_counterexample_is_colex_minimal():
    g = bidirected_triangle()
    kept = sorted(g.edge_ids())[:5]
    res = verify_ft(g, kept, VariantSpec.all_pairs(), 1)
    # recheck by hand: no earlier fault set in colex order breaks anything
    from sccpreserve.variants import ConnectivityOracle, fault_sets_colex

    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    view_g, view_h = oracle.bind(g.edge_ids()), oracle.bind(frozenset(kept))
    for fault in fault_sets_colex(sorted(g.edge_ids()), 1):
        state_g = oracle.state(view_g, fault)
        state_h = oracle.state(view_h, fault)
        if oracle.breaks(state_g, state_h):
            assert frozenset(fault) == res.counterexample.faults
            break


def test_counterexample_is_colex_first_over_host_edges():
    # verify_ft scans only subsets of E(H); its counterexample must still be
    # the colex-first failing fault set over all of E(G).  A (k-1)-FT
    # preserver checked at k mostly fails on a nonempty fault set.  The
    # hosts include multigraphs with self-loops and parallel edges, every
    # variant (global included) is checked, and verify_color_ft checks the
    # same scan over color families.
    rng = random.Random(89)
    for trial in range(18):
        if trial < 12:
            g = gen_random(5, rng.randrange(6, 10), 500 + trial,
                           ensure_strongly_connected=trial % 2 == 0)
        else:
            g = loopy_multigraph(rng, 5)
        ids = sorted(g.edge_ids())
        colored = DiGraph(g.n, [(e.tail, e.head, rng.randrange(4)) for e in g.edges])
        for k in (1, 2):
            for cand in (
                frozenset(ids),
                frozenset(rng.sample(ids, rng.randrange(len(ids) + 1))),
                frozenset(ids) - {rng.choice(ids)},
            ):
                res = verify_color_ft(colored, cand, k)
                ref = first_color_counterexample_ref(colored, cand, k)
                if ref is None:
                    assert res.ok
                    continue
                assert not res.ok
                got = (res.counterexample.pair, res.counterexample.faults)
                assert got == ref, (trial, k, sorted(cand))
        for spec, pairs, global_variant in variant_checks(g):
            weaker = None
            for k in (0, 1, 2):
                kept = greedy_preserver(g, spec, k).kept_edges
                candidates = [kept, frozenset(rng.sample(ids, rng.randrange(len(ids) + 1)))]
                if kept:
                    candidates.append(kept - {rng.choice(sorted(kept))})
                if weaker is not None:
                    candidates.append(weaker)
                weaker = kept
                for cand in candidates:
                    res = verify_ft(g, cand, spec, k)
                    ref = first_counterexample_ref(g, cand, pairs, k, global_variant)
                    if ref is None:
                        assert res.ok
                        continue
                    assert not res.ok
                    got = (res.counterexample.pair, res.counterexample.faults)
                    assert got == ref, (trial, k, spec.kind, sorted(cand))


def test_verify_ft_counts_search_nodes(monkeypatch):
    # the cap bounds the fault sets the search visits, not the
    # C(|E(H)|, <= k) sets a sweep would scan
    g = gen_random(8, 30, 3, ensure_strongly_connected=True)
    spec = VariantSpec.all_pairs()
    kept = greedy_preserver(g, spec, 2).kept_edges
    assert fault_set_count(len(kept), 2) > 100
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "100")
    assert verify_ft(g, kept, spec, 2).ok
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "10")
    with pytest.raises(CapabilityError):
        verify_ft(g, kept, spec, 2)


def test_subset_failure_monotone():
    rng = random.Random(59)
    for trial in range(10):
        g = gen_random(5, 10, 120 + trial, ensure_strongly_connected=True)
        ids = sorted(g.edge_ids())
        kept = frozenset(rng.sample(ids, 7))
        if verify_ft(g, kept, VariantSpec.all_pairs(), 1).ok:
            continue
        smaller = frozenset(sorted(kept)[:-1])
        assert not verify_ft(g, smaller, VariantSpec.all_pairs(), 1).ok


def test_capability_guard(monkeypatch):
    # past the cap the search raises, even with a counterexample beyond it
    g = gen_random(6, 14, 0, ensure_strongly_connected=True)
    spec = VariantSpec.all_pairs()
    kept = greedy_preserver(g, spec, 1).kept_edges
    assert not verify_ft(g, kept, spec, 2).ok
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "5")
    with pytest.raises(CapabilityError):
        verify_ft(g, kept, spec, 2)


def test_verify_kconn_examples():
    g = bidirected_triangle()
    assert verify_kconn(g, g.edge_ids(), 2).ok
    res = verify_kconn(g, sorted(g.edge_ids())[:5], 2)
    assert not res.ok and res.counterexample.pair is not None
    cycle_ids = {0, 4, 3}  # (0,1), (1,2), (2,0): a directed 3-cycle
    assert verify_kconn(g, cycle_ids, 1).ok


def _verify_kconn_by_symmetric(g, kept, k):
    """Reference: the first row-major pair whose clamped connectivity in H,
    read whole by ``FlowView.symmetric``, differs from g's."""
    view_h = bind(g.restrict_to(kept))
    for s, t, want in bind(g).symmetric_pairs(k):
        if want and view_h.symmetric(s, t, k) != want:
            return s, t
    return None


def test_verify_kconn_matches_symmetric_rule():
    # verify_kconn shares kconn's pair-target check, whose two flows are each
    # capped at the target; verdict and pair must equal the whole-symmetric rule
    rng = random.Random(28)
    failing = 0
    for trial in range(300):
        n = rng.randrange(2, 7)
        g = gen_random(n, rng.randrange(n, 3 * n), trial, rng.random() < 0.6)
        ids = sorted(g.edge_ids())
        kept = rng.sample(ids, rng.randrange(len(ids) + 1))
        k = rng.randrange(0, 4)
        want = _verify_kconn_by_symmetric(g, kept, k)
        res = verify_kconn(g, kept, k)
        assert res.ok == (want is None)
        if want is not None:
            failing += 1
            assert res.counterexample.pair == want
            assert res.counterexample.faults == frozenset()
    assert 50 < failing < 250


def test_enumerate_critical_edges_examples():
    cycle = three_cycle()
    assert enumerate_critical_edges(cycle, VariantSpec.all_pairs(), 1) == cycle.edge_ids()
    tri = bidirected_triangle()
    assert enumerate_critical_edges(tri, VariantSpec.all_pairs(), 1) == tri.edge_ids()
    dag = DiGraph(3, [(0, 1), (1, 2)])
    assert enumerate_critical_edges(dag, VariantSpec.all_pairs(), 1) == frozenset()


def test_critical_edges_monotone_in_k():
    rng = random.Random(67)
    for trial in range(12):
        g = gen_random(5, rng.randrange(6, 12), 160 + trial,
                       ensure_strongly_connected=True)
        prev = frozenset()
        for k in (0, 1, 2):
            cur = enumerate_critical_edges(g, VariantSpec.all_pairs(), k)
            assert prev <= cur
            prev = cur


def test_cut_verifier_agrees_with_flow_verifier():
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randrange(3, 7)
        g = gen_random(n, rng.randrange(4, 12), 200 + trial)
        ids = sorted(g.edge_ids())
        kept = frozenset(rng.sample(ids, rng.randrange(1, len(ids) + 1)))
        for k in (0, 1, 2):
            flow_verdict = verify_ft(g, kept, VariantSpec.all_pairs(), k).ok
            cut_verdict = verify_ft_by_cuts(g, kept, k)
            assert flow_verdict == cut_verdict, (trial, k)
            kflow = verify_kconn(g, kept, k).ok
            kcut = verify_kconn_by_cuts(g, kept, k)
            assert kflow == kcut, (trial, k)


def test_cut_verifiers_identity_and_cycle():
    g = three_cycle()
    assert verify_ft_by_cuts(g, g.edge_ids(), 0)
    assert not verify_ft_by_cuts(g, {0, 1}, 0)
    assert not verify_ft(g, {0, 1}, VariantSpec.all_pairs(), 0).ok
    assert verify_kconn_by_cuts(g, g.edge_ids(), 2)


def test_bounded_degree_witnesses_from_generator():
    g, meta = gen_bounded_degree_lower(4, 2)
    for eid in meta["cross_edges"]:
        fault = frozenset(meta["witnesses"][eid])
        y = g.edge(eid).head
        assert verify_bounded_degree_witness(g, g.edge_ids(), eid, fault, meta["s"], y)


def test_bounded_degree_witness_rejects_bad_model():
    g, meta = gen_bounded_degree_lower(4, 1)
    eid = meta["cross_edges"][0]
    y = g.edge(eid).head
    too_many = frozenset(meta["tree_edges"][:3])  # touches the root repeatedly
    with pytest.raises(InputError):
        verify_bounded_degree_witness(g, g.edge_ids(), eid, too_many, meta["s"], y)


def test_bounded_degree_witness_empty_fault_redundant_edge():
    g, meta = gen_bounded_degree_lower(2, 2)
    eid = meta["cross_edges"][0]
    y = g.edge(eid).head
    assert not verify_bounded_degree_witness(g, g.edge_ids(), eid, frozenset(),
                                             meta["s"], y)


def test_color_witnesses_from_generator():
    g, meta = gen_color_fault_lower(4, 2)
    for eid in meta["cross_edges"]:
        color = meta["cross_edge_color"][eid]
        y = g.edge(eid).head
        assert verify_color_witness(g, g.edge_ids(), eid, color, meta["s"], y)


def test_color_zero_failure_invalidates_witness():
    g, meta = gen_color_fault_lower(4, 2)
    eid = meta["cross_edges"][0]
    y = g.edge(eid).head
    assert not verify_color_witness(g, g.edge_ids(), eid, 0, meta["s"], y)


def test_unknown_color_rejected():
    g, meta = gen_color_fault_lower(2, 1)
    eid = meta["cross_edges"][0]
    with pytest.raises(InputError):
        verify_color_witness(g, g.edge_ids(), eid, 99, meta["s"], g.edge(eid).head)


def test_single_color_graph_fails_entirely():
    g = DiGraph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    assert not verify_color_witness(g, g.edge_ids(), 0, 0, 0, 1)


def test_full_bounded_degree_universe_verification(monkeypatch):
    from sccpreserve.verify import verify_bounded_degree_ft

    g, meta = gen_bounded_degree_lower(2, 1)
    assert verify_bounded_degree_ft(g, g.edge_ids()).ok
    eid = meta["cross_edges"][0]
    res = verify_bounded_degree_ft(g, g.edge_ids() - {eid})
    assert not res.ok
    assert res.counterexample.pair is not None
    # the cap counts search nodes.  A tripled cross edge with two copies
    # kept (no matching faults both) passes, and a dropped cross edge fails;
    # both searches see more than two fault sets.  H = g searches nothing.
    big, meta = gen_bounded_degree_lower(8, 2)
    cross = big.edge(meta["cross_edges"][0])
    tripled = big.add_edges([(cross.tail, cross.head)] * 2)
    passing = tripled.edge_ids() - {cross.id}
    failing = big.edge_ids() - {cross.id}
    assert verify_bounded_degree_ft(tripled, passing).ok
    assert not verify_bounded_degree_ft(big, failing).ok
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "2")
    assert verify_bounded_degree_ft(big, big.edge_ids()).ok
    with pytest.raises(CapabilityError):
        verify_bounded_degree_ft(tripled, passing)
    with pytest.raises(CapabilityError):
        verify_bounded_degree_ft(big, failing)


def test_full_color_universe_verification():
    from sccpreserve.verify import verify_color_ft

    g, meta = gen_color_fault_lower(2, 1)
    assert verify_color_ft(g, g.edge_ids(), k=1).ok
    eid = meta["cross_edges"][0]
    res = verify_color_ft(g, g.edge_ids() - {eid}, k=1)
    assert not res.ok
    # the failing family names colors, not edges
    assert res.counterexample.faults <= {e.color for e in g.edges}


def test_color_universe_requires_full_coloring():
    g = DiGraph(2, [(0, 1)])
    from sccpreserve.verify import verify_color_ft

    with pytest.raises(InputError):
        verify_color_ft(g, g.edge_ids(), k=1)
