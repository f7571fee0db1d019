import random

import pytest

from sccpreserve.digraph import DiGraph, scc
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.expander import (
    HierarchyParams,
    build_hierarchy,
    giant_component_check,
    is_unbreakable,
)
from sccpreserve.families import gen_baswana_tree, gen_random, gen_st_lower
from sccpreserve.flowcut import flow_value, max_flow
from sccpreserve.impcut import check_anti_isolation, important_cut_container
from sccpreserve.kconn import check_kcritical_cut_bound
from sccpreserve.preservers import (
    global_from_single_source,
    greedy_preserver,
    hierarchy_preserver,
    is_ft_critical,
    sscp,
    st_from_global,
)
from sccpreserve.variants import ConnectivityOracle, CriticalityScan, VariantSpec
from sccpreserve.verify import verify_ft

from conftest import bidirected_triangle, loopy_multigraph, three_cycle, variant_checks
from oracles import ft_critical_ref, verify_ft_ref


def all_pairs_of(g):
    return [(a, b) for a in range(g.n) for b in range(g.n) if a != b]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: is_unbreakable(g, range(8), 2.5, 1), id="unbreakable-q"),
        pytest.param(lambda g: giant_component_check(g, range(8), 2.5, 1), id="giant-q"),
        pytest.param(lambda g: giant_component_check(g, range(8), 1, 1.5), id="giant-k"),
        pytest.param(lambda g: greedy_preserver(g, VariantSpec.st(0, 2.0), 1), id="st-vertex"),
        pytest.param(lambda g: flow_value(g, [0.5], [3]), id="flow-vertex"),
        pytest.param(
            lambda g: verify_ft(g, g.edge_ids(), VariantSpec.all_pairs(), 1.5), id="verify-k"
        ),
        pytest.param(
            lambda g: greedy_preserver(g, VariantSpec.all_pairs(), 1.5), id="greedy-k"
        ),
        pytest.param(lambda g: important_cut_container(g, [0], [3], 1.5), id="container-k"),
        pytest.param(
            lambda g: check_anti_isolation(g, 0, [1], [frozenset()], 1.5), id="anti-isolation-k"
        ),
        pytest.param(lambda g: sscp(g, True, 1), id="bool-vertex"),
        pytest.param(lambda g: DiGraph(2.0), id="vertex-count"),
        pytest.param(lambda g: max_flow(g, [0], [3], 1.5), id="max-flow-cap"),
        pytest.param(lambda g: flow_value(g, [0], [3], -1), id="flow-cap"),
        pytest.param(
            lambda g: check_kcritical_cut_bound(g, 1, sample_limit=2.5), id="sample-limit"
        ),
    ],
)
def test_bad_int_parameters_raise_input_error(call):
    # each of these raised a bare TypeError or was accepted, k: 1.5 included;
    # max_flow with cap 1.5 reported a "min cut" whose side held Y
    with pytest.raises(InputError):
        call(gen_random(8, 20, 1, True))


def test_cycle_edges_critical_with_empty_faults():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for e in range(4):
        res = is_ft_critical(g, e, VariantSpec.all_pairs(), 1)
        assert res.critical
        assert res.witness[1] == frozenset()


def test_triangle_arc_critical_at_k1():
    g = bidirected_triangle()
    res = is_ft_critical(g, 0, VariantSpec.all_pairs(), 1)
    assert res.critical
    pair, fault = res.witness
    assert len(fault) == 1
    assert ft_critical_ref(g, 0, all_pairs_of(g), 1)


def test_triangle_arc_not_critical_at_k0():
    g = bidirected_triangle()
    assert not is_ft_critical(g, 0, VariantSpec.all_pairs(), 0).critical
    assert not ft_critical_ref(g, 0, all_pairs_of(g), 0)


def test_criticality_matches_reference_all_variants():
    # Strongly connected hosts, then multigraphs with self-loops and parallel
    # edges that are not strongly connected, where the oracle's prune on
    # component endpoints does real work.  Every edge of every host.
    rng = random.Random(17)
    hosts = [
        gen_random(5, rng.randrange(6, 12), trial, ensure_strongly_connected=True)
        for trial in range(25)
    ]
    hosts += [loopy_multigraph(rng, rng.randrange(2, 6)) for _ in range(12)]
    for trial, g in enumerate(hosts):
        k = rng.randrange(0, 3)
        for eid in sorted(g.edge_ids()):
            for spec, pairs, global_variant in variant_checks(g):
                expect = ft_critical_ref(g, eid, pairs, k, global_variant)
                got = is_ft_critical(g, eid, spec, k).critical
                assert got == expect, (trial, eid, spec.kind, k)


def test_greedy_triangle_k1_keeps_all():
    g = bidirected_triangle()
    res = greedy_preserver(g, VariantSpec.all_pairs(), 1)
    assert res.kept_edges == g.edge_ids()


def test_greedy_triangle_k0_minimal_scc_preserver():
    g = bidirected_triangle()
    res = greedy_preserver(g, VariantSpec.all_pairs(), 0)
    h = g.restrict_to(res.kept_edges)
    assert set(scc(h).components) == set(scc(g).components)
    # edge-minimal: every survivor is critical in the output
    for eid in res.kept_edges:
        assert is_ft_critical(h, eid, VariantSpec.all_pairs(), 0).critical
    assert verify_ft_ref(g, res.kept_edges, all_pairs_of(g), 0)


def test_greedy_cycle_keeps_everything():
    g = three_cycle()
    for k in (0, 1, 2):
        assert greedy_preserver(g, VariantSpec.all_pairs(), k).kept_edges == g.edge_ids()


def test_greedy_soundness_and_minimality_random():
    rng = random.Random(41)
    for trial in range(15):
        g = gen_random(6, 13, 900 + trial, ensure_strongly_connected=True)
        k = rng.randrange(0, 3)
        res = greedy_preserver(g, VariantSpec.all_pairs(), k)
        assert verify_ft_ref(g, res.kept_edges, all_pairs_of(g), k)
        h = g.restrict_to(res.kept_edges)
        for eid in res.kept_edges:
            assert is_ft_critical(h, eid, VariantSpec.all_pairs(), k).critical


def test_greedy_minimal_on_multigraphs_all_variants():
    # one greedy pass already leaves every kept edge critical in the output,
    # also with self-loops, parallel edges and several SCCs
    rng = random.Random(71)
    for trial in range(6):
        g = loopy_multigraph(rng, rng.randrange(3, 6))
        for k in (0, 1, 2):
            for spec, pairs, global_variant in variant_checks(g):
                res = greedy_preserver(g, spec, k)
                assert res.stats["removal_attempts"] == g.m
                assert verify_ft_ref(g, res.kept_edges, pairs, k, global_variant)
                h = g.restrict_to(res.kept_edges)
                for eid in res.kept_edges:
                    assert ft_critical_ref(h, eid, pairs, k, global_variant), (
                        trial, k, spec.kind, eid,
                    )


def test_sscp_unchanged_on_sandwiched_subgraphs():
    # the FptCache reuse lemma: with S = sscp(G, u, k), greedy returns S on
    # every G' with S <= G' <= G, also on multigraphs with self-loops,
    # parallel edges and several SCCs
    rng = random.Random(83)
    for trial in range(8):
        g = loopy_multigraph(rng, rng.randrange(3, 7))
        for k in (0, 1, 2):
            u = rng.randrange(g.n)
            kept = sscp(g, u, k).kept_edges
            rest = sorted(g.edge_ids() - kept)
            for _ in range(4):
                sub = g.restrict_to(kept | {e for e in rest if rng.random() < 0.5})
                assert sscp(sub, u, k).kept_edges == kept, (trial, k, u)


def test_greedy_capability_guard(monkeypatch):
    # Each criticality search counts the fault sets it has seen; the largest
    # search on this host sees 11, of the C(19, <= 2) = 191 it could.
    g = gen_random(8, 20, 0, ensure_strongly_connected=True)
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "11")
    greedy_preserver(g, VariantSpec.all_pairs(), 2)
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "10")
    with pytest.raises(CapabilityError):
        greedy_preserver(g, VariantSpec.all_pairs(), 2)


def test_is_ft_critical_validates_before_self_loops():
    # a self-loop is never critical, but a bad k or spec is still an error
    g = DiGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
    for eid in g.edge_ids():
        assert is_ft_critical(g, eid, VariantSpec.all_pairs(), 1).critical == (eid < 3)
        for spec, k in (
            (VariantSpec.single_source(99), 1),
            (VariantSpec.all_pairs(), -1),
            (VariantSpec.single_source(99), -1),
        ):
            with pytest.raises(InputError):
                is_ft_critical(g, eid, spec, k)


def test_sscp_star_keeps_all_arcs():
    edges = []
    for leaf in (1, 2, 3):
        edges.append((0, leaf))
        edges.append((leaf, 0))
    g = DiGraph(4, edges)
    res = sscp(g, 0, 1)
    assert res.kept_edges == g.edge_ids()


def test_sscp_cycle_k0():
    assert sscp(three_cycle(), 0, 0).kept_edges == three_cycle().edge_ids()


def test_sscp_keeps_lower_bound_cross_edges():
    g, meta = gen_st_lower(1, 2)
    res = sscp(g, meta["s"], 2)
    assert set(meta["cross_edges"]) <= res.kept_edges


def test_monotone_variants_all_pairs_satisfies_all():
    rng = random.Random(3)
    for trial in range(8):
        g = gen_random(5, 11, 50 + trial, ensure_strongly_connected=True)
        k = 1
        res = greedy_preserver(g, VariantSpec.all_pairs(), k)
        for spec in (
            VariantSpec.single_source(1),
            VariantSpec.st(0, 2),
            VariantSpec.global_(),
            VariantSpec.sourcewise({0, 3}),
        ):
            assert verify_ft(g, res.kept_edges, spec, k).ok


def test_hierarchy_preserver_random_sound():
    for trial in range(10):
        g = gen_random(7, 15, 70 + trial, ensure_strongly_connected=True)
        res = hierarchy_preserver(g, 1)
        assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_hierarchy_preserver_sound_past_exact_cut_limit():
    # n = 20 is past the default exact sparse-cut limit: the hierarchy is
    # heuristic, and the preserver must still verify
    for trial in range(4):
        g = gen_random(20, 36, 2000 + trial, ensure_strongly_connected=True)
        params = HierarchyParams(q=2, k=1)  # hierarchy_preserver's default at k = 1
        assert not build_hierarchy(g, params, verify_certificates=False).exact
        res = hierarchy_preserver(g, 1)
        assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_hierarchy_preserver_single_level_equals_sourcewise_quality():
    g = bidirected_triangle()
    res = hierarchy_preserver(g, 1)
    assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_hierarchy_preserver_empty_graph():
    assert hierarchy_preserver(DiGraph(0), 1).kept_edges == frozenset()


def test_hierarchy_preserver_k0():
    g = gen_random(6, 12, 3, ensure_strongly_connected=True)
    res = hierarchy_preserver(g, 0)
    assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 0).ok


def test_preservers_on_dags_are_empty():
    dag = DiGraph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    for spec in (VariantSpec.all_pairs(), VariantSpec.single_source(0)):
        res = greedy_preserver(dag, spec, 1)
        assert res.kept_edges == frozenset()
        assert verify_ft(dag, res.kept_edges, spec, 1).ok


def test_preservers_on_mixed_components():
    mixed = DiGraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 2)])
    res = greedy_preserver(mixed, VariantSpec.all_pairs(), 1)
    assert verify_ft(mixed, res.kept_edges, VariantSpec.all_pairs(), 1).ok
    hres = hierarchy_preserver(mixed, 1)
    assert verify_ft(mixed, hres.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_self_loops_never_kept():
    g = DiGraph(2, [(0, 0), (0, 1), (1, 0)])
    res = greedy_preserver(g, VariantSpec.all_pairs(), 1)
    assert res.kept_edges == frozenset({1, 2})
    assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_global_from_single_source():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = global_from_single_source(g, 1)
    assert res.kept_edges == g.edge_ids()
    assert verify_ft(g, res.kept_edges, VariantSpec.global_(), 1).ok
    assert global_from_single_source(DiGraph(1), 1).kept_edges == frozenset()


def test_st_from_global_cycle_k0():
    g = three_cycle()
    res = st_from_global(g, 0, 1, 0, lambda gg, kk: global_from_single_source(gg, kk))
    assert res.kept_edges == g.edge_ids()
    assert verify_ft(g, res.kept_edges, VariantSpec.st(0, 1), 0).ok


def test_st_from_global_triangle_k1():
    g = bidirected_triangle()
    res = st_from_global(g, 0, 1, 1, global_from_single_source)
    assert res.kept_edges <= g.edge_ids()
    assert verify_ft(g, res.kept_edges, VariantSpec.st(0, 1), 1).ok


def test_st_from_global_contains_lower_bound_cross_edges():
    g, meta = gen_st_lower(2, 2)
    res = st_from_global(g, meta["s"], meta["t"], 2, global_from_single_source)
    assert set(meta["cross_edges"]) <= res.kept_edges
    assert verify_ft(g, res.kept_edges, VariantSpec.st(meta["s"], meta["t"]), 2).ok


def test_separation_baswana_tree():
    from sccpreserve.kconn import greedy_kconn_preserver
    from sccpreserve.verify import verify_kconn

    g, meta = gen_baswana_tree(2, 3)
    res = greedy_preserver(g, VariantSpec.all_pairs(), 2)
    assert set(meta["cross_edges"]) <= res.kept_edges
    assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 2).ok
    kc = greedy_kconn_preserver(g, 1)
    assert verify_kconn(g, kc.kept_edges, 1).ok
    assert len(kc.kept_edges) < len(res.kept_edges)  # strict separation


def test_st_lower_greedy_keeps_cross_edges_all_layer_counts():
    for layers in (1, 3):
        g, meta = gen_st_lower(layers, 2)
        res = greedy_preserver(g, VariantSpec.st(meta["s"], meta["t"]), 2)
        assert set(meta["cross_edges"]) <= res.kept_edges
        assert verify_ft(g, res.kept_edges, VariantSpec.st(meta["s"], meta["t"]), 2).ok


def test_stats_recorded():
    res = greedy_preserver(bidirected_triangle(), VariantSpec.all_pairs(), 1)
    assert res.stats["input_edges"] == 6
    assert res.stats["output_edges"] == 6
    assert res.stats["removal_attempts"] >= 6
    assert res.provenance == "greedy"


def test_base_states_outlive_non_critical_removals():
    """A scan that keeps its base states across removals of non-critical
    edges answers like a scan rebuilt after every removal."""
    rng = random.Random(31)
    for _ in range(25):
        g = loopy_multigraph(rng, rng.randrange(2, 7))
        specs = [spec for spec, _, _ in variant_checks(g)] + [VariantSpec.st(g.n - 1, 0)]
        for spec in specs:
            oracle = ConnectivityOracle(g, spec)
            for k in range(4):
                persisting = CriticalityScan(oracle, g.edge_ids(), k)
                rebuilt_calls = 0
                for eid in sorted(g.edge_ids()):
                    rebuilt = CriticalityScan(oracle, persisting.active, k)
                    witness = persisting.first_witness(eid)
                    assert witness == rebuilt.first_witness(eid)
                    rebuilt_calls += rebuilt.oracle_calls
                    if witness is None:
                        persisting.remove(eid)
                assert persisting.oracle_calls == rebuilt_calls
                res = greedy_preserver(g, spec, k)
                assert res.kept_edges == frozenset(persisting.active)
                assert res.stats["oracle_calls"] == rebuilt_calls
