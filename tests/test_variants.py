import random

import pytest

from sccpreserve import variants
from sccpreserve.digraph import DiGraph, shortest_path
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.expander import giant_component_check
from sccpreserve.variants import (
    ConnectivityOracle,
    CriticalityScan,
    VariantSpec,
    fault_sets_colex,
)

from conftest import loopy_multigraph, variant_checks
from oracles import fault_set_count, scc_sets_ref


def test_colex_order_is_ascending_bitmask():
    got = list(fault_sets_colex([0, 1, 2], 2))
    assert got == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]
    masks = [sum(1 << e for e in fault) for fault in got]
    assert masks == sorted(masks)


def test_colex_order_with_gapped_ids():
    got = list(fault_sets_colex([7, 3, 10], 1))
    assert got == [(), (3,), (7,), (10,)]


def test_colex_respects_size_cap():
    got = list(fault_sets_colex(range(5), 0))
    assert got == [()]
    assert all(len(f) <= 2 for f in fault_sets_colex(range(6), 2))


def test_variant_spec_validation():
    g = DiGraph(3, [(0, 1)])
    with pytest.raises(InputError):
        VariantSpec.st(1, 1)
    with pytest.raises(InputError):
        VariantSpec.single_source(5).validate(g)
    with pytest.raises(InputError):
        VariantSpec.sourcewise({0, 9}).validate(g)
    VariantSpec.sourcewise({0, 2}).validate(g)


def test_variant_describe():
    assert VariantSpec.st(0, 2).describe() == {"variant": "st", "s": 0, "t": 2}
    assert VariantSpec.sourcewise({2, 0}).describe() == {
        "variant": "sourcewise",
        "sources": [0, 2],
    }


def _rooted_specs(rng, n):
    """(spec, roots) for each of the five variants on n vertices."""
    sources = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    return (
        (VariantSpec.all_pairs(), range(n)),
        (VariantSpec.single_source(n - 1), [n - 1]),
        (VariantSpec.st(n - 1, 0), [n - 1]),
        (VariantSpec.global_(), [0]),
        (VariantSpec.sourcewise(sources), sources),
    )


def _comp_masks(g, banned):
    """Vertex -> mask of its SCC in g - banned, from the reference partition."""
    comp_of = {}
    for comp in scc_sets_ref(g, banned):
        for v in comp:
            comp_of[v] = sum(1 << w for w in comp)
    return comp_of


def test_state_is_root_components():
    # A state holds each root's SCC mask; a root inside an earlier root's
    # component reuses that mask.  Checked against the reference partition
    # on multigraphs that are not strongly connected, under random faults.
    rng = random.Random(61)
    for _ in range(30):
        g = loopy_multigraph(rng, rng.randrange(2, 8))
        n = g.n
        fault = frozenset(rng.sample(sorted(g.edge_ids()), rng.randrange(0, 3)))
        comp_of = _comp_masks(g, fault)
        for spec, roots in _rooted_specs(rng, n):
            oracle = ConnectivityOracle(g, spec)
            state = oracle.state(oracle.bind(g.edge_ids()), fault)
            assert state == tuple(comp_of[r] for r in roots), (spec.kind, fault)


def _parallel_pair(g, active):
    """Two active non-loop edges with the same tail and head, or None."""
    seen = {}
    for e in g.edges:
        if e.id in active and e.tail != e.head:
            twin = seen.setdefault((e.tail, e.head), e.id)
            if twin != e.id:
                return twin, e.id
    return None


def _faults(rng, g, active):
    """Random faults, some holding edges outside ``active``, one twin of an
    active parallel pair, or both twins."""
    ids = sorted(g.edge_ids())
    faults = [(), tuple(rng.sample(ids, rng.randrange(0, 4)))]
    outside = sorted(set(ids) - active)
    if outside:
        inside = rng.sample(sorted(active), min(1, len(active)))
        faults.append((rng.choice(outside), *inside))
    pair = _parallel_pair(g, active)
    if pair is not None:
        faults.append((pair[rng.randrange(2)],))
        faults.append(pair)
        faults.append((*pair, rng.choice(ids)))
    return faults


def test_edge_view_state_matches_reference():
    # state(bind(A), F) on multigraph hosts with self-loops and parallel
    # edges: an edge whose twin survives must leave its bit set.
    rng = random.Random(67)
    for _ in range(60):
        g = loopy_multigraph(rng, rng.randrange(2, 8))
        n = g.n
        ids = sorted(g.edge_ids())
        if rng.random() < 0.3:
            active = set(ids)
        else:
            active = set(rng.sample(ids, rng.randrange(len(ids) + 1)))
        specs = _rooted_specs(rng, n)
        oracles = [(ConnectivityOracle(g, spec), roots) for spec, roots in specs]
        views = [oracle.bind(active) for oracle, _ in oracles]
        for fault in _faults(rng, g, active):
            comp_of = _comp_masks(g, set(fault) | (set(ids) - active))
            for (oracle, roots), view in zip(oracles, views):
                want = tuple(comp_of[r] for r in roots)
                assert oracle.state(view, fault) == want, (sorted(active), fault)


def _assert_changed_exact(oracle, view, eid, faults):
    """changed() agrees with breaks() on a full state after the removal."""
    for fault in faults:
        base = oracle.state(view, fault)
        want = oracle.breaks(base, oracle.state(view, (*fault, eid)))
        got = oracle.changed(base, view, fault, eid)
        assert got == want, (oracle.roots, oracle.protected, fault, eid)


def test_changed_recomputes_one_component_exactly():
    # changed() searches from the removed edge's tail inside the one
    # component that holds both ends (and, for s-t, recomputes that
    # component when it splits); it must agree with a full state for every
    # edge and fault.
    rng = random.Random(71)
    for _ in range(25):
        g = loopy_multigraph(rng, rng.randrange(3, 7))
        ids = sorted(g.edge_ids())
        if rng.random() < 0.5:
            active = set(ids)
        else:
            active = set(rng.sample(ids, rng.randrange(2, len(ids) + 1)))
        for spec, _, _ in variant_checks(g):
            oracle = ConnectivityOracle(g, spec)
            view = oracle.bind(active)
            for eid in ids:
                _assert_changed_exact(oracle, view, eid, fault_sets_colex(active - {eid}, 2))


# s = 0 lies on two cycles, 0-1-0 through t = 1 and 0-2-3-0 without it;
# dropping 2->3 (edge 3) splits the component of s but keeps s with t.
_TWO_CYCLES = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
# The far cycle 0-2-3-0 has a chord 2->0 (edge 5), so 2->3 (edge 3) splits
# the component only under the fault {5}; a self-loop and a parallel
# edge on the near cycle ride along.
_CHORDED = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (2, 0), (1, 1), (0, 1)])
# Two far cycles through s, of which only 0-2-4-0 loses its edge 2->4
# (edge 5); t = 1 is on a third cycle.
_THREE_CYCLES = DiGraph(
    5, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (2, 4), (4, 0), (3, 2)]
)


def test_changed_st_split_keeps_s_with_t():
    # Dropping the edge splits C while s and t stay strongly connected:
    # s-t must not break, single-source must.
    cases = ((_TWO_CYCLES, 3, ()), (_CHORDED, 3, (5,)), (_THREE_CYCLES, 5, ()))
    for g, eid, fault in cases:
        st = ConnectivityOracle(g, VariantSpec.st(0, 1))
        single = ConnectivityOracle(g, VariantSpec.single_source(0))
        for oracle, want in ((st, False), (single, True)):
            view = oracle.bind(g.edge_ids())
            base = oracle.state(view, fault)
            after = oracle.state(view, (*fault, eid))
            assert base[0] != after[0]  # the component of s split
            assert oracle.breaks(base, after) is want
            assert oracle.changed(base, view, fault, eid) is want


def test_changed_st_split_graphs_every_edge_and_fault():
    # On the same graphs, every edge and fault set up to size 2, for s-t
    # in both directions, s-t with t on the far cycle, and single-source.
    for g in (_TWO_CYCLES, _CHORDED, _THREE_CYCLES):
        specs = (
            VariantSpec.st(0, 1),
            VariantSpec.st(1, 0),
            VariantSpec.st(0, 3),
            VariantSpec.single_source(0),
        )
        for spec in specs:
            oracle = ConnectivityOracle(g, spec)
            view = oracle.bind(g.edge_ids())
            for eid in sorted(g.edge_ids()):
                faults = fault_sets_colex(g.edge_ids() - {eid}, 2)
                _assert_changed_exact(oracle, view, eid, faults)


def test_changed_parallel_twins(monkeypatch):
    # Edges 0 and 1 are parallel 0->1 on the cycle 0-1-2-0: removing one
    # while its twin survives answers False without a search; once the
    # twin is faulted the tail-to-head search runs and the cycle breaks.
    # s-t (s = 0, t = 2) then also searches from s to t, since its
    # component is larger than {s, t}, and stops there: s reaches nothing.
    searches = []

    def counting(adj, start, goal):
        searches.append((start, goal))
        return shortest_path(adj, start, goal)

    monkeypatch.setattr(variants, "shortest_path", counting)
    g = DiGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
    for spec, _, _ in variant_checks(g):
        oracle = ConnectivityOracle(g, spec)
        view = oracle.bind(g.edge_ids())
        for eid, twin in ((0, 1), (1, 0)):
            searches.clear()
            assert oracle.changed(oracle.state(view), view, (), eid) is False
            assert searches == []
            base = oracle.state(view, (twin,))
            assert oracle.breaks(base, oracle.state(view, (twin, eid))) is True
            assert oracle.changed(base, view, (twin,), eid) is True
            assert searches == ([(0, 1), (0, 2)] if spec.kind == "st" else [(0, 1)])


def test_first_witness_branches_on_whole_hops():
    # Edges 0, 1 and 2 are parallel 0->1 on the cycle 0-1-2-0.  Dropping
    # edge 0 breaks the cycle only once both twins are faulted: the search
    # visits the empty set, whose certificate is the hop {1, 2}, then the
    # witness {1, 2} itself.  Within k = 1 the hop does not fit, and the
    # search ends after one node.
    g = DiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    scan = CriticalityScan(oracle, g.edge_ids(), 2)
    assert scan.first_witness(0) == (1, 2)
    assert scan.oracle_calls == 2
    scan = CriticalityScan(oracle, g.edge_ids(), 1)
    assert scan.first_witness(0) is None
    assert scan.oracle_calls == 1
    # The detour 0-2-1 for the edge 0->1 has a parallel first hop (edges 1
    # and 2): the empty set's children are {1, 2} and {3}, and the first of
    # them is the witness.
    g = DiGraph(3, [(0, 1), (0, 2), (0, 2), (2, 1), (1, 0)])
    scan = CriticalityScan(ConnectivityOracle(g, VariantSpec.all_pairs()), g.edge_ids(), 2)
    assert scan.first_witness(0) == (1, 2)
    assert scan.oracle_calls == 2


def test_first_witness_cap_counts_seen_fault_sets(monkeypatch):
    # The search on the three-twin cycle above sees two fault sets, the
    # empty set and the witness {1, 2}; a cap of one stops it after the
    # empty set.  The cap is read when the scan is built.
    g = DiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "2")
    scan = CriticalityScan(oracle, g.edge_ids(), 2)
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "1")
    assert scan.first_witness(0) == (1, 2)
    scan = CriticalityScan(oracle, g.edge_ids(), 2)
    with pytest.raises(CapabilityError):
        scan.first_witness(0)
    assert scan.oracle_calls == 1


def test_fault_searches_name_the_search_and_the_cap(monkeypatch):
    # the criticality, counterexample and giant-component searches all run
    # on one helper, whose error names the search that passed the cap
    g = DiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "1")
    with pytest.raises(CapabilityError, match="criticality search for edge 0 .*limit of 1 "):
        CriticalityScan(oracle, g.edge_ids(), 2).first_witness(0)
    with pytest.raises(CapabilityError, match=r"counterexample search \(\|E\(H\)\|=4\) .*limit of 1 "):
        oracle.search_counterexample({0, 1, 3, 4}, 2)
    with pytest.raises(CapabilityError, match="giant-component search .*limit of 1 "):
        giant_component_check(g, {0, 1, 2}, 0, 2)


def test_first_witness_fits_the_sweep_bound(monkeypatch):
    # A search sees distinct subsets of active - e with at most k edges, so
    # a cap of C(m - 1, <= k) never stops it.
    rng = random.Random(97)
    for _ in range(10):
        g = loopy_multigraph(rng, rng.randrange(2, 5))
        ids = g.edge_ids()
        for spec, _, _ in variant_checks(g):
            oracle = ConnectivityOracle(g, spec)
            for k in (1, 2, 3):
                cap = fault_set_count(len(ids) - 1, k)
                monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", str(cap))
                scan = CriticalityScan(oracle, ids, k)
                for eid in ids:
                    scan.first_witness(eid)


def test_changed_fault_sets_up_to_three_on_loopy_multigraphs():
    # Loopy multigraphs with n <= 5, every edge (self-loops and inactive
    # edges included) and every fault set of at most 3 other active edges,
    # for all five variants.
    rng = random.Random(89)
    for _ in range(10):
        g = loopy_multigraph(rng, rng.randrange(2, 6))
        ids = sorted(g.edge_ids())
        active = set(ids) if rng.random() < 0.5 else set(rng.sample(ids, len(ids) - 1))
        for spec, _, _ in variant_checks(g):
            oracle = ConnectivityOracle(g, spec)
            view = oracle.bind(active)
            for eid in ids:
                _assert_changed_exact(oracle, view, eid, fault_sets_colex(active - {eid}, 3))
