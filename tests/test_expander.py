import gc
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from sccpreserve import expander
from sccpreserve.digraph import DiGraph
from sccpreserve.errors import CapabilityError, InputError
from sccpreserve.expander import (
    HierarchyParams,
    build_hierarchy,
    giant_component_check,
    is_unbreakable,
    sparsest_cut_wrt,
)
from sccpreserve.families import gen_random

from conftest import bidirected_k4, directed_path, loopy_multigraph
from oracles import (
    boundary_table_ref,
    sparsest_cut_ref,
    unbreakable_ref,
    unbreakable_witness_ref,
)


def test_small_terminal_sets_vacuously_unbreakable():
    g = directed_path(5)
    assert is_unbreakable(g, {0, 1, 2}, 1, 1).unbreakable  # |U| <= 2q+1


def test_path_is_breakable_with_witness():
    res = is_unbreakable(directed_path(4), {0, 1, 2, 3}, 1, 1)
    assert not res.unbreakable
    assert res.witness.side == frozenset({0, 1})
    assert res.witness.boundary == frozenset({1})


def test_k4_is_unbreakable():
    assert is_unbreakable(bidirected_k4(), {0, 1, 2, 3}, 1, 1).unbreakable


def test_unbreakable_matches_definition_enumeration():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randrange(4, 8)
        g = gen_random(n, rng.randrange(4, 14), 400 + trial)
        size = rng.randrange(2, n + 1)
        terminals = set(rng.sample(range(n), size))
        q = rng.randrange(1, 3)
        k = rng.randrange(0, 3)
        got = is_unbreakable(g, terminals, q, k).unbreakable
        assert got == unbreakable_ref(g, terminals, q, k)


def test_unbreakable_witness_is_a_real_violation():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randrange(5, 9)
        g = gen_random(n, rng.randrange(6, 16), 800 + trial)
        terminals = set(range(n))
        res = is_unbreakable(g, terminals, 1, 1)
        if res.unbreakable:
            continue
        side = res.witness.side
        assert len(res.witness.boundary) <= 1
        assert len(side & terminals) > 1 and len(terminals - side) > 1


def test_unbreakable_witness_is_first_failing_pair():
    # the witness is the farthest min cut of the first failing pair in
    # combinations order
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randrange(4, 9)
        g = loopy_multigraph(rng, n)
        if trial % 2:  # strongly connected hosts
            g = g.add_edges([(v, (v + 1) % n) for v in range(n)])
        terminals = rng.sample(range(n), rng.randrange(2, n + 1))
        for q in (1, 2):
            for k in (0, 1, 2):
                res = is_unbreakable(g, terminals, q, k)
                side = unbreakable_witness_ref(g, terminals, q, k)
                assert res.unbreakable == (side is None)
                if side is not None:
                    assert res.witness.side == side
                    assert res.witness.boundary == frozenset(
                        e.id for e in g.edges if e.tail in side and e.head not in side
                    )


def test_unbreakable_pair_guard(monkeypatch):
    g = gen_random(14, 20, 0)
    monkeypatch.setenv("SCC_PRESERVE_MAX_SUBSET_PAIRS", "10")
    with pytest.raises(CapabilityError):
        is_unbreakable(g, range(14), 2, 1)


def test_giant_component_rejects_negative_parameters():
    # k = -1 leaves no room for a single fault, so an unchecked k would
    # answer from the empty fault set alone
    g = gen_random(6, 16, 0, ensure_strongly_connected=True)
    for q, k in ((1, -1), (-1, 1)):
        with pytest.raises(InputError):
            giant_component_check(g, {0, 1, 2}, q, k)


def test_giant_component_examples():
    assert giant_component_check(bidirected_k4(), {0, 1, 2, 3}, 1, 1)
    cycle = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert giant_component_check(cycle, {0, 1, 2, 3}, 1, 0)  # k=0, C=V
    assert giant_component_check(directed_path(4), {0, 1, 2, 3}, 2, 3)  # vacuous
    doubled = DiGraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert giant_component_check(doubled, {0, 1}, 0, 1)  # a twin survives each fault
    assert not giant_component_check(doubled, {0, 1}, 0, 2)


def test_giant_component_search_counts_nodes(monkeypatch):
    # The search sees three fault sets (the empty set, then one twin pair
    # each way, the first of which splits the pair), not the C(4, <= 2) = 11
    # subsets a sweep would scan.
    doubled = DiGraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "5")
    assert not giant_component_check(doubled, {0, 1}, 0, 2)
    monkeypatch.setenv("SCC_PRESERVE_MAX_FAULT_SETS", "1")
    with pytest.raises(CapabilityError, match="giant-component search .* 1 fault sets"):
        giant_component_check(doubled, {0, 1}, 0, 2)


def test_build_hierarchy_leaves_no_cycles():
    # a build frees everything it made without the cyclic collector
    g = gen_random(10, 30, 1, ensure_strongly_connected=True)
    gc.collect()
    gc.disable()
    try:
        build_hierarchy(g, HierarchyParams(2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sparsest_cut_path():
    # suffix sides of a path have empty out-boundary, so ratio 0 wins;
    # {3} is the smallest-bitmask side among the ratio-0 ties
    cut = sparsest_cut_wrt(directed_path(4), {0, 1, 2, 3}, Fraction(1, 2))
    assert cut.side == frozenset({3})
    assert cut.boundary == frozenset()
    sides = [frozenset({3}), frozenset({2, 3}), frozenset({1, 2, 3})]
    assert all(
        not any(e.tail in side and e.head not in side for e in directed_path(4).edges)
        for side in sides
    )


def test_sparsest_cut_expander_absent():
    assert sparsest_cut_wrt(bidirected_k4(), {0, 1, 2, 3}, Fraction(1, 2)) is None


def test_sparsest_cut_bidirected_pair():
    g = DiGraph(2, [(0, 1), (1, 0)])
    cut = sparsest_cut_wrt(g, {0, 1}, Fraction(1, 1))
    assert cut.side == frozenset({0})
    assert len(cut.boundary) == 1


def test_sparsest_cut_guard_and_validation(monkeypatch):
    with pytest.raises(InputError):
        sparsest_cut_wrt(directed_path(4), {0}, Fraction(1, 2))
    with pytest.raises(CapabilityError):
        sparsest_cut_wrt(gen_random(20, 30, 0), range(20), Fraction(1, 2))

    # raised before any table of 2^40 entries is built; a table built first
    # fails here instead of exhausting memory
    def no_table(g):
        raise AssertionError(f"boundary table built at n={g.n}")

    monkeypatch.setattr(expander, "_boundary_table", no_table)
    with pytest.raises(CapabilityError):
        sparsest_cut_wrt(gen_random(40, 60, 0), range(40), Fraction(1, 2))


def _cut_hosts(rng):
    """Loopy multigraphs with antiparallel pairs and extra parallel edges,
    and strongly connected random graphs."""
    for trial in range(120):
        n = rng.randrange(2, 9)
        if trial % 3 == 0:
            yield gen_random(n, rng.randrange(n, 3 * n), 700 + trial,
                             ensure_strongly_connected=True)
            continue
        g = loopy_multigraph(rng, n)
        picks = [rng.choice(g.edges) for _ in range(rng.randrange(1, 4))]
        yield g.add_edges(
            [(e.head, e.tail) for e in picks] + [(e.tail, e.head) for e in picks[:1]]
        )


def test_sparsest_cut_matches_reference():
    rng = random.Random(31)
    found = absent = 0
    for g in _cut_hosts(rng):
        terminals = rng.sample(range(g.n), rng.randrange(2, g.n + 1))
        for phi in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            cut = sparsest_cut_wrt(g, terminals, phi)
            ref = sparsest_cut_ref(g, terminals, phi)
            if ref is None:
                assert cut is None
                absent += 1
            else:
                assert (cut.side, cut.boundary) == ref
                found += 1
    assert found > 50 and absent > 50


def _boundaries_by_edges(g):
    """b[S] for every mask S, counted from the edge list."""
    pairs = Counter((e.tail, e.head) for e in g.edges if e.tail != e.head)
    return [
        sum(c for (t, h), c in pairs.items() if mask >> t & 1 and not mask >> h & 1)
        for mask in range(1 << g.n)
    ]


def test_boundary_table_counts_edges():
    rng = random.Random(57)
    graphs = [DiGraph(0), DiGraph(1, [(0, 0), (0, 0)]), DiGraph(3)]
    graphs += [loopy_multigraph(rng, n) for n in range(2, 11) for _ in range(3)]
    graphs += [gen_random(n, 3 * n, n, ensure_strongly_connected=True) for n in (9, 10)]
    for g in graphs:
        table = expander._boundary_table(g)
        assert table.itemsize == 1
        assert list(table) == _boundaries_by_edges(g)


def test_boundary_table_matches_list_recurrence_at_n18():
    g = gen_random(18, 120, 1, ensure_strongly_connected=True)
    assert list(expander._boundary_table(g)) == boundary_table_ref(g)


@pytest.mark.parametrize("edges, width", [(255, 1), (256, 2), (300, 2), (65536, 4)])
def test_boundary_table_wide_lanes(edges, width):
    # ``edges`` non-loop edges: a 5-cycle and parallel copies of (0, 1),
    # plus loops, which no lane counts
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    g = DiGraph(5, cycle + [(0, 1)] * (edges - 5) + [(2, 2)] * 300)
    table = expander._boundary_table(g)
    assert table.itemsize == width
    want = _boundaries_by_edges(g)
    assert list(table) == want
    for bound in (-1, 0, 1, 2, 254, 255, 256, 257, 299, 300, 511, 65535, 65536, 10**12):
        assert expander._masks_at_most(table, bound) == [
            mask for mask, b in enumerate(want) if b <= bound
        ]


def test_sparsest_side_filter_bounds():
    # L = floor(phi * floor(|U| / 2)) at 0, inside the table's range, and at
    # or above its largest entry, where the filter keeps every mask
    rng = random.Random(61)
    seen = Counter()
    for g in list(_cut_hosts(rng))[:60]:
        table = expander._boundary_table(g)
        top = max(table)
        everyone = range(g.n)
        half = g.n // 2
        for phi in (Fraction(-1), Fraction(1, g.n + 1), Fraction(1, 2), Fraction(3, 2),
                    Fraction(10**12)):
            bound = math.floor(phi * half)
            mask, masks = expander._sparsest_side(table, (1 << g.n) - 1, phi)
            assert masks == [s for s in range(1 << g.n) if table[s] <= bound]
            ref = sparsest_cut_ref(g, everyone, phi)
            got = None if mask is None else frozenset(v for v in everyone if mask >> v & 1)
            assert got == (None if ref is None else ref[0])
            seen["negative" if bound < 0 else "zero" if bound == 0
                 else "inside" if bound < top else "top"] += 1
    assert min(seen.values()) > 10 and len(seen) == 4


def _expanding_terminals_fresh(sub, params, cut_cap, state):
    # the hierarchy's shrinking loop with one full search per round
    terminals = set(range(sub.n))
    while len(terminals) >= 2:
        cut = sparsest_cut_wrt(sub, terminals, params.phi)
        if cut is None:
            break
        exits = {sub.edge(eid).tail for eid in cut.boundary}
        before = len(terminals)
        if len(cut.side) <= sub.n / 2:
            terminals = (terminals - cut.side) | exits
        else:
            terminals = (terminals - (set(range(sub.n)) - cut.side)) | exits
        if len(terminals) >= before:
            raise InputError("a sparse cut did not shrink the terminal set")
    return terminals


def _hierarchy_outcome(g, params):
    try:
        hier = build_hierarchy(g, params)
    except InputError:
        return "no shrink"
    return hier.levels, hier.certificates, hier.exact


def test_hierarchy_table_reuse_matches_fresh_search(monkeypatch):
    rng = random.Random(43)
    graphs = list(_cut_hosts(rng))[:40]
    graphs += [gen_random(n, 3 * n, 900 + n, ensure_strongly_connected=True)
               for n in range(9, 13)]
    built = 0
    for phi in (Fraction(1, 2), Fraction(1)):
        params = HierarchyParams(q=2, k=1, phi=phi)
        reused = [_hierarchy_outcome(g, params) for g in graphs]
        with monkeypatch.context() as patch:
            patch.setattr(expander, "_expanding_terminals", _expanding_terminals_fresh)
            fresh = [_hierarchy_outcome(g, params) for g in graphs]
        assert reused == fresh
        built += sum(r != "no shrink" for r in reused)
    assert built > 40


def test_hierarchy_past_exact_limit_builds_no_table(monkeypatch):
    table = expander._boundary_table
    sizes = []

    def guarded(g):
        sizes.append(g.n)
        if g.n > 10:
            raise AssertionError(f"boundary table built at n={g.n}")
        return table(g)

    monkeypatch.setattr(expander, "_boundary_table", guarded)
    monkeypatch.setenv("SCC_PRESERVE_EXACT_CUT_LIMIT", "10")
    g = DiGraph(24, [(i, (i + 1) % 24) for i in range(24)] + [(0, 12), (12, 0)])
    hier = build_hierarchy(g, HierarchyParams(q=2, k=1), verify_certificates=False)
    assert not hier.exact
    assert sorted(v for level in hier.levels for v in level) == list(range(24))


def test_hierarchy_k4_single_level():
    hier = build_hierarchy(bidirected_k4(), HierarchyParams(q=2, k=1))
    assert hier.levels == (frozenset({0, 1, 2, 3}),)
    assert all(c.unbreakable for c in hier.certificates)


def test_hierarchy_single_vertex():
    hier = build_hierarchy(DiGraph(1), HierarchyParams(q=2, k=1))
    assert hier.levels == (frozenset({0}),)


def test_hierarchy_path():
    hier = build_hierarchy(directed_path(4), HierarchyParams(q=2, k=1))
    assert hier.depth <= 3
    assert all(c.unbreakable for c in hier.certificates)


@pytest.mark.parametrize("params", [None, (2, 1), {"q": 2, "k": 1}, Fraction(1, 2)])
def test_build_hierarchy_needs_hierarchy_params(params):
    # None raised a bare AttributeError on params.phi
    with pytest.raises(InputError, match="HierarchyParams"):
        build_hierarchy(bidirected_k4(), params)


def test_hierarchy_params_validated():
    with pytest.raises(InputError):
        HierarchyParams(q=1, k=2)  # q < k/phi
    with pytest.raises(InputError):
        HierarchyParams(q=2, k=1, phi=Fraction(3, 2))


@pytest.mark.parametrize("q, k", [("3", 1), (2.5, 1), (2, 1.0), (2, True), (True, 1)])
def test_hierarchy_params_need_ints(q, k):
    with pytest.raises(InputError):
        HierarchyParams(q=q, k=k)


@pytest.mark.parametrize("phi", ["abc", "1/0", None, float("nan"), [1, 2]])
def test_bad_phi_is_input_error(phi):
    with pytest.raises(InputError):
        HierarchyParams(q=2, k=1, phi=phi)
    with pytest.raises(InputError):
        sparsest_cut_wrt(directed_path(4), {0, 1, 2, 3}, phi)


def test_phi_text_and_fraction_accepted():
    half = Fraction(1, 2)
    assert HierarchyParams(q=2, k=1, phi="1/2").phi == half
    assert HierarchyParams(q=2, k=1, phi=half).phi is half
    assert sparsest_cut_wrt(bidirected_k4(), {0, 1, 2, 3}, "1/2") is None


def test_hierarchy_validity_random():
    rng = random.Random(23)
    for trial in range(50):
        n = rng.randrange(2, 13)
        g = gen_random(n, rng.randrange(n, 3 * n), trial, ensure_strongly_connected=bool(trial % 2))
        for k in (1, 2):
            params = HierarchyParams(q=2 * k, k=k)
            hier = build_hierarchy(g, params)
            flat = [v for level in hier.levels for v in level]
            assert sorted(flat) == list(range(n))  # levels partition V
            assert hier.depth <= math.ceil(math.log2(n)) + 1 if n > 1 else hier.depth == 1
            assert hier.exact
            for cert in hier.certificates:
                assert cert.unbreakable is True


def test_hierarchy_certificates_against_enumeration():
    rng = random.Random(29)
    for trial in range(25):
        n = rng.randrange(3, 9)
        g = gen_random(n, rng.randrange(n, 3 * n), 300 + trial)
        params = HierarchyParams(q=2, k=1)
        hier = build_hierarchy(g, params)
        for cert in hier.certificates:
            sub, to_parent = g.induced(cert.component)
            local = {to_parent.index(v) for v in cert.terminals}
            assert unbreakable_ref(sub, local, params.q, params.k)


def test_hierarchy_halving_invariant():
    # below the top level, every SCC of the remainder has at most half
    # the vertices; applied recursively down the level stack
    rng = random.Random(37)
    from sccpreserve.digraph import scc as scc_of

    for trial in range(20):
        n = rng.randrange(2, 13)
        g = gen_random(n, rng.randrange(n, 3 * n), 600 + trial,
                       ensure_strongly_connected=True)
        hier = build_hierarchy(g, HierarchyParams(q=2, k=1))
        rest = frozenset(range(n)) - hier.levels[-1]
        if not rest:
            continue
        sub, _ = g.induced(rest)
        for comp in scc_of(sub).components:
            assert len(comp) <= math.ceil(n / 2)


def test_hierarchy_heuristic_fallback(monkeypatch):
    # cycle of 24 vertices: beyond the exact limit, the heuristic must
    # still produce a valid partition with the halving level bound
    monkeypatch.setenv("SCC_PRESERVE_EXACT_CUT_LIMIT", "10")
    g = DiGraph(24, [(i, (i + 1) % 24) for i in range(24)])
    hier = build_hierarchy(g, HierarchyParams(q=2, k=1), verify_certificates=False)
    flat = sorted(v for level in hier.levels for v in level)
    assert flat == list(range(24))
    assert hier.depth <= math.ceil(math.log2(24)) + 1
    assert not hier.exact
