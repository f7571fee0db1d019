"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Corpora are seeded and fixed; every tolerance is pinned
in the assertions below.
"""

import math
import random
import time

import pytest

from sccpreserve.expander import HierarchyParams, build_hierarchy, giant_component_check
from sccpreserve.families import (
    gen_baswana_tree,
    gen_bounded_degree_lower,
    gen_color_fault_lower,
    gen_random,
    gen_st_lower,
)
from sccpreserve.flowcut import farthest_min_cut, max_flow, symmetric_connectivity
from sccpreserve.fpt import FptCache, fpt_container_all_pairs, fpt_preserver
from sccpreserve.impcut import NO_SMALL_CUTS, check_anti_isolation, enumerate_important_cuts, important_cut_container
from sccpreserve.kconn import demand_pairs, greedy_kconn_preserver
from sccpreserve.preservers import greedy_preserver, hierarchy_preserver
from sccpreserve.variants import VariantSpec
from sccpreserve.verify import (
    enumerate_critical_edges,
    verify_bounded_degree_witness,
    verify_color_witness,
    verify_ft,
    verify_ft_by_cuts,
    verify_kconn,
    verify_kconn_by_cuts,
)

from oracles import fault_set_count, unbreakable_ref


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {verdict}: {detail}")


def _specs_for(g):
    return (
        VariantSpec.all_pairs(),
        VariantSpec.single_source(0),
        VariantSpec.st(0, g.n - 1),
        VariantSpec.global_(),
        VariantSpec.sourcewise({0, 1}),
    )


@pytest.fixture(scope="module")
def ft_corpus():
    """Criteria 1 and 2 share this: 200 SC graphs, all constructions, k in {1,2}."""
    rng = random.Random(20260810)
    graphs = []
    for i in range(200):
        n = rng.randrange(4, 9)
        m = rng.randrange(n, 21)
        graphs.append(gen_random(n, m, i, ensure_strongly_connected=True))

    started = time.perf_counter()
    greedy_runs = []  # (graph, spec, k, kept)
    failures = []
    fpt_reseeds = 0
    for gi, g in enumerate(graphs):
        cache = FptCache()
        for k in (1, 2):
            for spec in _specs_for(g):
                res = greedy_preserver(g, spec, k)
                greedy_runs.append((g, spec, k, res.kept_edges))
                if not verify_ft(g, res.kept_edges, spec, k).ok:
                    failures.append((gi, spec.kind, k, "greedy"))
            hres = hierarchy_preserver(g, k)
            if not verify_ft(g, hres.kept_edges, VariantSpec.all_pairs(), k).ok:
                failures.append((gi, "all_pairs", k, "hierarchy"))
            fres = fpt_preserver(g, k, seed=gi, cache=cache)
            if not verify_ft(g, fres.kept_edges, VariantSpec.all_pairs(), k).ok:
                fpt_reseeds += 1
                fres = fpt_preserver(g, k, seed=gi + 1_000_000, cache=cache)
                if not verify_ft(g, fres.kept_edges, VariantSpec.all_pairs(), k).ok:
                    failures.append((gi, "all_pairs", k, "fpt"))
    elapsed = time.perf_counter() - started
    return {
        "graphs": graphs,
        "greedy_runs": greedy_runs,
        "failures": failures,
        "fpt_reseeds": fpt_reseeds,
        "elapsed": elapsed,
    }


def test_criterion_01_construction_soundness(ft_corpus):
    failures = ft_corpus["failures"]
    elapsed = ft_corpus["elapsed"]
    ok = not failures and elapsed < 600.0
    _report(
        1,
        ok,
        f"200 graphs x k in {{1,2}} x 7 constructions verified exhaustively "
        f"({len(failures)} failures, {ft_corpus['fpt_reseeds']} fpt reseeds, "
        f"{elapsed:.0f}s < 600s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 600.0


def test_criterion_02_greedy_minimality(ft_corpus):
    checked = 0
    violations = []
    for g, spec, k, kept in ft_corpus["greedy_runs"]:
        h = g.restrict_to(kept)
        critical = enumerate_critical_edges(h, spec, k)
        checked += len(kept)
        extra = kept - critical
        if extra:
            violations.append((spec.kind, k, sorted(extra)))
    ok = not violations
    _report(
        2,
        ok,
        f"{checked} kept edges across {len(ft_corpus['greedy_runs'])} greedy "
        f"outputs all confirmed critical ({len(violations)} violations)",
    )
    assert not violations, violations[:5]


def test_criterion_03_important_cut_container():
    rng = random.Random(3)
    checked = 0
    violations = []
    for gi in range(200):
        n = rng.randrange(4, 9)
        g = gen_random(n, rng.randrange(n, 2 * n + 5), 5000 + gi)
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                # importance is budget-independent: enumerate once at k=3
                # and filter by boundary size per k
                cuts3 = enumerate_important_cuts(g, [x], [y], 3)
                for k in range(4):
                    res = important_cut_container(g, [x], [y], k)
                    cuts = [c for c in cuts3 if len(c.boundary) <= k]
                    if res.status == NO_SMALL_CUTS:
                        if cuts:
                            violations.append((gi, x, y, k, "sentinel"))
                        continue
                    checked += 1
                    lam = res.flow_value
                    if len(res.boundary) > lam * 2 ** (k - lam):
                        violations.append((gi, x, y, k, "size"))
                    if any(not cut.side <= res.side for cut in cuts):
                        violations.append((gi, x, y, k, "containment"))
    ok = not violations
    _report(
        3,
        ok,
        f"{checked} containers over 200 graphs, all pairs, k<=3: boundary "
        f"<= lam*2^(k-lam) and all important cuts contained "
        f"({len(violations)} violations)",
    )
    assert not violations, violations[:5]


def test_criterion_04_anti_isolation():
    tight = []
    for k in (1, 2, 3):
        g, meta = gen_bounded_degree_lower(2**k, 1)
        sinks = meta["x_vertices"]
        faults = []
        for x in sinks:
            eid = next(e for e in meta["cross_edges"] if g.edge(e).tail == x)
            faults.append(frozenset(meta["witnesses"][eid]))
        report = check_anti_isolation(g, meta["s"], sinks, faults, k)
        tight.append(report.valid_instance and report.r == 2**k)

    rng = random.Random(44)
    beaten = 0
    for trial in range(10_000):
        k = 1 if trial < 5000 else 2
        r = 2**k + 1
        n = rng.randrange(r + 1, 9)
        g = gen_random(n, rng.randrange(n, 3 * n), 70_000 + trial,
                       ensure_strongly_connected=bool(trial % 2))
        ids = sorted(g.edge_ids())
        s = rng.randrange(n)
        sinks = rng.sample([v for v in range(n) if v != s], r)
        faults = [frozenset(rng.sample(ids, min(len(ids), rng.randint(0, k))))
                  for _ in range(r)]
        report = check_anti_isolation(g, s, sinks, faults, k)
        if report.valid_instance and not report.bound_holds:
            beaten += 1
    ok = all(tight) and beaten == 0
    _report(
        4,
        ok,
        f"tree instances tight at r=2^k for k=1..3 ({sum(tight)}/3); "
        f"falsification search: {beaten}/10000 valid instances beyond 2^k",
    )
    assert all(tight)
    assert beaten == 0


def test_criterion_05_st_lower_bound_certificate():
    g, meta = gen_st_lower(2, 2)
    s, t = meta["s"], meta["t"]
    res = greedy_preserver(g, VariantSpec.st(s, t), 2)
    cross = set(meta["cross_edges"])
    has_all = cross <= res.kept_edges and len(cross) == 8
    witnesses_ok = True
    oracle = verify_ft(g, res.kept_edges, VariantSpec.st(s, t), 2).ok
    for eid in meta["cross_edges"]:
        fault = frozenset(meta["witnesses"][eid])
        without = verify_ft(g, g.edge_ids() - {eid}, VariantSpec.st(s, t), 2)
        if without.ok:
            witnesses_ok = False  # dropping the edge must be caught
        still = verify_ft(g, g.edge_ids(), VariantSpec.st(s, t), 2).ok
        witnesses_ok &= still
        # the stated witness fault set itself demonstrates the requirement
        h_banned = fault | {eid}
        from oracles import strongly_connected_pair_ref

        witnesses_ok &= strongly_connected_pair_ref(g, fault, s, t)
        witnesses_ok &= not strongly_connected_pair_ref(g, h_banned, s, t)
    ok = has_all and witnesses_ok and oracle
    _report(
        5,
        ok,
        f"st-lower(l=2,k=2): greedy s-t preserver keeps all 8 cross edges "
        f"({len(cross & res.kept_edges)}/8), witnesses validated, verifier ok",
    )
    assert has_all and witnesses_ok and oracle


def test_criterion_06_ft_vs_connectivity_separation():
    g, meta = gen_baswana_tree(2, 3)
    cross = set(meta["cross_edges"])
    assert len(cross) == 12
    ft = greedy_preserver(g, VariantSpec.all_pairs(), 2)
    ft_ok = verify_ft(g, ft.kept_edges, VariantSpec.all_pairs(), 2).ok
    keeps_cross = cross <= ft.kept_edges
    # every cross edge is mandatory: dropping any one breaks verification
    mandatory = all(
        not verify_ft(g, g.edge_ids() - {eid}, VariantSpec.all_pairs(), 2).ok
        for eid in cross
    )
    kc = greedy_kconn_preserver(g, 1)
    kc_ok = verify_kconn(g, kc.kept_edges, 1).ok
    omits = bool(cross - kc.kept_edges)
    strictly_smaller = len(kc.kept_edges) < len(ft.kept_edges)
    ok = ft_ok and keeps_cross and mandatory and kc_ok and omits and strictly_smaller
    _report(
        6,
        ok,
        f"baswana(k=2,y=3): 2-FT preserver keeps all 12 cross edges (all "
        f"mandatory), 1-connectivity preserver omits "
        f"{len(cross - kc.kept_edges)} of them; both verified",
    )
    assert ok


def test_criterion_07_strong_fault_model_witnesses():
    checked = 0
    bad = 0
    for x_count in (2, 4):
        for y_count in (1, 2, 3):
            g, meta = gen_bounded_degree_lower(x_count, y_count)
            for eid in meta["cross_edges"]:
                fault = frozenset(meta["witnesses"][eid])
                y = g.edge(eid).head
                checked += 1
                if not verify_bounded_degree_witness(
                    g, g.edge_ids(), eid, fault, meta["s"], y
                ):
                    bad += 1
            cg, cmeta = gen_color_fault_lower(x_count, y_count)
            for eid in cmeta["cross_edges"]:
                color = cmeta["cross_edge_color"][eid]
                y = cg.edge(eid).head
                checked += 1
                if not verify_color_witness(cg, cg.edge_ids(), eid, color,
                                            cmeta["s"], y):
                    bad += 1
    ok = bad == 0
    _report(7, ok, f"{checked} bounded-degree and color witnesses accepted, "
                   f"{bad} rejected")
    assert bad == 0


def test_criterion_08_cut_characterization_equivalence():
    rng = random.Random(88)
    disagreements = 0
    for trial in range(200):
        n = rng.randrange(3, 7)
        g = gen_random(n, rng.randrange(3, 12), 9000 + trial)
        ids = sorted(g.edge_ids())
        kept = frozenset(rng.sample(ids, rng.randrange(0, len(ids) + 1)))
        k = rng.randrange(0, 3)
        if verify_ft(g, kept, VariantSpec.all_pairs(), k).ok != verify_ft_by_cuts(
            g, kept, k
        ):
            disagreements += 1
        if verify_kconn(g, kept, k).ok != verify_kconn_by_cuts(g, kept, k):
            disagreements += 1
    ok = disagreements == 0
    _report(8, ok, f"200 random (g,H,k) triples, n<=6: flow and cut verifiers "
                   f"agree ({disagreements} disagreements)")
    assert disagreements == 0


def test_criterion_09_demand_pairs():
    rng = random.Random(99)
    mismatches = 0
    path_min_bad = 0
    for trial in range(100):
        n = rng.randrange(4, 9)
        g = gen_random(n, rng.randrange(n, 3 * n), 11_000 + trial,
                       ensure_strongly_connected=True)
        k = 1 + trial % 2
        dp = demand_pairs(g, k)
        for u in range(n):
            for v in range(u + 1, n):
                if symmetric_connectivity(g, u, v, k) != dp.path_min(u, v):
                    path_min_bad += 1
        ids = sorted(g.edge_ids())
        for _ in range(20):
            kept = frozenset(rng.sample(ids, rng.randrange(1, len(ids) + 1)))
            h = g.restrict_to(kept)
            on_pairs = all(
                symmetric_connectivity(h, u, v, k) == lam
                for u, v, lam in dp.pairs
            )
            on_all = verify_kconn(g, kept, k).ok
            if on_pairs != on_all:
                mismatches += 1
    ok = mismatches == 0 and path_min_bad == 0
    _report(
        9,
        ok,
        f"100 graphs x 20 subgraphs: demand-pair preservation <=> all-pairs "
        f"preservation ({mismatches} mismatches); path-min property "
        f"({path_min_bad} violations)",
    )
    assert mismatches == 0 and path_min_bad == 0


@pytest.fixture(scope="module")
def hierarchy_corpus():
    rng = random.Random(110)
    runs = []
    for trial in range(100):
        n = rng.randrange(3, 13)
        g = gen_random(n, rng.randrange(n, 3 * n), 13_000 + trial,
                       ensure_strongly_connected=bool(trial % 3))
        k = 1 + trial % 2
        params = HierarchyParams(q=2 * k, k=k)
        hier = build_hierarchy(g, params)
        runs.append((g, k, params, hier))
    return runs


def test_criterion_10_hierarchy_validity(hierarchy_corpus):
    bad_levels = 0
    bad_certs = 0
    cross_checked = 0
    for g, k, params, hier in hierarchy_corpus:
        flat = sorted(v for level in hier.levels for v in level)
        bound = (math.ceil(math.log2(g.n)) + 1) if g.n > 1 else 1
        if flat != list(range(g.n)) or hier.depth > bound:
            bad_levels += 1
        for cert in hier.certificates:
            if cert.unbreakable is not True:
                bad_certs += 1
            sub, to_parent = g.induced(cert.component)
            local = {to_parent.index(v) for v in cert.terminals}
            cross_checked += 1
            if not unbreakable_ref(sub, local, params.q, params.k):
                bad_certs += 1
    ok = bad_levels == 0 and bad_certs == 0
    _report(
        10,
        ok,
        f"100 hierarchies (n<=12, k<=2): level bound and partition ok "
        f"({bad_levels} bad), {cross_checked} certificates pass the oracle "
        f"and 2^n enumeration ({bad_certs} bad)",
    )
    assert ok


def test_criterion_11_giant_component(hierarchy_corpus):
    confirmed = 0
    failures = 0
    skipped = 0
    for g, k, params, hier in hierarchy_corpus:
        for cert in hier.certificates:
            if len(cert.terminals) - 2 * params.q <= 0:
                continue  # vacuous instances confirm nothing
            sub, to_parent = g.induced(cert.component)
            if fault_set_count(sub.m, params.k) > 20_000:  # test-time budget
                skipped += 1
                continue
            local = [to_parent.index(v) for v in cert.terminals]
            confirmed += 1
            if not giant_component_check(sub, local, params.q, params.k):
                failures += 1
    ok = failures == 0
    _report(
        11,
        ok,
        f"{confirmed} unbreakable terminal sets searched over fault sets for a giant "
        f"component ({failures} failures, {skipped} skipped over the test budget)",
    )
    assert failures == 0
    assert confirmed > 0


def test_criterion_12_fpt_container_soundness():
    rng = random.Random(121)
    container_checks = 0
    container_misses = 0
    preserver_failures = 0
    reseeds = 0
    for gi in range(50):
        n = rng.randrange(4, 9)
        g = gen_random(n, rng.randrange(n, 21), 15_000 + gi,
                       ensure_strongly_connected=True)
        cache = FptCache()
        critical = enumerate_critical_edges(g, VariantSpec.all_pairs(), 1)
        for seed in range(100):
            container_checks += 1
            res = fpt_container_all_pairs(g, 1, seed, cache)
            if not critical <= res.edges:
                container_misses += 1
        for seed in range(10):
            res = fpt_preserver(g, 1, seed=seed, cache=cache)
            if not verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok:
                reseeds += 1
                res = fpt_preserver(g, 1, seed=seed + 500, cache=cache)
                if not verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok:
                    preserver_failures += 1
    miss_rate = container_misses / container_checks
    ok = miss_rate < 0.02 and preserver_failures == 0
    _report(
        12,
        ok,
        f"container soundness over {container_checks} seeded builds: miss "
        f"rate {miss_rate:.4f} < 0.02; 500 fpt preservers verified "
        f"({reseeds} reseeds, {preserver_failures} failures)",
    )
    assert miss_rate < 0.02
    assert preserver_failures == 0


def test_criterion_13_fmc_laws():
    rng = random.Random(131)
    increment_bad = 0
    monotone_bad = 0
    nesting_bad = 0
    for trial in range(500):
        n = rng.randrange(3, 8)
        g = gen_random(n, rng.randrange(2, 3 * n), 17_000 + trial)
        s, t = 0, n - 1
        cut = farthest_min_cut(g, [s], [t])
        base = max_flow(g, [s], [t]).value
        for v in range(n):
            if v in cut.side:
                continue
            if max_flow(g.add_edges([(s, v)]), [s], [t]).value != base + 1:
                increment_bad += 1
        heads = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
        extended = g.add_edges([(s, v) for v in heads])
        if not cut.side <= farthest_min_cut(extended, [s], [t]).side:
            monotone_bad += 1
        res = important_cut_container(g, [s], [t], 3)
        if res.status != NO_SMALL_CUTS:
            chain = res.nested_sides
            if any(not a <= b for a, b in zip(chain, chain[1:])):
                nesting_bad += 1
    ok = increment_bad == 0 and monotone_bad == 0 and nesting_bad == 0
    _report(
        13,
        ok,
        f"500 graphs: flow-increment law ({increment_bad} bad), FMC-side "
        f"monotonicity ({monotone_bad} bad), nested container chain "
        f"({nesting_bad} bad)",
    )
    assert ok
