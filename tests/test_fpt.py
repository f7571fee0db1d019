import math
import random
from collections import Counter
from dataclasses import dataclass, field

import pytest

from sccpreserve import fpt
from sccpreserve.digraph import DiGraph
from sccpreserve.errors import InputError
from sccpreserve.expander import PHI_HALF, HierarchyParams
from sccpreserve.families import gen_random
from sccpreserve.fpt import (
    FptCache,
    container_params,
    critical_edge_container,
    fpt_container_all_pairs,
    fpt_preserver,
    sample_count,
)
from sccpreserve.impcut import important_cut_container
from sccpreserve.kconn import check_kcritical_cut_bound
from sccpreserve.preservers import sscp
from sccpreserve.variants import VariantSpec
from sccpreserve.verify import enumerate_critical_edges, verify_ft

from conftest import bidirected_k4, three_cycle


def test_sample_count_law():
    assert sample_count(1) == 1
    assert sample_count(2) == math.ceil(50 * math.log(2))
    assert sample_count(8) == math.ceil(50 * math.log(8)) == 104


def test_container_cycle_contains_everything():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = critical_edge_container(g, range(4), 2, 1, seed=0)
    assert report.edges == g.edge_ids()  # every edge is 0-fault critical
    assert report.sample_count == sample_count(4)
    assert report.j_union > 0
    assert all(len(u) <= 2 * report.sample_count * 2 for u in
               report.per_vertex_terminals.values())


def test_container_terminal_bound_is_input_error(monkeypatch):
    # one sample makes the bound 2*lambda*q = 2, which a dense terminal set
    # exceeds: the caller's terminals are not unbreakable enough
    monkeypatch.setattr(fpt, "sample_count", lambda n: 1)
    g = gen_random(7, 20, 39, ensure_strongly_connected=True)
    with pytest.raises(InputError, match="unbreakable"):
        critical_edge_container(g, range(7), 1, 1, seed=39)


def test_container_report_fields():
    g = bidirected_k4()
    report = critical_edge_container(g, range(4), 3, 1, seed=5)
    assert report.rng_seed == 5
    # drawing stops once all C(4, 3) subsets have appeared
    assert len(set(report.sampled_sets)) == len(report.sampled_sets) == math.comb(4, 3)
    assert len(report.sampled_sets) <= report.draws < report.sample_count
    for q_set in report.sampled_sets:
        assert len(q_set) == 3
        assert q_set <= frozenset(range(4))


@dataclass
class KeyCountingCache(FptCache):
    """FptCache that counts how often each container key is asked."""

    asked: Counter = field(default_factory=Counter)

    def container_side(self, g, x, y_mask, k, direction):
        self.asked[(g, x, y_mask, k, direction)] += 1
        return super().container_side(g, x, y_mask, k, direction)


def test_container_builds_each_key_once_per_call():
    # lam = 98 draws of 3 of 7 terminals repeat; each distinct key is asked once
    q, _ = container_params(7, 1)
    for graph_seed in range(40, 50):
        g = gen_random(7, 16, graph_seed, ensure_strongly_connected=True)
        cache = KeyCountingCache()
        report = critical_edge_container(g, range(7), q, 1, seed=graph_seed, cache=cache)
        assert len(report.sampled_sets) < report.draws
        assert max(cache.asked.values()) == 1


def test_container_terminals_union_every_draw():
    # the terminal sets equal unions over all lam draws, repeats included,
    # drawn here from the seed as an unsaturated run would draw them
    q, _ = container_params(6, 1)
    for graph_seed in range(3):
        g = gen_random(6, 13, 60 + graph_seed, ensure_strongly_connected=True)
        report = critical_edge_container(g, range(6), q, 1, seed=graph_seed)
        rng = random.Random(graph_seed)
        draws = [frozenset(rng.sample(range(6), q)) for _ in range(report.sample_count)]
        assert report.sampled_sets == tuple(dict.fromkeys(draws))
        for v in range(g.n):
            side = set()
            for q_set in draws:
                if v not in q_set:
                    for direction in ("out", "in"):
                        side |= important_cut_container(g, [v], q_set, 1, direction).side
            assert report.per_vertex_terminals[v] == frozenset(side)


def test_container_small_terminal_sets_degenerate():
    g = three_cycle()
    report = critical_edge_container(g, {0, 1}, 5, 1, seed=1)
    # |U| < q: every sample equals U itself
    assert all(q_set == frozenset({0, 1}) for q_set in report.sampled_sets)
    assert report.edges == g.edge_ids()


def test_container_contains_critical_edges_random():
    rng = random.Random(19)
    cache = FptCache()
    for trial in range(30):
        g = gen_random(6, rng.randrange(8, 14), 900 + trial,
                       ensure_strongly_connected=True)
        q, _ = container_params(g.n, 1)
        report = critical_edge_container(g, range(g.n), q, 1, seed=trial, cache=cache)
        critical = enumerate_critical_edges(g, VariantSpec.all_pairs(), 1)
        assert critical <= report.edges


def test_all_pairs_container_soundness_many_seeds():
    cache = FptCache()
    misses = 0
    trials = 0
    for graph_seed in range(10):
        g = gen_random(7, 14, graph_seed, ensure_strongly_connected=True)
        critical = enumerate_critical_edges(g, VariantSpec.all_pairs(), 1)
        for seed in range(10):
            trials += 1
            res = fpt_container_all_pairs(g, 1, seed, cache)
            if not critical <= res.edges:
                misses += 1
    assert misses == 0  # deterministic at desk scale: |U| <= 5q^2


def test_container_on_dag_is_sound():
    g = DiGraph(4, [(0, 1), (1, 2), (0, 3)])
    res = fpt_container_all_pairs(g, 1, 3)
    critical = enumerate_critical_edges(g, VariantSpec.all_pairs(), 1)
    assert critical == frozenset()
    assert critical <= res.edges


def test_fpt_preserver_cycle_keeps_all():
    g = DiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    res = fpt_preserver(g, 1, seed=2)
    assert res.kept_edges == g.edge_ids()


def test_fpt_preserver_verified_k4():
    g = bidirected_k4()
    res = fpt_preserver(g, 1, seed=4)
    assert len(res.kept_edges) <= g.m
    assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_fpt_preserver_deterministic():
    g = gen_random(7, 16, 77, ensure_strongly_connected=True)
    first = fpt_preserver(g, 1, seed=7)
    second = fpt_preserver(g, 1, seed=7, cache=FptCache())
    assert first.kept_edges == second.kept_edges
    assert first.stats == second.stats
    # one warm cache shared across seeds, k and graphs of the same n
    warm = FptCache()
    for graph_seed in (77, 78, 79):
        h = gen_random(7, 16, graph_seed, ensure_strongly_connected=True)
        for k in (1, 2):
            for seed in (7, 8):
                fresh = fpt_preserver(h, k, seed=seed)
                shared = fpt_preserver(h, k, seed=seed, cache=warm)
                assert shared.kept_edges == fresh.kept_edges
                assert shared.stats == fresh.stats


class CheckedCache(FptCache):
    """FptCache whose every sscp answer is checked against a fresh run."""

    lookups = 0

    def sscp_for(self, g, u, k, scope=None):
        kept = super().sscp_for(g, u, k, scope)
        assert kept == sscp(g, u, k).kept_edges, (g.signature(), u, k, scope)
        self.lookups += 1
        return kept


def count_sscp_runs(monkeypatch) -> list:
    """(n, root, k) of every root an FptCache computes instead of reusing."""
    runs = []
    fill = FptCache.fill

    def counted(self, g, roots, k, scope=None):
        missing = fill(self, g, roots, k, scope)
        runs.extend((g.n, u, k) for u in missing)
        return missing

    monkeypatch.setattr(FptCache, "fill", counted)
    return runs


def test_sscp_reuse_equals_fresh_runs(monkeypatch):
    runs = count_sscp_runs(monkeypatch)
    rng = random.Random(45)
    cache = CheckedCache()
    for trial in range(6):
        g = gen_random(rng.randrange(5, 8), rng.randrange(10, 18), 1500 + trial,
                       ensure_strongly_connected=True)
        for k in (1, 2):
            fpt_preserver(g, k, seed=trial, cache=cache)
    assert 0 < len(runs) < cache.lookups / 2  # most answers were reused


def test_sscp_cache_compares_edge_records(monkeypatch):
    # same n and edge ids, different endpoints: no entry may answer
    runs = count_sscp_runs(monkeypatch)
    pairs = [(DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0)]),
              DiGraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]))]
    pairs += [(gen_random(6, 12, s), gen_random(6, 12, s + 100)) for s in range(8)]
    for first, second in pairs:
        assert first.edge_ids() == second.edge_ids() and first != second
        for k in (0, 1):
            cache = FptCache()
            for u in range(first.n):
                cache.sscp_for(first, u, k)
            del runs[:]
            for u in range(second.n):
                assert cache.sscp_for(second, u, k) == sscp(second, u, k).kept_edges
            assert len(runs) == second.n


def test_sscp_cache_answers_only_inside_the_sandwich(monkeypatch):
    runs = count_sscp_runs(monkeypatch)
    g = gen_random(6, 14, 5, ensure_strongly_connected=True)
    for k in (1, 2):
        cache = FptCache()
        kept = cache.sscp_for(g, 0, k)
        del runs[:]
        for eid in sorted(g.edge_ids() - kept):  # S <= g - e <= g: reused
            assert cache.sscp_for(g.remove_edges([eid]), 0, k) == kept
        assert not runs
        outside = [g.remove_edges([eid]) for eid in sorted(kept)]
        for h in outside + [g.add_edges([(0, 3)])]:
            cache = FptCache()
            cache.sscp_for(g, 0, k)
            del runs[:]
            assert cache.sscp_for(h, 0, k) == sscp(h, 0, k).kept_edges
            assert len(runs) == 1

def test_fpt_preserver_oracle_checked_removals():
    rng = random.Random(3)
    for trial in range(8):
        g = gen_random(6, rng.randrange(8, 14), 1300 + trial,
                       ensure_strongly_connected=True)
        res = fpt_preserver(g, 1, seed=trial, oracle_check=True)
        assert res.stats["container_misses"] == 0
        assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), 1).ok


def test_fpt_preserver_outputs_sound_random():
    rng = random.Random(21)
    cache = FptCache()
    for trial in range(10):
        g = gen_random(rng.randrange(4, 8), rng.randrange(6, 14), 1100 + trial,
                       ensure_strongly_connected=True)
        for k in (1, 2):
            res = fpt_preserver(g, k, seed=trial, cache=cache)
            assert verify_ft(g, res.kept_edges, VariantSpec.all_pairs(), k).ok



def test_interned_pieces_are_shared_and_change_nothing():
    # the hierarchy memo hands every lookup the same piece objects
    for trial in range(8):
        g = gen_random(7, 16, 300 + trial, ensure_strongly_connected=True)
        cache = FptCache()
        for seed in range(3):
            warm = fpt_container_all_pairs(g, 1, seed, cache)
            assert warm == fpt_container_all_pairs(g, 1, seed, FptCache())
        (hierarchy,) = cache.hierarchies.values()
        pieces = hierarchy.certificates
        for piece in pieces:
            assert (piece.graph, piece.to_parent) == g.induced(piece.component)
        # every bound view sits on a piece object of the memoized hierarchy
        hosts = {id(key[0]) for key in cache.views}
        assert hosts and hosts <= {id(piece.graph) for piece in pieces}


def test_hierarchy_memo_serves_every_k(monkeypatch):
    # a build without certificates reads phi only, so k = 2 reuses the
    # build of k = 1's first graph
    built = []
    build = fpt.build_hierarchy

    def counted(g, params, verify_certificates=True):
        built.append(g)
        return build(g, params, verify_certificates)

    monkeypatch.setattr(fpt, "build_hierarchy", counted)
    for graph_seed in range(6):
        g = gen_random(7, 16, 700 + graph_seed, ensure_strongly_connected=True)
        cache = FptCache()
        for k in (1, 2):
            shared = fpt_preserver(g, k, seed=graph_seed, cache=cache)
            fresh = fpt_preserver(g, k, seed=graph_seed)
            assert (shared.kept_edges, shared.stats) == (fresh.kept_edges, fresh.stats)
        assert Counter(built)[g] == 3  # k = 1 and k = 2 fresh, one shared
        del built[:]
        hierarchy = cache.hierarchy(g)
        assert not built
        assert hierarchy == build(g, PHI_HALF, verify_certificates=False)
        for k in (1, 2):
            # the levels and pieces are those of a build with k's own params
            q, kh = container_params(g.n, k)
            params = HierarchyParams(q=max(q, 2 * kh), k=kh)
            own = build(g, params, verify_certificates=False)
            assert (hierarchy.levels, hierarchy.pieces) == (own.levels, own.pieces)


@pytest.mark.parametrize("seed", [-5, 1.5, "5", True])
def test_seeds_are_nonnegative_ints(seed):
    # Random(-5) draws the stream of Random(5), so a negative seed would
    # silently give seed 5's output; other types were echoed unchecked
    g = three_cycle()
    calls = [
        lambda: gen_random(4, 6, seed),
        lambda: critical_edge_container(g, range(3), 2, 1, seed),
        lambda: fpt_container_all_pairs(g, 1, seed),
        lambda: fpt_preserver(g, 1, seed),
        lambda: check_kcritical_cut_bound(g, 1, sample_limit=2, seed=seed),
    ]
    for call in calls:
        with pytest.raises(InputError, match="seed"):
            call()
