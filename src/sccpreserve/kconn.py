"""k-connectivity preservers (no faults): greedy construction, demand pairs,
the two-level unbreakability decomposition, and the cut-size certificate.

Demand pairs are the edges of a maximum spanning tree of the complete graph
weighted by clamped symmetric connectivity.  Preserving min(lambda, k) on
those n-1 pairs preserves it on all pairs: connectivity along a tree path
lower-bounds the pair, and tree maximality upper-bounds it.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import ceil, sqrt

from . import limits
from .digraph import DiGraph, check_vertex, mask_to_set
from .errors import InputError, require_int
from .expander import is_unbreakable
from .flowcut import Cut, FlowView, bind, boundary_edges
from .preservers import PreserverResult


@dataclass(frozen=True)
class DemandPairs:
    pairs: tuple[tuple[int, int, int], ...]  # (u, v, clamped lambda)

    def path_min(self, u: int, v: int) -> int:
        """min pair-weight along the unique tree path from u to v.

        The tree of :func:`demand_pairs` spans every vertex of its graph, so
        the vertices are those of a graph on len(pairs) + 1 vertices.
        """
        n = len(self.pairs) + 1
        check_vertex(u, n)
        check_vertex(v, n)
        if u == v:
            raise InputError("path_min needs distinct endpoints")
        adj: dict[int, list[tuple[int, int]]] = {}
        for a, b, w in self.pairs:
            adj.setdefault(a, []).append((b, w))
            adj.setdefault(b, []).append((a, w))
        best = {u: None}
        queue = [u]
        while queue:
            cur = queue.pop()
            for nxt, w in adj.get(cur, ()):
                cand = w if best[cur] is None else min(best[cur], w)
                if nxt not in best:
                    best[nxt] = cand
                    queue.append(nxt)
        if v not in best:
            raise InputError(f"{v} not in the demand tree component of {u}")
        return best[v]


def demand_pairs(g: DiGraph, k: int) -> DemandPairs:
    """Maximum-spanning-tree demand pairs under clamped pairwise connectivity.

    Ties are broken by (weight desc, vertex ids asc), which fixes one of the
    equally valid maximum spanning trees.
    """
    require_int("k", k, 0)
    n = g.n
    weighted = sorted((-lam, u, v) for u, v, lam in bind(g).symmetric_pairs(k))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    for neg_w, u, v in weighted:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            pairs.append((u, v, -neg_w))
        if len(pairs) == n - 1:
            break
    return DemandPairs(pairs=tuple(pairs))


def first_missed_pair(view: FlowView, targets) -> tuple[int, int] | None:
    """The first (u, v) of the (u, v, want) targets that the bound graph
    misses, or None when it meets them all.

    A target is met when both flow(u, v) and flow(v, u) reach want; each
    flow is capped at want.  For a subgraph H of g and want = min(lambda_g,
    k), this is the test min(lambda_H, k) == want, since lambda_H <=
    lambda_g.
    """
    for u, v, want in targets:
        if want and (
            view.value(1 << u, 1 << v, want) < want or view.value(1 << v, 1 << u, want) < want
        ):
            return u, v
    return None


def greedy_kconn_preserver(
    g: DiGraph, k: int, use_demand_pairs: bool = False
) -> PreserverResult:
    """Edge-minimal subgraph preserving min(lambda, k) for every pair.

    One pass in ascending edge id drops every edge whose removal keeps the
    targets: every pair, or with ``use_demand_pairs`` only the demand pairs,
    each with its clamped connectivity min(lambda, k).  g is bound once;
    each probe is the current view less the probed edge
    (:meth:`FlowView.minus_edge`, equal to a fresh bind of that graph), and
    becomes the current view when the edge goes.  Transitivity keeps the
    final result a preserver of the input.

    The targets are computed once, from g.  A removal is committed only
    when every target pair keeps its clamped connectivity, and so does
    every pair (for demand pairs, by demand-pair sufficiency); lambda never
    rises on a subgraph, so every clamped lambda of the current graph equals
    that of g.  The demand tree is a Kruskal run over those same weights
    with the same tie-break, so it does not change either.

    A second pass would drop nothing.  Say e was kept because pair (u, v)
    fails in H - e for the then current graph H, and the final graph H' (a
    subgraph of H preserving it) still contains e.  Then
    lambda_{H'-e} <= lambda_{H-e} < min(lambda_H, k) = min(lambda_{H'}, k) on
    (u, v), so the pair fails in H' - e too; and a failing pair implies a
    failing demand pair, because meeting every demand pair meets every pair.
    """
    require_int("k", k, 0)
    kept = set(g.edge_ids())
    oracle_calls = 0
    view = bind(g)
    if use_demand_pairs:
        targets = demand_pairs(g, k).pairs
    else:
        targets = view.symmetric_pairs(k)
    for e in g.edges:
        if e.tail != e.head:
            oracle_calls += 1
            probe = view.minus_edge(e.tail, e.head)
            if first_missed_pair(probe, targets) is not None:
                continue
            view = probe
        kept.discard(e.id)
    return PreserverResult(
        kept_edges=frozenset(kept),
        variant="kconn",
        params={"k": k, "use_demand_pairs": use_demand_pairs},
        stats={
            "input_edges": g.m,
            "output_edges": len(kept),
            "removal_attempts": g.m,
            "oracle_calls": oracle_calls,
        },
        provenance="greedy_kconn",
    )


def default_part_size(n: int, k: int) -> int:
    """The decomposition parameter the size analysis optimizes: ceil(sqrt(nk))."""
    return max(1, ceil(sqrt(max(n, 0) * max(k, 0))))


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[frozenset, ...]
    cuts: tuple[Cut, ...]
    q: int
    k: int


def unbreakability_decomposition(g: DiGraph, q: int, k: int) -> Decomposition:
    """Split V along small cuts until every part is (q, k)-unbreakable.

    A part S splits when some global cut (L, R) with boundary at most k in
    one direction has at least q members of S on each side; the witness
    search is the unbreakability oracle with threshold q-1.  At most n/q
    cuts are ever recorded.

    Each part is checked once.  The parts not yet checked wait in a heap
    keyed by their lowest vertex (parts are disjoint, so no two keys tie),
    and the lowest is checked next: a breakable part is split and its two
    halves join the heap, an unbreakable or small one is final.  The splits
    come in the order of a scan that restarts after every split and splits
    the breakable part of lowest minimum: a part's verdict depends only on
    g and the part, a part found unbreakable is never split, so every part
    the heap has passed over stays unbreakable, and the popped breakable
    part is the breakable part of lowest minimum.
    """
    require_int("q", q, 1)
    require_int("k", k, 0)
    if g.n == 0:
        return Decomposition(parts=(), cuts=(), q=q, k=k)
    unchecked = [(0, frozenset(range(g.n)))]
    parts = []
    cuts: list[Cut] = []
    while unchecked:
        _, part = heapq.heappop(unchecked)
        if len(part) >= 2 * q:
            res = is_unbreakable(g, part, q - 1, k)
            if not res.unbreakable:
                for half in (part & res.witness.side, part - res.witness.side):
                    heapq.heappush(unchecked, (min(half), half))
                cuts.append(res.witness)
                continue
        parts.append(part)
    return Decomposition(
        parts=tuple(sorted(parts, key=min)), cuts=tuple(cuts), q=q, k=k
    )


@dataclass(frozen=True)
class CutBoundReport:
    bound: int
    demand_pair_count: int
    cuts_checked: int
    violations: tuple[frozenset, ...]


def check_kcritical_cut_bound(
    h: DiGraph, k: int, sample_limit: int | None = None, seed: int = 0
) -> CutBoundReport:
    """Certificate check: small out-cuts of a k-critical graph have small in-size.

    For every cut side L with |out-boundary| <= k the in-boundary stays
    within 4k|P| where P are the demand pairs (each pair's two path families
    cross back at most 2k times).  Violations are reported, not raised.
    Without ``sample_limit`` all 2^n - 2 sides are checked, under the
    side-enumeration guard.
    """
    require_int("k", k, 0)
    require_int("seed", seed, 0)
    if sample_limit is not None:
        require_int("sample_limit", sample_limit, 0)
    n = h.n
    if sample_limit is None:
        limits.guard_side_enumeration(n)
    pair_count = len(demand_pairs(h, k).pairs)
    bound = 4 * k * pair_count
    total_sides = (1 << n) - 2 if n >= 1 else 0
    if sample_limit is None or total_sides <= sample_limit:
        masks = range(1, (1 << n) - 1)
    else:
        rng = random.Random(seed)
        masks = sorted(rng.sample(range(1, (1 << n) - 1), sample_limit))
    checked = 0
    violations = []
    for mask in masks:
        side = mask_to_set(mask)
        out_size = len(boundary_edges(h, side, "out"))
        if out_size > k:
            continue
        checked += 1
        in_size = len(boundary_edges(h, side, "in"))
        if in_size > bound:
            violations.append(side)
    return CutBoundReport(
        bound=bound,
        demand_pair_count=pair_count,
        cuts_checked=checked,
        violations=tuple(violations),
    )
