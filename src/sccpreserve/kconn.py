"""k-connectivity preservers (no faults): greedy construction, demand pairs,
the two-level unbreakability decomposition, and the cut-size certificate.

Demand pairs are the edges of a maximum spanning tree of the complete graph
weighted by clamped symmetric connectivity.  Preserving min(lambda, k) on
those n-1 pairs preserves it on all pairs: connectivity along a tree path
lower-bounds the pair, and tree maximality upper-bounds it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, sqrt

from . import limits
from .digraph import DiGraph, mask_to_set
from .errors import InputError, require_int
from .expander import is_unbreakable
from .flowcut import Cut, FlowView, bind, boundary_edges
from .preservers import PreserverResult


@dataclass(frozen=True)
class DemandPairs:
    pairs: tuple[tuple[int, int, int], ...]  # (u, v, clamped lambda)
    tree_edges: tuple[tuple[int, int], ...]

    def path_min(self, u: int, v: int) -> int:
        """min pair-weight along the unique tree path from u to v."""
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
    if n <= 1:
        return DemandPairs(pairs=(), tree_edges=())
    view = bind(g)
    weighted = []
    for u in range(n):
        for v in range(u + 1, n):
            weighted.append((-view.symmetric(u, v, k), u, v))
    weighted.sort()
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
    return DemandPairs(
        pairs=tuple(pairs), tree_edges=tuple((u, v) for u, v, _ in pairs)
    )


def _preserves_pairs(probe: FlowView, targets) -> bool:
    """Does the bound graph meet every (u, v, needed) target?"""
    for u, v, needed in targets:
        if needed == 0:
            continue
        if probe.value(1 << u, 1 << v, needed) < needed:
            return False
        if probe.value(1 << v, 1 << u, needed) < needed:
            return False
    return True


def greedy_kconn_preserver(
    g: DiGraph, k: int, use_demand_pairs: bool = False
) -> PreserverResult:
    """Edge-minimal subgraph preserving min(lambda, k) for every pair.

    One pass in ascending edge id drops every edge whose removal keeps the
    targets: every pair, or with ``use_demand_pairs`` only the demand pairs,
    each with its clamped connectivity min(lambda, k).  Each probe binds one
    graph, g restricted to the kept edges minus the probed one.
    Transitivity keeps the final result a preserver of the input.

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
    if use_demand_pairs:
        targets = demand_pairs(g, k).pairs
    else:
        view = bind(g)
        targets = []
        for u in range(g.n):
            for v in range(u + 1, g.n):
                lam = view.symmetric(u, v, k)
                if lam:
                    targets.append((u, v, lam))
    for e in g.edges:
        if e.tail != e.head:
            oracle_calls += 1
            if not _preserves_pairs(bind(g.restrict_to(kept - {e.id})), targets):
                continue
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
    """
    require_int("q", q, 1)
    require_int("k", k, 0)
    if g.n == 0:
        return Decomposition(parts=(), cuts=(), q=q, k=k)
    parts = [frozenset(range(g.n))]
    cuts: list[Cut] = []
    progress = True
    while progress:
        progress = False
        for part in sorted(parts, key=min):
            if len(part) < 2 * q:
                continue
            res = is_unbreakable(g, part, q - 1, k)
            if res.unbreakable:
                continue
            left = part & res.witness.side
            right = part - res.witness.side
            parts.remove(part)
            parts.extend([left, right])
            cuts.append(res.witness)
            progress = True
            break
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
