"""FPT-style preserver construction via critical-edge containers.

The container for a source set U unions three ingredients: single-source
preservers rooted at a deterministic slice of U, important-cut containers
toward randomly sampled q-subsets of U (which locate the relevant terminals
per vertex), and per-terminal important-cut boundaries at budget k+1.  With
high probability it contains every edge that is k-fault critical with
respect to U x V; at desk scale, where U fits inside the deterministic
slice entirely, containment is unconditional.

All randomness flows from one recorded seed, so identical inputs give
identical outputs.  A :class:`FptCache` can be shared across calls.  It
reuses a single-source preserver S = sscp(G, u, k) for every graph G' with
S <= G' <= G, where greedy provably returns S again.  In the decremental
loop of :func:`fpt_preserver` the removed edge lies outside the container,
which holds every S it was built from, so most lookups reuse.  Important-cut
container sides and expander hierarchies are memoized by graph content.
Caching never changes any result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log, sqrt

from . import limits
from .digraph import DiGraph
from .errors import InputError, require_int
from .expander import HierarchyParams, build_hierarchy
from .impcut import OK, important_cut_container
from .preservers import PreserverResult, is_ft_critical, sscp
from .variants import VariantSpec


@dataclass
class FptCache:
    """Memo for the expensive container ingredients.

    Single-source preservers are kept one per (scope, u, k), where the scope
    is the tuple of parent vertices of the piece g (its ``to_parent``; g's
    own vertices by default).  An entry holds the edge records of
    S = sscp(G, u, k) and of the host G it was computed on, and answers for
    a graph g exactly when S <= E(g) <= E(G).  Records are compared whole
    (id, tail, head, color), so graphs whose ids coincide but whose edges
    differ never share an entry.  A recomputation replaces the entry; g = G
    is the exact hit.

    The reuse is exact: greedy sscp(G', u, k) = S whenever S <= G' <= G.
    Let e_1 < e_2 < ... be the edge ids of G and H_i the greedy graph on G
    before e_i is scanned; H'_i is the run on G' (edges outside G' are
    skipped).  By induction S <= H'_i <= H_i <= G.  S is a k-FT preserver
    of G, so by the sandwich lemma (a graph between S - F and G - F has
    their connectivity) it preserves H_i and H'_i.  If e_i is not in S,
    S <= H'_i - e_i, so H'_i - e_i preserves H'_i: e_i is not critical in
    H'_i and is removed, as it was from H_i.  If e_i is in S, it was critical
    in H_i with a witness F, a pair connected in H_i - F but not in
    H_i - F - e_i.  As S preserves H_i, the pair is connected in
    S - F <= H'_i - F, and it is not in H'_i - F - e_i <= H_i - F - e_i, so
    F & E(H'_i) witnesses e_i in H'_i and e_i is kept.  The run on G'
    therefore ends at S.

    Important-cut container sides and expander hierarchies are memoized by
    graph content: a graph hashes and compares by its signature, so only an
    identical graph hits.  Both computations are deterministic functions of
    the graph and their other arguments; a hierarchy also depends on
    ``limits.exact_cut_limit()``, which joins its key.  A memoized
    hierarchy hands out the same piece graphs on every hit, so container
    keys built on them match by identity before any signature is compared.
    """

    sscp_entries: dict = field(default_factory=dict)
    containers: dict = field(default_factory=dict)
    hierarchies: dict = field(default_factory=dict)

    def sscp_for(
        self, g: DiGraph, u: int, k: int, scope: tuple | None = None
    ) -> frozenset:
        key = (tuple(range(g.n)) if scope is None else scope, u, k)
        records = frozenset(g.edges)
        entry = self.sscp_entries.get(key)
        if entry is not None:
            kept, kept_records, host_records = entry
            if kept_records <= records <= host_records:
                return kept
        kept = sscp(g, u, k).kept_edges
        self.sscp_entries[key] = (kept, frozenset(g.edge(i) for i in kept), records)
        return kept

    def hierarchy(self, g: DiGraph, params: HierarchyParams):
        key = (g, params, limits.exact_cut_limit())
        hit = self.hierarchies.get(key)
        if hit is None:
            hit = build_hierarchy(g, params, verify_certificates=False)
            self.hierarchies[key] = hit
        return hit

    def container_side(self, g, x, y_set, k, direction):
        key = (g, x, y_set, k, direction)
        hit = self.containers.get(key)
        if hit is None:
            res = important_cut_container(g, [x], y_set, k, direction)
            if res.status == OK:
                hit = (res.cut.side, res.cut.boundary)
            else:
                hit = (frozenset(), frozenset())
            self.containers[key] = hit
        return hit


def sample_count(n: int) -> int:
    """ceil(50 ln n), floored at one sample."""
    if n <= 1:
        return 1
    return max(1, ceil(50.0 * log(n)))


@dataclass(frozen=True)
class CriticalContainerReport:
    edges: frozenset
    per_vertex_terminals: dict
    sampled_sets: tuple[frozenset, ...]
    sample_count: int
    rng_seed: int
    j_union: int
    skipped: dict  # vertex -> samples skipped because the vertex was drawn


def critical_edge_container(
    g: DiGraph,
    terminals,
    q: int,
    k: int,
    seed: int,
    cache: FptCache | None = None,
    scope: tuple | None = None,
) -> CriticalContainerReport:
    """Edge set containing (whp) every edge k-fault critical w.r.t. U x V.

    Follows the sampling construction: single-source preservers from the
    first min(5q^2, |U|) terminals, lam = ceil(50 ln n) sampled q-subsets
    Q_j, per-vertex terminal sets from important-cut containers toward the
    samples, then per-terminal containers at budget k+1.  When |U| < q the
    samples degenerate to U itself.  ``scope`` names g's vertices in a
    larger graph (see :class:`FptCache`).

    Raises :class:`InputError` when some vertex collects more than
    2 * lambda * q terminals: the terminal set is not unbreakable enough
    for the sampling bound.
    """
    require_int("q", q, 1)
    require_int("k", k, 0)
    U = sorted(set(terminals))
    for v in U:
        g._check_vertex(v)
    if cache is None:
        cache = FptCache()
    if not U:
        return CriticalContainerReport(
            frozenset(), {}, (), 0, seed, 0, {}
        )
    rng = random.Random(seed)
    slice_size = min(5 * q * q, len(U))
    j_edges: set = set()
    for u in U[:slice_size]:
        j_edges |= cache.sscp_for(g, u, k, scope)

    lam = sample_count(g.n)
    samples = []
    for _ in range(lam):
        if len(U) < q:
            samples.append(frozenset(U))
        else:
            samples.append(frozenset(rng.sample(U, q)))

    u_set = frozenset(U)
    per_vertex: dict = {}
    skipped: dict = {}
    container_edges: set = set(j_edges)
    bound = 2 * lam * q
    for v in range(g.n):
        union_side: set = set()
        skips = 0
        for q_set in samples:
            if v in q_set:
                skips += 1
                continue
            for direction in ("out", "in"):
                side, _ = cache.container_side(g, v, q_set, k, direction)
                union_side |= side
        terminals_v = frozenset(union_side & u_set)
        if len(terminals_v) > bound:
            raise InputError(
                f"|U_i|={len(terminals_v)} exceeds 2*lambda*q={bound}; "
                "terminal set was not unbreakable enough"
            )
        per_vertex[v] = terminals_v
        if skips:
            skipped[v] = skips
        for u in sorted(terminals_v):
            if u == v:
                continue
            for direction in ("out", "in"):
                _, boundary = cache.container_side(g, u, frozenset([v]), k + 1, direction)
                container_edges |= boundary
    return CriticalContainerReport(
        edges=frozenset(container_edges),
        per_vertex_terminals=per_vertex,
        sampled_sets=tuple(samples),
        sample_count=lam,
        rng_seed=seed,
        j_union=len(j_edges),
        skipped=skipped,
    )


@dataclass(frozen=True)
class FptContainerResult:
    edges: frozenset
    seed: int
    levels: tuple  # (level, component, terminal count, container size) rows
    sample_count: int
    exact: bool  # the hierarchy's sparse cuts were all exhaustive


def container_params(n: int, k: int) -> tuple[int, int]:
    """(q for the sampling construction, k parameter of the hierarchy)."""
    kh = 2**k
    q = max(1, ceil(kh * sqrt(max(1.0, log(max(n, 1))))))
    return q, kh


def fpt_container_all_pairs(
    g: DiGraph, k: int, seed: int, cache: FptCache | None = None
) -> FptContainerResult:
    """Union of per-level critical-edge containers over an expander hierarchy.

    The hierarchy targets (q, 2^k)-unbreakable terminal sets with phi = 1/2;
    per (level, SCC of the prefix graph) the sampling container runs on the
    induced subgraph.  With high probability the union contains every
    k-fault critical edge of g.
    """
    require_int("k", k, 0)
    if cache is None:
        cache = FptCache()
    if g.n == 0:
        return FptContainerResult(frozenset(), seed, (), 0, True)
    q, kh = container_params(g.n, k)
    params = HierarchyParams(
        q=max(q, ceil(kh / Fraction(1, 2))), k=kh, phi=Fraction(1, 2)
    )
    hierarchy = cache.hierarchy(g, params)
    rng = random.Random(seed)
    edges: set = set()
    rows = []
    lam = 0
    for piece in hierarchy.pieces:
        sub_seed = rng.randrange(1 << 62)  # drawn for terminal-free pieces too
        if not piece.terminals:
            continue
        report = critical_edge_container(
            piece.graph, piece.local_terminals, q, k, sub_seed, cache, piece.to_parent
        )
        edges |= report.edges
        lam = max(lam, report.sample_count)
        rows.append((
            piece.level, tuple(sorted(piece.component)), len(piece.terminals),
            len(report.edges),
        ))
    return FptContainerResult(
        edges=frozenset(edges), seed=seed, levels=tuple(rows), sample_count=lam,
        exact=hierarchy.exact,
    )


def fpt_preserver(
    g: DiGraph,
    k: int,
    seed: int,
    stop_threshold: int | None = None,
    oracle_check: bool = False,
    cache: FptCache | None = None,
) -> PreserverResult:
    """Decremental preserver: drop the lowest edge outside the fresh container.

    Each iteration rebuilds the container for the current graph with a new
    seed from the stream and removes one non-container edge; the loop stops
    at the stop threshold or when the container covers everything.  With
    ``oracle_check`` every removal is first confirmed non-critical by the
    exhaustive oracle; a container that wrongly excluded a critical edge is
    counted and the iteration reseeds instead of removing.
    ``stats["exact"]`` is False when some iteration's hierarchy used a
    heuristic sparse cut.
    """
    require_int("k", k, 0)
    threshold = stop_threshold if stop_threshold is not None else 0
    if cache is None:
        cache = FptCache()
    rng = random.Random(seed)
    kept = set(g.edge_ids())
    iterations = 0
    container_misses = 0
    consecutive_misses = 0
    container_sizes = []
    last_levels = ()
    exact = True
    while len(kept) > threshold:
        iterations += 1
        sub_seed = rng.randrange(1 << 62)
        h = g.restrict_to(kept)
        container = fpt_container_all_pairs(h, k, sub_seed, cache)
        container_sizes.append(len(container.edges))
        exact &= container.exact
        last_levels = tuple(
            (level, terminal_count, size)
            for level, _, terminal_count, size in container.levels
        )
        removable = sorted(kept - container.edges)
        if not removable:
            break
        candidate = removable[0]
        if oracle_check:
            if is_ft_critical(h, candidate, VariantSpec.all_pairs(), k).critical:
                container_misses += 1
                consecutive_misses += 1
                if consecutive_misses > 25:
                    break  # give up reseeding; output stays a valid preserver
                continue
            consecutive_misses = 0
        kept.discard(candidate)
    return PreserverResult(
        kept_edges=frozenset(kept),
        variant="all_pairs",
        params={"k": k, "seed": seed, "stop_threshold": threshold},
        stats={
            "input_edges": g.m,
            "output_edges": len(kept),
            "iterations": iterations,
            "container_sizes": container_sizes,
            "container_levels": last_levels,
            "container_misses": container_misses,
            "sample_count": sample_count(g.n),
            "exact": exact,
        },
        provenance="fpt",
    )
