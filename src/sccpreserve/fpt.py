"""FPT-style preserver construction via critical-edge containers.

The container for a source set U unions three ingredients: single-source
preservers rooted at a deterministic slice of U, important-cut containers
toward randomly sampled q-subsets of U (which locate the relevant terminals
per vertex), and per-terminal important-cut boundaries at budget k+1.  With
high probability it contains every edge that is k-fault critical with
respect to U x V; at desk scale, where U fits inside the deterministic
slice entirely, containment is unconditional.  A piece holds few terminals,
so the samples repeat: drawing stops once every q-subset has appeared, and
each distinct sample's containers are built once.  A container that a
single-pair flow already shows to be empty is not built at all.

All randomness flows from one recorded seed, so identical inputs give
identical outputs.  A :class:`FptCache` can be shared across calls.  It
reuses a single-source preserver S = sscp(G, u, k) for every graph G' with
S <= G' <= G, where greedy provably returns S again (the sandwich rule).
In the decremental loop of :func:`fpt_preserver` the removed edge lies
outside the container, which holds every S it was built from, so most
lookups reuse.  The roots of a piece that no entry answers are computed
together, by one grouped greedy scan (``preservers.sscp_group``): roots
whose runs have removed the same edges share one current graph and one
criticality search per edge, and one table of G - F's root components
serves them all, since each root's greedy graph keeps that root's
component of G - F for |F| <= k.  The bound flow views that container
sides run on, single-pair flows and expander hierarchies are memoized by
graph content, a hierarchy also across k; container sides themselves are
not (see :class:`FptCache`).  Caching never changes any result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import ceil, comb, log, sqrt

from . import limits
from .digraph import DiGraph, mask_to_set, set_to_mask
from .errors import InputError, require_int
from .expander import PHI_HALF, build_hierarchy
from .flowcut import FlowView, bind, boundary_edges
from .impcut import container_sides
from .preservers import PreserverResult, is_ft_critical, sscp_group

# Unused here; perfbench/tracer.py wraps these two names where fpt binds them.
from .impcut import important_cut_container  # noqa: F401
from .preservers import sscp  # noqa: F401
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
    is the exact hit.  :meth:`fill` computes every root of a piece that no
    entry answers in one grouped scan (``preservers.sscp_group``, whose
    docstring has the lemma), and :meth:`sscp_for` is the per-root lookup.

    The reuse (the sandwich rule) is exact: greedy sscp(G', u, k) = S
    whenever S <= G' <= G.  Let e_1 < e_2 < ... be the edge ids of G and H_i
    the greedy graph on G before e_i is scanned; H'_i is the run on G'
    (edges outside G' are skipped).  By induction S <= H'_i <= H_i <= G.  S
    is a k-FT preserver of G, so by the sandwich lemma (a graph between
    S - F and G - F has their connectivity) it preserves H_i and H'_i.  If
    e_i is not in S, S <= H'_i - e_i, so H'_i - e_i preserves H'_i: e_i is
    not critical in H'_i and is removed, as it was from H_i.  If e_i is in
    S, it was critical in H_i with a witness F, a pair connected in H_i - F
    but not in H_i - F - e_i.  As S preserves H_i, the pair is connected in
    S - F <= H'_i - F, and it is not in H'_i - F - e_i <= H_i - F - e_i, so
    F & E(H'_i) witnesses e_i in H'_i and e_i is kept.  The run on G'
    therefore ends at S.

    Bound flow views, single-pair flows and expander hierarchies are
    memoized by graph content: a graph hashes and compares by its
    signature, so only an identical graph hits.  Each is a deterministic
    function of the graph and its other arguments.  Every hierarchy is
    built without certificates on ``expander.PHI_HALF``, so it reads only
    phi = 1/2 and ``limits.exact_cut_limit()``, and the graph and that
    limit key it.  The same build serves every k: FPT reads of it only the
    levels, the pieces and ``exact``, never its params, and its sampling q
    comes from :func:`container_params`.  A memoized hierarchy hands out
    the same piece graphs on every hit, so keys built on them match by
    identity before any signature is compared.  Each table stays because it
    is read again; over fpt_preserver at k = 1 and 2 on the 200 graphs of
    the criterion-1 corpus, one cache per graph:

    * ``views``, one :class:`FlowView` per piece and direction, on which
      every container side and pair flow of that piece runs: 8,936 of
      10,573 lookups hit, almost all within one container call;
    * ``flows``, one table of single-pair flows per piece and k: 850 of
      2,452 lookups hit, on later iterations whose removed edge left the
      piece as it was;
    * ``hierarchies``: 270 of 1,326 lookups hit;
    * ``sscp_entries``: 4,728 of 7,084 roots were answered by an entry.

    Container sides are computed afresh on every request: one
    :func:`critical_edge_container` call asks each key once, and the
    decremental loop's graph loses an edge per iteration, so a side memo
    had no hit in 8,971 lookups on that corpus.
    """

    sscp_entries: dict = field(default_factory=dict)
    hierarchies: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    last_records: tuple = (None, frozenset())  # (graph, its edge records)

    def _reused(self, key: tuple, g: DiGraph) -> frozenset | None:
        """The entry's preserver when it answers for g, else None."""
        entry = self.sscp_entries.get(key)
        if entry is None:
            return None
        if self.last_records[0] is not g:
            self.last_records = (g, frozenset(g.edges))
        kept, kept_records, host_records = entry
        if kept_records <= self.last_records[1] <= host_records:
            return kept
        return None

    def fill(self, g: DiGraph, roots, k: int, scope: tuple | None = None) -> list:
        """Compute, in one grouped scan, the roots that no entry answers.

        Returns those roots; each gets a new entry hosted on g.
        """
        scope = tuple(range(g.n)) if scope is None else scope
        missing = [u for u in roots if self._reused((scope, u, k), g) is None]
        if missing:
            records = frozenset(g.edges)
            for u, kept in sscp_group(g, missing, k).items():
                kept_records = frozenset(g.edge(i) for i in kept)
                self.sscp_entries[scope, u, k] = (kept, kept_records, records)
        return missing

    def sscp_for(
        self, g: DiGraph, u: int, k: int, scope: tuple | None = None
    ) -> frozenset:
        """sscp(g, u, k).kept_edges, from an entry or from :meth:`fill`."""
        key = (tuple(range(g.n)) if scope is None else scope, u, k)
        kept = self._reused(key, g)
        if kept is None:
            self.fill(g, (u,), k, scope)
            kept = self.sscp_entries[key][0]
        return kept

    def hierarchy(self, g: DiGraph):
        """The hierarchy of g at phi = 1/2, built without certificates."""
        key = (g, limits.exact_cut_limit())
        hit = self.hierarchies.get(key)
        if hit is None:
            hit = build_hierarchy(g, PHI_HALF, verify_certificates=False)
            self.hierarchies[key] = hit
        return hit

    def view(self, g: DiGraph, direction: str) -> FlowView:
        """``bind(g)`` for ``'out'``, ``bind(g, reverse=True)`` for ``'in'``."""
        key = (g, direction)
        hit = self.views.get(key)
        if hit is None:
            hit = self.views[key] = bind(g, reverse=direction == "in")
        return hit

    def pair_flows(self, g: DiGraph, k: int) -> "PairFlows":
        key = (g, k)
        hit = self.flows.get(key)
        if hit is None:
            hit = self.flows[key] = PairFlows(self.view(g, "out"), k)
        return hit

    def container_side(self, g, x, y_mask, k, direction) -> int:
        """The side mask of ``important_cut_container(g, [x], Y, k,
        direction)`` for the vertex mask ``y_mask`` of Y, 0 when it holds no
        cut, from the mask rounds of ``impcut.container_sides`` on the
        piece's bound view."""
        sides, _ = container_sides(self.view(g, direction), 1 << x, y_mask, k)
        return sides[-1] if sides else 0


class PairFlows:
    """min(flow(a, b), k + 2) of one bound graph, each computed on its first
    read, with per-vertex masks of the pairs known and of those above k.

    Every read is compared with k or k + 1, so a pair whose degree bound,
    min(capacity out of a, capacity into b), is at most k reads as that
    bound and needs no flow: each edge-disjoint a -> b path leaves a and
    enters b by an edge of its own, so the flow never exceeds the bound,
    and both comparisons come out as they would for the flow.

    ``known["out"][a]``/``over["out"][a]`` hold the b with flow(a, b)
    computed / above k, ``known["in"][b]``/``over["in"][b]`` the a with
    flow(a, b) computed / above k.  :meth:`exceeds` reads the masks first
    and computes only unknown pairs, in ascending vertex order, until one
    is above k: which flows get computed may depend on the order of the
    tests, but every answer is the one a full table gives.
    """

    __slots__ = ("view", "k", "values", "known", "over", "out_cap")

    def __init__(self, view: FlowView, k: int):
        n = view.n
        self.view = view
        self.k = k
        self.values: dict = {}
        self.out_cap = [sum(view.cap[a * n:(a + 1) * n]) for a in range(n)]
        self.known = {"out": [0] * n, "in": [0] * n}
        self.over = {"out": [0] * n, "in": [0] * n}

    def value(self, a: int, b: int) -> int:
        value = self.values.get((a, b))
        if value is None:
            value = min(self.out_cap[a], self.view.into[b])
            if value > self.k:
                value = self.view.value(1 << a, 1 << b, self.k + 2)
            self.values[a, b] = value
            self.known["out"][a] |= 1 << b
            self.known["in"][b] |= 1 << a
            if value > self.k:
                self.over["out"][a] |= 1 << b
                self.over["in"][b] |= 1 << a
        return value

    def exceeds(self, v: int, q_mask: int, direction: str) -> bool:
        """Some u in the mask has flow(v, u) > k (``'out'``) or
        flow(u, v) > k (``'in'``)."""
        if q_mask & self.over[direction][v]:
            return True
        bits = q_mask & ~self.known[direction][v]
        while bits:
            b = bits & -bits
            bits ^= b
            u = b.bit_length() - 1
            if (self.value(v, u) if direction == "out" else self.value(u, v)) > self.k:
                return True
        return False


def sample_count(n: int) -> int:
    """ceil(50 ln n), floored at one sample."""
    if n <= 1:
        return 1
    return max(1, ceil(50.0 * log(n)))


@dataclass(frozen=True)
class CriticalContainerReport:
    edges: frozenset
    per_vertex_terminals: dict
    sampled_sets: tuple[frozenset, ...]  # the distinct samples, in draw order
    draws: int  # draws made; the lam - draws left could add no new sample
    sample_count: int
    rng_seed: int
    j_union: int


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
    samples, then per-terminal containers at budget k+1.  When |U| <= q
    every sample is U itself.  ``scope`` names g's vertices in a larger
    graph (see :class:`FptCache`).

    Only the set of distinct samples is read: a vertex's terminal set is a
    union of container sides, which a repeated sample leaves unchanged, and
    the bound below counts all lam draws.  ``rng`` is local and read only by
    the draws, so no draw is made once the samples hold all C(|U|, q)
    q-subsets (the rest could only repeat one), and none when |U| <= q.
    ``sampled_sets`` lists the distinct samples in draw order and ``draws``
    counts the draws made.

    A container that must come out empty is not built.  The container
    toward Q is empty when flow(X, Q) exceeds its budget (no important cut
    is that small), and flow(v, Q) >= flow(v, u) for every u in Q: cutting
    each of k + 1 edge-disjoint v -> u paths at its first Q vertex leaves
    k + 1 edge-disjoint v -> Q paths.  So the out-container of (v, Q) is
    skipped when some single-pair flow flow(v, u) of g exceeds k, and the
    in-container, whose transposed v -> Q flow is g's Q -> v flow, when
    some flow(u, v) does; a budget-(k+1) container from u to {v} is skipped
    when flow(u, v) (out) or flow(v, u) (in) exceeds k + 1.  The pair flows
    are capped at k + 2, which decides both tests.  A sampled side is only
    unioned, so it stays a vertex mask; only the budget-(k+1) containers
    read a boundary, the edges of g that leave (out) or enter (in) the side.

    Raises :class:`InputError` when some vertex collects more than
    2 * lambda * q terminals: the terminal set is not unbreakable enough
    for the sampling bound.
    """
    require_int("q", q, 1)
    require_int("k", k, 0)
    require_int("seed", seed, 0)
    U = sorted(g.vertex_set(terminals))
    if cache is None:
        cache = FptCache()
    if not U:
        return CriticalContainerReport(frozenset(), {}, (), 0, 0, seed, 0)
    roots = U[: min(5 * q * q, len(U))]
    cache.fill(g, roots, k, scope)
    j_edges: set = set()
    for u in roots:
        j_edges |= cache.sscp_for(g, u, k, scope)

    lam = sample_count(g.n)
    draws = 0
    u_mask = set_to_mask(U)
    if len(U) <= q:
        samples = {u_mask: None}
    else:
        rng = random.Random(seed)
        samples = {}  # vertex masks, in draw order
        subsets = comb(len(U), q)
        while draws < lam and len(samples) < subsets:
            samples[set_to_mask(rng.sample(U, q))] = None
            draws += 1

    flows = cache.pair_flows(g, k)
    per_vertex: dict = {}
    container_edges: set = set(j_edges)
    bound = 2 * lam * q
    for v in range(g.n):
        bit = 1 << v
        union_side = 0
        for q_mask in samples:
            if q_mask & bit:
                continue
            for direction in ("out", "in"):
                if not flows.exceeds(v, q_mask, direction):
                    union_side |= cache.container_side(g, v, q_mask, k, direction)
        terminals_v = union_side & u_mask
        if terminals_v.bit_count() > bound:
            raise InputError(
                f"|U_i|={terminals_v.bit_count()} exceeds 2*lambda*q={bound}; "
                "terminal set was not unbreakable enough"
            )
        per_vertex[v] = mask_to_set(terminals_v)
        for u in sorted(per_vertex[v] - {v}):
            for direction, a, z in (("out", u, v), ("in", v, u)):
                if flows.value(a, z) <= k + 1:
                    side = cache.container_side(g, u, bit, k + 1, direction)
                    container_edges |= boundary_edges(g, mask_to_set(side), direction)
    return CriticalContainerReport(
        edges=frozenset(container_edges),
        per_vertex_terminals=per_vertex,
        sampled_sets=tuple(mask_to_set(q_mask) for q_mask in samples),
        draws=draws,
        sample_count=lam,
        rng_seed=seed,
        j_union=len(j_edges),
    )


@dataclass(frozen=True)
class FptContainerResult:
    edges: frozenset
    seed: int
    levels: tuple  # (level, component, terminal count, container size) rows
    exact: bool  # the hierarchy's sparse cuts were all exhaustive


def container_params(n: int, k: int) -> tuple[int, int]:
    """(q for the sampling construction, k parameter of the hierarchy).

    k is capped at n's bit length before 2^k is formed, so a huge k costs
    nothing.  The cap changes no container: past it 2^k > n, so q > n, and
    every q >= |U| gives the same one.  All of U are roots (5q^2 >= |U|),
    U is the one sample (|U| <= q), and no vertex collects more than
    2 * lambda * q terminals.
    """
    kh = 2 ** min(k, max(n, 1).bit_length())
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

    A k above m(g) is lowered to m(g): a fault set is a set of g's edges,
    so every k >= m(g) admits the same fault sets, hence the same critical
    edges, which the container for m(g) holds.
    """
    require_int("k", k, 0)
    require_int("seed", seed, 0)
    k = min(k, g.m)
    if cache is None:
        cache = FptCache()
    if g.n == 0:
        return FptContainerResult(frozenset(), seed, (), True)
    q, _ = container_params(g.n, k)
    hierarchy = cache.hierarchy(g)
    rng = random.Random(seed)
    edges: set = set()
    rows = []
    for piece in hierarchy.pieces:
        sub_seed = rng.randrange(1 << 62)  # drawn for terminal-free pieces too
        if not piece.terminals:
            continue
        report = critical_edge_container(
            piece.graph, piece.local_terminals, q, k, sub_seed, cache, piece.to_parent
        )
        edges |= report.edges
        rows.append((
            piece.level, tuple(sorted(piece.component)), len(piece.terminals),
            len(report.edges),
        ))
    return FptContainerResult(
        edges=frozenset(edges), seed=seed, levels=tuple(rows), exact=hierarchy.exact,
    )


def fpt_preserver(
    g: DiGraph,
    k: int,
    seed: int,
    oracle_check: bool = False,
    cache: FptCache | None = None,
) -> PreserverResult:
    """Decremental preserver: drop the lowest edge outside the fresh container.

    Each iteration rebuilds the container for the current graph with a new
    seed from the stream and removes one non-container edge; the loop stops
    when the container covers every remaining edge.  With
    ``oracle_check`` every removal is first confirmed non-critical by the
    exhaustive oracle; a container that wrongly excluded a critical edge is
    counted and the iteration reseeds instead of removing.
    ``stats["exact"]`` is False when some iteration's hierarchy used a
    heuristic sparse cut.
    """
    require_int("k", k, 0)
    require_int("seed", seed, 0)
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
    while kept:
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
        params={"k": k, "seed": seed},
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
