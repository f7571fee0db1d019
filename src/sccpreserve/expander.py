"""Unbreakability oracle, sparse-cut search, and the directed expander hierarchy.

A terminal set U is (q, k)-unbreakable if no cut with at most k boundary
edges (in either direction) leaves more than q terminals on both sides.
The oracle reduces this to flows: U is breakable iff some ordered pair of
disjoint (q+1)-subsets A, B of U has flow(A, B) <= k; the failing pair's
min cut is returned as a witness.

The hierarchy is built top-down: keep shrinking the terminal set U along
sparse cuts (ratio boundary / smaller-terminal-side <= phi) until U is
phi-expanding, emit U as the top level, then recurse on the strongly
connected components of the rest.  phi-expanding terminal sets are
(ceil(k/phi), k)-unbreakable, every SCC below the top level has at most
half the vertices, and the level count is at most ceil(log2 n) + 1.

The exact sparse-cut search scores every side S from one boundary table
per subgraph: b[S] counts the non-loop edges leaving S.  For v the highest
vertex of S and R = S - {v}, the edges leaving S are those leaving R
except the ones into v, plus the ones leaving v except the ones into R:

    b[S] = b[R] + outdeg(v) - c(v -> R) - c(R -> v)

(self-loops not in outdeg, parallel edges counted with multiplicity).  The
masks with highest vertex v are the block [2^v, 2^(v+1)), so the table grows
one block per vertex.  The block's increments
w_v[R] = outdeg(v) - c(v -> R) - c(R -> v) grow the same way, one doubling
per u < v that subtracts m(v, u) + m(u, v).  The table depends on the graph
only, so the hierarchy build makes one per subgraph and rescans it for each
shrinking terminal set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add

from . import limits
from .digraph import DiGraph, mask_to_set, scc, set_to_mask
from .errors import CapabilityError, InputError, require_int
from .flowcut import Cut, bind, make_cut
from .variants import ConnectivityOracle, VariantSpec, fault_sets_colex


def _fraction(phi) -> Fraction:
    """phi as a Fraction (one already is returns as is), else InputError."""
    if isinstance(phi, Fraction):
        return phi
    try:
        return Fraction(phi)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"phi must be a fraction, got {phi!r}") from None


@dataclass(frozen=True)
class HierarchyParams:
    q: int
    k: int
    phi: Fraction = Fraction(1, 2)

    def __post_init__(self):
        require_int("q", self.q, 1)
        require_int("k", self.k, 1)
        phi = _fraction(self.phi)
        object.__setattr__(self, "phi", phi)
        if not (0 < phi <= 1):
            raise InputError("phi must be in (0, 1]")
        if self.q * phi < self.k:
            raise InputError(f"need q >= k/phi (q={self.q}, k={self.k}, phi={phi})")


@dataclass(frozen=True)
class UnbreakabilityResult:
    unbreakable: bool
    witness: Cut | None = None


def is_unbreakable(g: DiGraph, terminals, q: int, k: int) -> UnbreakabilityResult:
    """Flow-reduction unbreakability test with a min-cut witness on failure."""
    U = frozenset(terminals)
    for v in U:
        g._check_vertex(v)
    require_int("q", q, 0)
    require_int("k", k, 0)
    if len(U) <= 2 * q + 1:
        return UnbreakabilityResult(True)  # both sides can never exceed q
    cap = limits.max_subset_pairs()
    su = sorted(U)
    pairs = comb(len(U), q + 1) * comb(len(U) - q - 1, q + 1)
    if pairs > cap:
        raise CapabilityError(
            f"unbreakability check needs {pairs} subset pairs (|U|={len(U)}, "
            f"q={q}), limit is {cap}"
        )
    view = bind(g)
    bits = [1 << v for v in su]
    for a_bits in combinations(bits, q + 1):
        a_mask = sum(a_bits)
        rest = [b for b in bits if not b & a_mask]
        for b_bits in combinations(rest, q + 1):
            b_mask = sum(b_bits)
            if view.value(a_mask, b_mask, k + 1) <= k:
                side = mask_to_set(view.farthest(a_mask, b_mask)[0])
                return UnbreakabilityResult(False, make_cut(g, side, "out"))
    return UnbreakabilityResult(True)


def giant_component_check(g: DiGraph, terminals, q: int, k: int) -> bool:
    """Exhaustive fault sweep: every <=k-fault graph keeps a giant component.

    Caller certifies that the terminal set is (q, k)-unbreakable; this
    confirms that some SCC of g-F retains at least |U| - 2q terminals for
    every fault set F of size at most k.  The state of g's all-pairs oracle
    view under F roots every vertex, so it lists every component of g-F.
    """
    U = frozenset(terminals)
    for v in U:
        g._check_vertex(v)
    require_int("q", q, 0)
    require_int("k", k, 0)
    target = len(U) - 2 * q
    if target <= 0:
        return True
    limits.guard_fault_sets(g.m, k)
    u_mask = set_to_mask(U)
    oracle = ConnectivityOracle(g, VariantSpec.all_pairs())
    view = oracle.bind(g.edge_ids())
    for fault in fault_sets_colex(g.edge_ids(), k):
        if not any(
            (comp & u_mask).bit_count() >= target for comp in oracle.state(view, fault)
        ):
            return False
    return True


def _boundary_table(g: DiGraph) -> list[int]:
    """b[S] = number of non-loop edges from S to V - S, for all 2^n masks S.

    Built by the recurrence in the module docstring, one block of masks per
    highest vertex v: b[2^v + R] = b[R] + w_v[R] for R < 2^v, where
    w_v[R] = outdeg(v) - sum over u in R of m(v, u) + m(u, v).  Doubling w
    for u = 0 .. v-1 appends the masks that hold u, each one with
    m(v, u) + m(u, v) subtracted.
    """
    n = g.n
    both = [[0] * n for _ in range(n)]  # both[v][u] = m(v, u) + m(u, v)
    outdeg = [0] * n
    for e in g.edges:
        if e.tail != e.head:
            outdeg[e.tail] += 1
            both[e.tail][e.head] += 1
            both[e.head][e.tail] += 1
    table = [0]
    for v in range(n):
        w = [outdeg[v]]
        for u in range(v):
            c = both[v][u]
            w += list(map((-c).__add__, w)) if c else w
        table += list(map(add, table, w))
    return table


def _sparsest_side(table: list[int], u_mask: int, phi: Fraction) -> int | None:
    """Smallest side mask of minimum ratio b[S] / min-terminal-side, if <= phi.

    Scans the masks in ascending order and keeps a side only on a strictly
    smaller ratio, so ties go to the smallest mask.  Masks that leave every
    terminal on one side (0 and the full mask among them) are skipped.
    """
    total = u_mask.bit_count()
    best_boundary, best_small, best_mask = 1, 0, 0  # ratio 1/0: none yet
    for mask, boundary in enumerate(table):
        inside = (mask & u_mask).bit_count()
        if inside == 0 or inside == total:
            continue
        small = inside if 2 * inside <= total else total - inside
        if boundary * best_small < best_boundary * small:
            best_boundary, best_small, best_mask = boundary, small, mask
    if best_small == 0 or Fraction(best_boundary, best_small) > phi:
        return None
    return best_mask


def sparsest_cut_wrt(g: DiGraph, terminals, phi) -> Cut | None:
    """Exhaustive search for a cut with ratio |boundary| / min-side <= phi.

    Returns the minimum-ratio cut (smallest side bitmask among ties) when its
    ratio is at most phi, otherwise None, meaning the terminal set is
    phi-expanding.  The boundary counts edges leaving the side.

    Every side's boundary comes from one table of 2^n counts built by the
    subset recurrence b[S] = b[R] + outdeg(v) - c(v -> R) - c(R -> v), with
    v the highest vertex of S and R = S - {v}: of the edges leaving R, those
    into v no longer leave S, and of the non-loop edges leaving v, those
    into R stay inside S.  Raises CapabilityError past
    ``limits.exact_cut_limit()`` vertices before the table is built.
    """
    U = frozenset(terminals)
    if len(U) < 2:
        raise InputError("need at least two terminals")
    for v in U:
        g._check_vertex(v)
    phi = _fraction(phi)
    cap = limits.exact_cut_limit()
    if g.n > cap:
        raise CapabilityError(
            f"exact sparse-cut search infeasible at n={g.n} (limit {cap})"
        )
    mask = _sparsest_side(_boundary_table(g), set_to_mask(U), phi)
    return None if mask is None else make_cut(g, mask_to_set(mask))


def _heuristic_sparse_cut(g: DiGraph, terminals, phi: Fraction, rng) -> Cut | None:
    """Randomized fallback past the exact enumeration limit.

    Seeds candidate sides with min cuts between random terminal pairs, then
    hill-climbs single-vertex moves to lower the ratio.  A side's boundary
    is counted on the bound view, one head per non-loop edge leaving it.
    Finding nothing is not a certificate of expansion; hierarchies built
    this way carry unverified certificates.
    """
    U = sorted(terminals)
    u_mask = set_to_mask(U)
    full = (1 << g.n) - 1
    view = bind(g)

    def ratio_of(mask):
        """|boundary| / smaller terminal side, or None if U is not separated."""
        inside = (mask & u_mask).bit_count()
        small = min(inside, len(U) - inside)
        if small == 0:
            return None
        return Fraction(len(view.boundary_heads(mask)), small)

    candidates = []
    for _ in range(min(20, len(U) * (len(U) - 1))):
        a, b = rng.sample(U, 2)
        candidates.append(view.farthest(1 << a, 1 << b)[0])
    for _ in range(10):
        size = rng.randrange(1, g.n)
        candidates.append(set_to_mask(rng.sample(range(g.n), size)))
    best_mask, best_ratio = None, None
    for mask in candidates:
        for _ in range(2 * g.n):
            cur = ratio_of(mask)
            improved = False
            for v in range(g.n):
                flipped = mask ^ (1 << v)
                if flipped == 0 or flipped == full:
                    continue
                r = ratio_of(flipped)
                if r is not None and (cur is None or r < cur):
                    mask, cur = flipped, r
                    improved = True
            if not improved:
                break
        if cur is not None and (best_ratio is None or cur < best_ratio):
            best_mask, best_ratio = mask, cur
    if best_ratio is not None and best_ratio <= phi:
        return make_cut(g, mask_to_set(best_mask))
    return None


@dataclass(frozen=True)
class HierarchyPiece:
    """One level paired with one SCC of the graph induced by its prefix.

    The last four fields are set only on a piece with terminals.
    """

    level: int  # 1-based, level 1 is the deepest
    component: frozenset
    terminals: frozenset  # the component's members at this level; may be empty
    graph: DiGraph | None = None  # with to_parent: g.induced(component)
    to_parent: tuple[int, ...] = ()
    local_terminals: frozenset = frozenset()  # terminals in graph's numbering
    unbreakable: bool | None = None  # None = not verified


@dataclass(frozen=True)
class ExpanderHierarchy:
    levels: tuple[frozenset, ...]  # V_1 .. V_ell, top level last
    pieces: tuple[HierarchyPiece, ...]  # by level, then in ``scc`` order
    params: HierarchyParams
    exact: bool  # every sparse-cut search ran exhaustively

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def certificates(self) -> tuple[HierarchyPiece, ...]:
        """The pieces that hold terminals."""
        return tuple(p for p in self.pieces if p.terminals)


def _expanding_terminals(
    sub: DiGraph, params: HierarchyParams, cut_cap: int, rng, state
) -> set:
    """Shrink U = V(sub) along sparse cuts until it is phi-expanding.

    Up to ``cut_cap`` vertices, one boundary table of sub serves every round:
    only the terminal set changes between rounds, and the scan is the one
    :func:`sparsest_cut_wrt` runs, so each round finds the same cut.
    """
    exact = sub.n <= cut_cap
    table = _boundary_table(sub) if exact else None
    terminals = set(range(sub.n))
    while len(terminals) >= 2:
        if exact:
            mask = _sparsest_side(table, set_to_mask(terminals), params.phi)
            cut = None if mask is None else make_cut(sub, mask_to_set(mask))
        else:
            state["exact"] = False
            cut = _heuristic_sparse_cut(sub, terminals, params.phi, rng)
        if cut is None:
            break
        side = cut.side
        exits = {sub.edge(eid).tail for eid in cut.boundary}
        before = len(terminals)
        if len(side) <= sub.n / 2:
            terminals = (terminals - side) | exits
        else:
            terminals = (terminals - (set(range(sub.n)) - side)) | exits
        if len(terminals) >= before:
            raise InputError(
                f"phi={params.phi} too large: a sparse cut did not shrink the "
                "terminal set"
            )
    return terminals


def build_hierarchy(
    g: DiGraph,
    params: HierarchyParams,
    verify_certificates: bool = True,
) -> ExpanderHierarchy:
    """Top-down directed expander hierarchy (levels partition V(g)).

    Each level's terminal set is phi-expanding inside every SCC of the
    prefix-induced subgraph, hence (q, k)-unbreakable there.  Subgraphs
    past ``limits.exact_cut_limit()`` vertices, read once per build, get
    heuristic sparse cuts, drawn from one rng seeded with 0 so that a
    build is deterministic, and clear ``exact``.

    The pieces come from one walk, one ``induced`` and one ``scc`` per
    prefix V_1 .. V_i.  A piece graph is induced from the prefix graph, with
    the two vertex maps composed, and equals ``g.induced(component)``: the
    prefix graph keeps every edge of g between prefix vertices with its id
    and color, and its ``to_parent`` is ascending, so the component's
    vertices rank the same in both.  With ``verify_certificates`` each
    piece's terminals go through the unbreakability oracle (desk-scale
    only).
    """
    cut_cap = limits.exact_cut_limit()
    rng = random.Random(0)
    state = {"exact": True}

    def build(vertex_set: frozenset) -> list[set]:
        if not vertex_set:
            return []
        sub, to_parent = g.induced(vertex_set)
        part = scc(sub)
        if len(part.components) > 1:
            stacks = [
                build(frozenset(to_parent[v] for v in comp))
                for comp in part.components
            ]
            return _merge_bottom(stacks)
        local_top = _expanding_terminals(sub, params, cut_cap, rng, state)
        top = {to_parent[v] for v in local_top}
        rest = frozenset(vertex_set) - top
        if not rest:
            return [top]
        rsub, r_to_parent = g.induced(rest)
        stacks = [
            build(frozenset(r_to_parent[v] for v in comp))
            for comp in scc(rsub).components
        ]
        return _merge_bottom(stacks) + [top]

    level_sets = build(frozenset(range(g.n)))
    levels = tuple(frozenset(s) for s in level_sets)
    pieces = []
    prefix: set = set()
    for i, level in enumerate(levels, start=1):
        prefix |= level
        sub, p_to_parent = g.induced(prefix)
        for comp in scc(sub).components:
            component = frozenset(p_to_parent[v] for v in comp)
            terminals = component & level
            if not terminals:
                pieces.append(HierarchyPiece(i, component, terminals))
                continue
            piece, local_to_sub = sub.induced(comp)
            to_parent = tuple(p_to_parent[v] for v in local_to_sub)
            local = frozenset(j for j, v in enumerate(to_parent) if v in level)
            flag = None
            if verify_certificates:
                flag = is_unbreakable(piece, local, params.q, params.k).unbreakable
            pieces.append(
                HierarchyPiece(i, component, terminals, piece, to_parent, local, flag)
            )
    return ExpanderHierarchy(
        levels=levels, pieces=tuple(pieces), params=params, exact=state["exact"]
    )


def _merge_bottom(stacks: list[list[set]]) -> list[set]:
    height = max((len(s) for s in stacks), default=0)
    merged: list[set] = [set() for _ in range(height)]
    for stack in stacks:
        for i, level in enumerate(stack):
            merged[i] |= level
    return merged
