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
table is packed: one big integer of 2^n fixed-width lanes, lane S holding
b[S], written out once as an array of that width.  The masks with highest
vertex v are the block [2^v, 2^(v+1)), which is the lanes below 2^v plus
outdeg(v) in every lane minus the lanes c(v -> R) + c(R -> v), shifted up
by 2^v lanes: a handful of whole-integer additions, subtractions and
shifts per vertex, with no per-mask Python step.  No lane ever carries or
borrows, and the lane width is the narrowest that holds the number of
non-loop edges; :func:`_boundary_table` has both arguments.  The table
depends on the graph only, so the hierarchy build makes one per subgraph
and rescans it for each shrinking terminal set.

A scan reads only the sides that could be returned.  The smaller terminal
side holds at most floor(|U|/2) terminals and b[S] is an integer, so a side
of ratio at most phi has b[S] <= L = floor(phi * floor(|U|/2)).  The masks
with b[S] <= L are taken in ascending order, so the tie-break (smallest
mask among equal ratios) is that of a scan of every mask: all sides of the
minimum ratio pass the filter when that ratio is at most phi.  The first
scan of a table picks them from the packed bytes through lookup tables
(:func:`_masks_at_most`).  Between the hierarchy's rounds on one table, U
strictly shrinks and L never grows, so each later round filters the list
the round before it kept.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import comb, floor

from . import limits
from .digraph import DiGraph, mask_to_set, round_trip_arcs, scc, set_to_mask
from .errors import CapabilityError, InputError, require_int
from .flowcut import Cut, bind, make_cut
from .variants import ConnectivityOracle, VariantSpec, first_fault


# array typecode of each lane width in bytes, narrowest first
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


# The params of every build without certificates (FPT's containers and
# ``preservers.hierarchy_preserver``): such a build reads only phi = 1/2,
# and q, k are the smallest values that pass validation.
PHI_HALF = HierarchyParams(q=2, k=1)


@dataclass(frozen=True)
class UnbreakabilityResult:
    unbreakable: bool
    witness: Cut | None = None


def is_unbreakable(g: DiGraph, terminals, q: int, k: int) -> UnbreakabilityResult:
    """Flow-reduction unbreakability test with a min-cut witness on failure."""
    U = g.vertex_set(terminals)
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
    """Does some SCC of g - F keep |U| - 2q terminals for every |F| <= k?

    Caller certifies that the terminal set is (q, k)-unbreakable.  A hit of
    the search ``variants.first_fault`` is a fault set under which no SCC
    does; components only split as F grows, so a hit's supersets are hits.
    The oracle roots each terminal, so its state lists the components of
    g - F that hold terminals.

    Certificate: the first such component C with enough terminals, and the
    breadth-first out- and in-tree of g - F inside C from its lowest
    terminal r, cut down to the paths to and from C's terminals.  While no
    hop of them is wholly faulted, those terminals stay strongly connected
    through r, so every hit that contains F holds a whole hop.
    """
    U = g.vertex_set(terminals)
    require_int("q", q, 0)
    require_int("k", k, 0)
    target = len(U) - 2 * q
    if target <= 0:
        return True
    u_mask = set_to_mask(U)
    oracle = ConnectivityOracle(g, VariantSpec.sourcewise(U))
    view = oracle.bind(g.edge_ids())
    pairs = view.pairs

    def test(fault, room):
        out, inn = oracle.masks(view, fault)
        for root, comp in zip(oracle.roots, oracle.components(out, inn)):
            goals = comp & u_mask
            if goals.bit_count() >= target:
                break
        else:
            return True
        if not room:
            return None
        return map(pairs.__getitem__, round_trip_arcs(out, inn, root, comp, goals, goals))

    return first_fault(test, k, limits.max_fault_sets(), "giant-component search") is None


def _boundary_table(g: DiGraph) -> array:
    """b[S] = number of non-loop edges from S to V - S, for all 2^n masks S.

    Returns an array with one lane per mask, lane S = b[S], indexed as
    ints; its ``itemsize`` is the lane width w in bytes.  The lanes are
    built inside one integer T, lane S at bits [8wS, 8w(S+1)), then
    converted once.  ones[u] has a 1 in each of 2^u lanes.  Per vertex v,
    INTO_v[R] = c(v -> R) + c(R -> v) over the masks R < 2^v starts as one
    zero lane and doubles once per u < v: the copy shifted up by 2^u lanes
    holds the masks that contain u, so it adds m(v, u) + m(u, v) to every
    lane (ones[u] times it).  The block of v is then
    T + outdeg(v) * ones[v] - INTO_v, shifted up by 2^v lanes into T.

    No carry, no borrow.  Let m' be the number of non-loop edges.  b[R]
    counts edges with tail in R and outdeg(v) edges with tail v, not in R,
    so each lane of T + outdeg(v) * ones[v] is at most m'.  Each INTO lane
    counts edges between v and R, also at most m'.  And c(v -> R) <=
    outdeg(v), while c(R -> v) <= b[R], since an edge from R into v leaves
    R, so every lane of the difference is at least 0.  Every intermediate
    lane thus lies in [0, m'], and whole-integer arithmetic is lane-wise
    arithmetic as long as a lane holds m'.  Lane width: the narrowest of
    1, 2, 4 and 8 bytes with 256^w > m', so one byte up to 255 edges.  One
    code path serves every width.
    """
    n = g.n
    both = [[0] * n for _ in range(n)]  # both[v][u] = m(v, u) + m(u, v)
    outdeg = [0] * n
    for e in g.edges:
        if e.tail != e.head:
            outdeg[e.tail] += 1
            both[e.tail][e.head] += 1
            both[e.head][e.tail] += 1
    width = next(w for w in _LANE_CODES if sum(outdeg) < 1 << 8 * w)
    bits = 8 * width
    ones = [1]  # ones[u]: a 1 in each of 2^u lanes, for u < n
    for u in range(n - 1):
        ones.append(ones[u] | ones[u] << (bits << u))
    table = 0  # the lanes of the masks below 2^v
    for v in range(n):
        into = 0  # INTO_v over the masks below 2^u
        for u, c in enumerate(both[v][:v]):
            into |= (into + c * ones[u] if c else into) << (bits << u)
        table |= (table + outdeg[v] * ones[v] - into) << (bits << v)
    lanes = array(_LANE_CODES[width], table.to_bytes(width << n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _masks_at_most(table: array, bound: int) -> list[int]:
    """The masks S with b[S] <= bound, ascending, picked at C speed.

    Plane i holds byte i (by significance) of every lane, and digit i is
    byte i of the bound.  Let F_i flag the lanes whose bytes 0 .. i, read
    as a number, are at most digits 0 .. i.  Then F_0 = [byte 0 <= digit 0]
    and F_i = [byte i < digit i] or ([byte i == digit i] and F_(i-1)), and
    the last F flags b[S] <= bound.  Each bracket is one ``translate`` of a
    plane through a 256-byte lookup table into a 0/1 byte per mask, built
    in the call; the flags combine as integers.  One-byte lanes need F_0
    only.  ``compress`` then keeps the flagged masks.  A bound past what a
    lane can hold is lowered to that, and a negative one keeps no mask.
    """
    if bound < 0:
        return []
    size, width = len(table), table.itemsize
    digits = min(bound, (1 << 8 * width) - 1).to_bytes(width, "little")
    raw = memoryview(table).cast("B")
    little = sys.byteorder == "little"
    planes = [raw[i if little else width - 1 - i::width].tobytes() for i in range(width)]
    low = digits[0]
    flags = planes[0].translate(b"\1" * (low + 1) + bytes(255 - low))
    for plane, digit in zip(planes[1:], digits[1:]):
        below = plane.translate(b"\1" * digit + bytes(256 - digit))
        same = plane.translate(bytes(digit) + b"\1" + bytes(255 - digit))
        flags = (
            int.from_bytes(below, "little")
            | int.from_bytes(same, "little") & int.from_bytes(flags, "little")
        ).to_bytes(size, "little")
    return list(compress(range(size), flags))


def _sparsest_side(
    table: array, u_mask: int, phi: Fraction, masks: list[int] | None = None
) -> tuple[int | None, list[int]]:
    """Smallest side mask of minimum ratio b[S] / min-terminal-side, if <= phi.

    Returns that mask (None when no side reaches phi) and the masks that
    were scanned.  Scans the masks in ascending order and keeps a side only
    on a strictly smaller ratio, so ties go to the smallest mask.  Masks
    that leave every terminal on one side (0 and the full mask among them)
    are skipped.

    Bound lemma: only masks with b[S] <= L = floor(phi * floor(|U| / 2)) are
    scanned.  The smaller terminal side of any S has at most floor(|U| / 2)
    terminals, so a side with b[S] / small <= phi has b[S] <= phi *
    floor(|U| / 2), and b[S] is an integer.  A mask left out therefore has
    a ratio above phi and could not be returned.  When the minimum ratio is
    at most phi, every mask that attains it passes the filter, and the
    filter keeps ascending order, so the scan meets the smallest of them
    first, as a scan of all 2^n masks would.  Otherwise every scanned ratio
    is above phi too, and the answer is None either way.

    Without ``masks`` the filter reads the whole packed table through
    :func:`_masks_at_most`.  ``masks``, when given, is the list an earlier
    call returned on the same table with the same phi and a terminal set at
    least as large: L never grows as |U| shrinks, so every mask with
    b[S] <= L is still in it, and filtering it again gives the list a
    filter of the whole table would.
    """
    total = u_mask.bit_count()
    bound = floor(phi * (total // 2))
    if masks is None:
        masks = _masks_at_most(table, bound)
    else:
        masks = [mask for mask in masks if table[mask] <= bound]
    best_boundary, best_small, best_mask = 1, 0, 0  # ratio 1/0: none yet
    for mask, boundary in zip(masks, map(table.__getitem__, masks)):
        inside = (mask & u_mask).bit_count()
        if inside == 0 or inside == total:
            continue
        small = inside if 2 * inside <= total else total - inside
        if boundary * best_small < best_boundary * small:
            best_boundary, best_small, best_mask = boundary, small, mask
    if best_small == 0 or Fraction(best_boundary, best_small) > phi:
        return None, masks
    return best_mask, masks


def sparsest_cut_wrt(g: DiGraph, terminals, phi) -> Cut | None:
    """Exhaustive search for a cut with ratio |boundary| / min-side <= phi.

    Returns the minimum-ratio cut (smallest side bitmask among ties) when its
    ratio is at most phi, otherwise None, meaning the terminal set is
    phi-expanding.  The boundary counts edges leaving the side.

    Every side's boundary comes from one packed table of 2^n counts built
    by the subset recurrence b[S] = b[R] + outdeg(v) - c(v -> R) - c(R -> v),
    with v the highest vertex of S and R = S - {v}: of the edges leaving R,
    those into v no longer leave S, and of the non-loop edges leaving v,
    those into R stay inside S (see :func:`_boundary_table`).  Raises
    CapabilityError past ``limits.exact_cut_limit()`` vertices before the
    table is built.
    """
    U = g.vertex_set(terminals)
    if len(U) < 2:
        raise InputError("need at least two terminals")
    phi = _fraction(phi)
    cap = limits.exact_cut_limit()
    if g.n > cap:
        raise CapabilityError(
            f"exact sparse-cut search infeasible at n={g.n} (limit {cap})"
        )
    mask, _ = _sparsest_side(_boundary_table(g), set_to_mask(U), phi)
    return None if mask is None else make_cut(g, mask_to_set(mask))


def _heuristic_sparse_cut(g: DiGraph, terminals, phi: Fraction, rng) -> Cut | None:
    """Randomized fallback past the exact enumeration limit.

    Seeds candidate sides with min cuts between random terminal pairs, then
    hill-climbs single-vertex moves to lower the ratio.  A side's boundary
    is counted on the bound view, which counts the non-loop edges leaving it
    per head.
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
        return Fraction(sum(view.boundary_counts(mask)), small)

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
    sub: DiGraph, params: HierarchyParams, cut_cap: int, state: dict
) -> set:
    """Shrink U = V(sub) along sparse cuts until it is phi-expanding.

    Up to ``cut_cap`` vertices, one boundary table of sub serves every round:
    only the terminal set changes between rounds, and the scan is the one
    :func:`sparsest_cut_wrt` runs, so each round finds the same cut.  Each
    round passes the masks it scanned to the next: the terminal set strictly
    shrinks (or the loop raises), so the next round's bound is no larger.
    Past ``cut_cap`` the heuristic cuts draw from ``state["rng"]``, created
    at the build's first heuristic cut.  Of ``params`` only ``phi`` is read.
    """
    exact = sub.n <= cut_cap
    table = _boundary_table(sub) if exact else None
    masks = None
    terminals = set(range(sub.n))
    while len(terminals) >= 2:
        if exact:
            mask, masks = _sparsest_side(
                table, set_to_mask(terminals), params.phi, masks
            )
            cut = None if mask is None else make_cut(sub, mask_to_set(mask))
        else:
            state["exact"] = False
            if "rng" not in state:
                state["rng"] = random.Random(0)
            cut = _heuristic_sparse_cut(sub, terminals, params.phi, state["rng"])
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
    heuristic sparse cuts, drawn from one rng seeded with 0 (created at
    the first such cut) so that a build is deterministic, and clear
    ``exact``.  Without certificates a build reads of ``params`` only
    ``phi``; the rest is carried into the result.

    The levels come from a recursion on strongly connected graphs: g is
    split into SCCs once, and each node's rest graph (its vertices minus its
    top level) is split again for its children.  Every graph in it, and
    every piece graph of the walk over the prefixes V_1 .. V_i (one
    ``induced`` and one ``scc`` each), is induced from its parent's graph
    with the two vertex maps composed, and equals ``g.induced`` of its
    vertices: the parent graph keeps every edge of g between its vertices
    with its id and color, and its ``to_parent`` is ascending, so the
    vertices rank the same in both.  A graph induced on all of its parent's
    vertices is the parent itself, so a strongly connected g is not copied
    for its split, its last prefix or that prefix's one SCC, and the last
    prefix, all of V, reuses the split's ``scc(g)``.  With
    ``verify_certificates`` each piece's terminals go through the
    unbreakability oracle (desk-scale only).
    """
    if not isinstance(params, HierarchyParams):
        raise InputError(f"params must be a HierarchyParams, got {params!r}")
    state = {"exact": True}
    ctx = (params, limits.exact_cut_limit(), state)
    top = scc(g)
    levels = tuple(frozenset(s) for s in _split(g, tuple(range(g.n)), ctx, top))
    pieces = []
    prefix: set = set()
    for i, level in enumerate(levels, start=1):
        prefix |= level
        sub, p_to_parent = g.induced(prefix)
        for comp in (top if sub is g else scc(sub)).components:
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


def _split(sub: DiGraph, to_parent: tuple, ctx: tuple, parts=None) -> list[set]:
    """The levels of sub, deepest first, numbered by ``to_parent``.

    ``ctx`` holds the arguments after the graph of ``_expanding_terminals``;
    ``parts``, when given, is ``scc(sub)``.
    """
    stacks = []
    for comp in (parts or scc(sub)).components:
        piece, local = sub.induced(comp)
        piece_to_parent = tuple(to_parent[v] for v in local)
        local_top = _expanding_terminals(piece, *ctx)
        top = {piece_to_parent[v] for v in local_top}
        if len(local_top) == piece.n:
            stacks.append([top])
            continue
        rest, r_local = piece.induced(set(range(piece.n)) - local_top)
        below = _split(rest, tuple(piece_to_parent[v] for v in r_local), ctx)
        stacks.append(below + [top])
    return _merge_bottom(stacks)


def _merge_bottom(stacks: list[list[set]]) -> list[set]:
    height = max((len(s) for s in stacks), default=0)
    merged: list[set] = [set() for _ in range(height)]
    for stack in stacks:
        for i, level in enumerate(stack):
            merged[i] |= level
    return merged
