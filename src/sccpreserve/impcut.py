"""Important-cut machinery: container construction, exhaustive enumeration,
and the anti-isolation checker.

The container iterates farthest minimum cuts: starting from G_0 = G, each
round adds one artificial source edge (x, head(e)) per boundary edge e of
the current farthest min cut and recomputes.  After k* = k - flow rounds the
final side contains the side of every important (X, Y)-cut of size <= k,
and its boundary has at most flow * 2^{k*} <= 2^{k-1} edges.  When the flow
already exceeds k there are no important cuts of size <= k at all and the
result carries a sentinel status instead of a cut.

The artificial edges all leave x, so they are kept as per-vertex
capacities: ``supply[v]`` counts the edges (x, v) added so far, which is
the capacity vector :meth:`FlowView.farthest` takes.  The boundary of a
round's side S counts every artificial edge into a vertex outside S as well
as the graph's edges leaving S, so each v outside S gets
supply[v] = 2 supply[v] + (edges from S into v), and a v inside S keeps
its value.  The vector holds n numbers however many edges it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .digraph import DiGraph, mask_to_set, out_masks, reach_mask, set_to_mask
from .errors import InputError, require_int
from .flowcut import Cut, FlowView, _check_terminals, _reach_inside, bind, make_cut

NO_SMALL_CUTS = "no_important_cuts"
OK = "ok"


@dataclass(frozen=True)
class ContainerResult:
    """Outcome of the container construction.

    ``status == 'ok'``: ``cut`` holds the container, ``nested_sides`` the
    chain S_0 <= S_1 <= ... whose last element is the container side.
    ``status == 'no_important_cuts'``: flow(X, Y) > k, so every guarantee is
    vacuous; call sites treat the container side as empty.
    """

    status: str
    cut: Cut | None
    flow_value: int
    k_star: int | None
    nested_sides: tuple[frozenset, ...]

    @property
    def side(self) -> frozenset:
        return self.cut.side if self.cut is not None else frozenset()

    @property
    def boundary(self) -> frozenset:
        return self.cut.boundary if self.cut is not None else frozenset()


def important_cut_container(
    g: DiGraph, X, Y, k: int, direction: str = "out"
) -> ContainerResult:
    """A single cut whose side contains every important (X, Y)-cut side.

    For ``direction='in'`` the computation runs on the transposed view
    (``bind(g, reverse=True)``): in-reachable cuts of g are exactly the
    out-reachable cuts of reverse(g), whose out-boundary heads are the
    tails of g's in-boundary, and edge ids are shared, so the boundary is
    reported against g directly.  No reversed graph is built.  A caller
    that asks many containers of one graph runs :func:`container_sides` on
    one bound view instead.
    """
    require_int("k", k, 0)
    if direction not in ("out", "in"):
        raise InputError(f"bad direction {direction!r}")
    X, Y = _check_terminals(g, X, Y)
    view = bind(g, reverse=direction == "in")
    sides, lam = container_sides(view, set_to_mask(X), set_to_mask(Y), k)
    if not sides:
        return ContainerResult(NO_SMALL_CUTS, None, lam, None, ())
    nested = tuple(mask_to_set(s) for s in sides)
    return ContainerResult(OK, make_cut(g, nested[-1], direction), lam, k - lam, nested)


def container_sides(view: FlowView, x_mask: int, y_mask: int, k: int):
    """(nested side masks S_0 <= ... <= S_{k*}, flow value) on a bound view.

    The rounds of :func:`important_cut_container`, on masks only: no cut,
    no boundary and no result record.  The list is empty when the flow
    exceeds k.  X and Y are checked by the caller.
    """
    side, lam = view.farthest(x_mask, y_mask)
    if lam > k:
        return [], lam
    sides = [side]
    supply = [0] * view.n
    for _ in range(k - lam):
        # one artificial edge per boundary edge of the current cut,
        # counting previously added artificial edges that cross it too
        counts = view.boundary_counts(side)
        for v in range(view.n):
            if not (side >> v) & 1:
                supply[v] = 2 * supply[v] + counts[v]
        side, _ = view.farthest(x_mask, y_mask, supply)
        sides.append(side)
    return sides, lam


def enumerate_important_cuts(
    g: DiGraph, X, Y, k: int, direction: str = "out"
) -> tuple[Cut, ...]:
    """All important (X, Y)-cuts with boundary size <= k, by 2^n filtering.

    This is the brute-force oracle the container is tested against; it is
    only meant for small graphs (default guard n <= 16).  Both directions
    run one loop: a side is a candidate when X reaches all of it inside it
    along the bound view's adjacency, transposed for ``direction='in'``,
    and its boundary is read against g in that direction.
    """
    if direction not in ("out", "in"):
        raise InputError(f"bad direction {direction!r}")
    X, Y = _check_terminals(g, X, Y)
    limits.guard_side_enumeration(g.n)
    require_int("k", k, 0)

    x_mask = set_to_mask(X)
    y_mask = set_to_mask(Y)
    adj = bind(g, reverse=direction == "in").nonzero
    candidates = []  # (side_mask, cut)
    for side_mask in range(1, 1 << g.n):
        if (side_mask & x_mask) != x_mask or (side_mask & y_mask):
            continue
        if _reach_inside(adj, x_mask, side_mask) != side_mask:
            continue
        cut = make_cut(g, mask_to_set(side_mask), direction)
        if cut.size() <= k:
            candidates.append((side_mask, cut))
    cuts = []
    for side_mask, cut in candidates:
        important = True
        for other_mask, other in candidates:
            if (
                other_mask != side_mask
                and (other_mask & side_mask) == side_mask
                and other.size() <= cut.size()
            ):
                important = False
                break
        if important:
            cuts.append(cut)
    cuts.sort(key=lambda c: sorted(c.side))
    return tuple(cuts)


@dataclass(frozen=True)
class AntiIsolationReport:
    valid_instance: bool
    bound_holds: bool
    r: int
    limit: int


def check_anti_isolation(
    g: DiGraph, s: int, sinks, faults, k: int
) -> AntiIsolationReport:
    """Check an anti-isolation instance: s reaches sink j in g-F_i iff i = j.

    For every valid instance the number of sinks r is at most 2^k; the
    report carries both the validity and the bound so searches for
    counterexamples can distinguish "invalid instance" from "bound broken".
    """
    require_int("k", k, 0)
    sinks = list(sinks)
    faults = [frozenset(f) for f in faults]
    if len(sinks) != len(faults):
        raise InputError("one fault set per sink required")
    g._check_vertex(s)
    for t in sinks:
        g._check_vertex(t)
    for f in faults:
        if len(f) > k:
            raise InputError(f"fault set larger than k={k}")
        for eid in f:
            g.edge(eid)
    r = len(sinks)
    valid = True
    for i, f in enumerate(faults):
        reach = reach_mask(out_masks(g, f), 1 << s)
        for j, t in enumerate(sinks):
            if bool((reach >> t) & 1) != (i == j):
                valid = False
                break
        if not valid:
            break
    limit = 1 << k
    return AntiIsolationReport(
        valid_instance=valid, bound_holds=(r <= limit), r=r, limit=limit
    )
