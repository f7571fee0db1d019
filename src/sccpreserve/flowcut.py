"""Unit-capacity flows, minimum cuts, and farthest minimum cuts.

The cut stack asks many flow questions of one graph: the unbreakability
oracle asks one per pair of terminal subsets, kconn one per vertex pair,
the important-cut container one per round.  So a graph is bound once, with
:func:`bind`, into a :class:`FlowView`: the pair-multiplicity matrix (the
capacity of u -> v is the number of u -> v edges, self-loops skipped since
they never cross a cut) and, per vertex, the mask of heads with nonzero
capacity.  ``bind(g, reverse=True)`` binds the transposed matrix, which is
the matrix of ``g.reverse()``, without building that graph.  A query copies
the matrix and the masks and augments along shortest residual paths, found
by a BFS over frontier masks; no super source or sink is built, a path
starts at any X vertex and ends at the first Y vertex it reaches.  The view
answers two questions:

* :meth:`FlowView.value`: the number of edge-disjoint (X, Y)-paths,
  optionally clamped at a cap;
* :meth:`FlowView.farthest`: the farthest minimum (X, Y)-cut side, also
  with extra source edges given as a per-vertex capacity vector.

The farthest minimum cut side is S = V minus the vertices that can still
reach Y in the final residual graph.  That side is the unique
inclusion-maximal minimum-cut side, it agrees with the classical farthest
min-cut whenever every vertex is reachable from X, and it is the form the
flow-increment law (adding a source edge to any v outside S raises the flow
by exactly one) needs even on graphs with vertices unreachable from X.

:func:`max_flow` keeps an arc-list residual network (:class:`_Residual`):
its witness paths are an output, and which paths it finds depends on the
order the search scans arcs in, ascending edge id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DiGraph, mask_to_set, reach_mask, set_to_mask
from .errors import InputError, require_int


@dataclass(frozen=True)
class Cut:
    """One side of a vertex bipartition plus the crossing edge ids.

    ``direction='out'`` stores the edges leaving ``side``; ``'in'`` stores the
    edges entering it.  The boundary is always recomputable from the graph
    and the side.
    """

    side: frozenset
    direction: str
    boundary: frozenset

    def size(self) -> int:
        return len(self.boundary)


def boundary_edges(g: DiGraph, side: frozenset, direction: str = "out") -> frozenset:
    if direction == "out":
        return frozenset(
            e.id for e in g.edges if e.tail in side and e.head not in side
        )
    if direction == "in":
        return frozenset(
            e.id for e in g.edges if e.head in side and e.tail not in side
        )
    raise InputError(f"bad cut direction: {direction!r}")


def make_cut(g: DiGraph, side, direction: str = "out") -> Cut:
    side = frozenset(side)
    return Cut(side=side, direction=direction, boundary=boundary_edges(g, side, direction))


@dataclass(frozen=True)
class FlowValue:
    value: int
    witness_paths: tuple[tuple[int, ...], ...] | None = None
    min_cut: Cut | None = None


class FlowView:
    """Unit-capacity flows on one bound graph (see the module docstring).

    ``cap`` is the n x n pair-multiplicity matrix, flattened row-major;
    ``nonzero[u]`` is the mask of v with ``cap[u * n + v] > 0``; ``into[v]``
    is the column sum, the capacity into v.

    Why the answers equal those of an arc-list residual network with a
    super source and sink, whatever paths either one augments along:

    * The flow value is unique: every maximum flow has the same value, and
      a clamped value is min(maximum, cap).  Parallel edges add up in the
      matrix, and netting a pair's flow in both directions keeps a flow's
      value.
    * The farthest side is the same for every maximum flow f.  Let T be the
      vertices that reach Y in the residual of f.  No residual arc enters T
      from outside, so V - T is a minimum cut side; every minimum cut side
      S has its out-arcs saturated and its in-arcs empty, so no residual
      arc leaves S and S <= V - T.  A residual arc u -> v of the matrix
      exists exactly when some u -> v edge has capacity left or some
      v -> u edge carries flow, as in the arc-list network.
    * A path through the super source can start after it.  Source arcs
      into X never saturate, so a path that starts at any X vertex is a
      path from the super source.  Once the flow is maximal the super
      source cannot reach Y, so no vertex reaches Y through it, and the set
      of vertices that reach Y is computed without it.
    * The reversed graph's matrix is the transpose of g's, with the same
      self-loops skipped, so a reversed view is a view of ``g.reverse()``.
    """

    __slots__ = ("n", "full", "cap", "nonzero", "into")

    def __init__(self, g: DiGraph, reverse: bool = False):
        n = g.n
        cap = [0] * (n * n)
        nonzero = [0] * n
        into = [0] * n
        for e in g.edges:
            u, v = (e.head, e.tail) if reverse else (e.tail, e.head)
            if u != v:
                cap[u * n + v] += 1
                nonzero[u] |= 1 << v
                into[v] += 1
        self.n = n
        self.full = (1 << n) - 1
        self.cap = cap
        self.nonzero = tuple(nonzero)
        self.into = tuple(into)

    def minus_edge(self, tail: int, head: int) -> "FlowView":
        """The view of the bound graph less one tail -> head edge.

        The edge counts once in ``cap[tail * n + head]`` and once in
        ``into[head]``, and its pair leaves ``nonzero[tail]`` when it was the
        pair's last edge; nothing else of a fresh bind depends on it.  A
        self-loop is skipped by a bind, so it returns this view.  The bound
        graph must hold such an edge.  A view is never changed in place.
        """
        if tail == head:
            return self
        n = self.n
        view = FlowView.__new__(FlowView)
        view.n, view.full = n, self.full
        view.cap = cap = self.cap[:]
        i = tail * n + head
        cap[i] -= 1
        view.nonzero = self.nonzero
        if not cap[i]:
            nonzero = list(self.nonzero)
            nonzero[tail] &= ~(1 << head)
            view.nonzero = tuple(nonzero)
        into = list(self.into)
        into[head] -= 1
        view.into = tuple(into)
        return view

    def _flow(self, x_mask: int, y_mask: int, stop=None, supply=None):
        """Augment until no residual path is left or ``stop`` is reached.

        ``supply[v]`` is the capacity of extra source edges into v, used up
        in place.  A BFS runs from every start vertex at once (X, and
        vertices with supply left) and keeps each level's frontier mask; it
        stops at the first frontier vertex u with a residual arc into Y.
        The path is then walked back from u level by level, each vertex
        taking as parent the first vertex of the level below with a residual
        arc to it.  Returns the value and the residual nonzero masks.

        The value never exceeds the capacity of the edges into Y plus its
        supply.  An uncapped run is capped there: at that value no
        augmenting path is left, so the last, failing search is skipped.
        """
        n = self.n
        res = self.cap[:]
        nonzero = list(self.nonzero)
        starts = x_mask
        if supply is not None:
            for v, units in enumerate(supply):
                if units:
                    starts |= 1 << v
        if stop is None:
            stop = 0
            bits = y_mask
            while bits:
                b = bits & -bits
                bits ^= b
                y = b.bit_length() - 1
                stop += self.into[y] + (supply[y] if supply else 0)
        value = 0
        while value < stop:
            vbit = starts & y_mask  # only a head can be a start in Y
            if vbit:
                vbit &= -vbit
                v = vbit.bit_length() - 1
            else:
                levels = [starts]
                reached = frontier = starts
                while frontier:
                    nxt = 0
                    while frontier:
                        ubit = frontier & -frontier
                        frontier ^= ubit
                        u = ubit.bit_length() - 1
                        vbit = nonzero[u] & y_mask
                        if vbit:
                            break
                        nxt |= nonzero[u]
                    if vbit:
                        break
                    frontier = nxt & ~reached
                    reached |= frontier
                    levels.append(frontier)
                if not vbit:
                    break
                vbit &= -vbit
                v = vbit.bit_length() - 1
                depth = len(levels) - 1  # the level of u
                while True:
                    i = u * n + v
                    res[i] -= 1
                    if not res[i]:
                        nonzero[u] &= ~vbit
                    res[v * n + u] += 1
                    nonzero[v] |= ubit
                    v, vbit = u, ubit
                    if not depth:
                        break
                    depth -= 1
                    bits = levels[depth]
                    while True:
                        ubit = bits & -bits
                        u = ubit.bit_length() - 1
                        if nonzero[u] & vbit:
                            break
                        bits ^= ubit
            if not x_mask & vbit:
                supply[v] -= 1
                if not supply[v]:
                    starts &= ~vbit
            value += 1
        return value, nonzero

    def value(self, x_mask: int, y_mask: int, cap: int | None = None) -> int:
        """Maximum number of edge-disjoint (X, Y)-paths, clamped at ``cap``.

        X and Y are vertex masks, nonempty and disjoint; the caller checks
        them, as :func:`flow_value` does.
        """
        return self._flow(x_mask, y_mask, cap)[0]

    def farthest(self, x_mask: int, y_mask: int, supply=None) -> tuple[int, int]:
        """(side mask, flow value) of the farthest minimum (X, Y)-cut.

        ``supply[v]``, when given, is the capacity of extra source edges into
        v; the caller's list is left as it is.  The side is V minus the
        vertices that reach Y in the final residual graph.
        """
        value, nonzero = self._flow(x_mask, y_mask, None, supply and supply[:])
        reach = y_mask
        side = self.full & ~reach
        grew = True
        while grew:
            grew = False
            bits = side
            while bits:
                b = bits & -bits
                bits ^= b
                if nonzero[b.bit_length() - 1] & reach:
                    reach |= b
                    side ^= b
                    grew = True
        return side, value

    def boundary_counts(self, side: int) -> list[int]:
        """Per vertex v, the number of the bound graph's edges from ``side`` into v."""
        n = self.n
        cap = self.cap
        counts = [0] * n
        outside = self.full & ~side
        bits = side
        while bits:
            b = bits & -bits
            bits ^= b
            u = b.bit_length() - 1
            row = u * n
            crossing = self.nonzero[u] & outside
            while crossing:
                c = crossing & -crossing
                crossing ^= c
                v = c.bit_length() - 1
                counts[v] += cap[row + v]
        return counts

    def symmetric(self, s: int, t: int, k: int) -> int:
        """min(flow(s, t), flow(t, s), k), computed with capped flows."""
        if s == t:
            raise InputError("s and t must differ")
        require_int("k", k, 0)
        if k == 0:
            return 0
        for v in (s, t):
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} out of range [0, {self.n})")
        forward = self._flow(1 << s, 1 << t, k)[0]
        if forward == 0:
            return 0
        return self._flow(1 << t, 1 << s, forward)[0]

    def symmetric_pairs(self, k: int) -> list[tuple[int, int, int]]:
        """(u, v, symmetric(u, v, k)) for every pair u < v, in row-major order."""
        n = self.n
        return [(u, v, self.symmetric(u, v, k)) for u in range(n) for v in range(u + 1, n)]


def bind(g: DiGraph, reverse: bool = False) -> FlowView:
    """The :class:`FlowView` of g, or of its reverse with ``reverse=True``."""
    return FlowView(g, reverse)


class _Residual:
    """Arc-list residual network over g's vertices plus super source/sink."""

    __slots__ = ("n", "src", "snk", "to", "cap", "adj", "edge_id", "value")

    def __init__(self, g: DiGraph, X, Y):
        n = g.n
        self.n = n + 2
        self.src = n
        self.snk = n + 1
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(self.n)]
        self.edge_id = []
        big = g.m + 1
        for e in g.edges:  # ascending edge-id order fixes BFS tie-breaking
            self._arc(e.tail, e.head, 1, e.id)
        for x in X:
            self._arc(self.src, x, big, None)
        for y in Y:
            self._arc(y, self.snk, big, None)
        self.value = 0

    def _arc(self, u, v, capacity, eid):
        i = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, 0))
        self.edge_id.extend((eid, eid))
        self.adj[u].append(i)
        self.adj[v].append(i + 1)

    def augment_once(self) -> bool:
        to, cap, adj = self.to, self.cap, self.adj
        parent_arc = [-1] * self.n
        parent_arc[self.src] = -2
        queue = [self.src]
        qi = 0
        found = False
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for a in adj[u]:
                if cap[a] > 0:
                    v = to[a]
                    if parent_arc[v] == -1:
                        parent_arc[v] = a
                        if v == self.snk:
                            found = True
                            break
                        queue.append(v)
            if found:
                break
        if not found:
            return False
        v = self.snk
        while v != self.src:
            a = parent_arc[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]
        self.value += 1
        return True

    def run(self, cap_limit: int | None = None) -> int:
        while cap_limit is None or self.value < cap_limit:
            if not self.augment_once():
                break
        return self.value

    def source_reach(self) -> set:
        seen = {self.src}
        stack = [self.src]
        to, cap = self.to, self.cap
        while stack:
            u = stack.pop()
            for a in self.adj[u]:
                if cap[a] > 0:
                    v = to[a]
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return seen


def _check_terminals(g: DiGraph, X, Y):
    X = frozenset(X)
    Y = frozenset(Y)
    if not X or not Y:
        raise InputError("terminal sets must be nonempty")
    if X & Y:
        raise InputError(f"terminal sets intersect: {sorted(X & Y)}")
    for v in X | Y:
        g._check_vertex(v)
    return X, Y


def _decompose_paths(g: DiGraph, X, Y, net: _Residual) -> tuple[tuple[int, ...], ...]:
    """Split the final flow into edge-disjoint X->Y paths of original edge ids."""
    out_flow = {v: [] for v in range(g.n)}
    for a in range(0, len(net.to), 2):
        eid = net.edge_id[a]
        if eid is not None and net.cap[a] == 0:
            e = g.edge(eid)
            out_flow[e.tail].append(e)
    for lst in out_flow.values():
        lst.sort(key=lambda e: e.id, reverse=True)
    # units of flow entering each start vertex from the super source
    starts = []
    for a in range(0, len(net.to), 2):
        if net.edge_id[a] is None and net.to[a ^ 1] == net.src:
            v = net.to[a]
            used = net.cap[a ^ 1]
            starts.extend([v] * used)
    sink_credit = {}
    for a in range(0, len(net.to), 2):
        if net.edge_id[a] is None and net.to[a] == net.snk:
            y = net.to[a ^ 1]
            sink_credit[y] = sink_credit.get(y, 0) + net.cap[a ^ 1]
    paths = []
    for v in starts:
        path = []
        cur = v
        while True:
            if sink_credit.get(cur, 0) > 0 and cur in Y:
                sink_credit[cur] -= 1
                break
            e = out_flow[cur].pop()
            path.append(e.id)
            cur = e.head
        paths.append(tuple(path))
    return tuple(paths)


def max_flow(g: DiGraph, X, Y, cap: int | None = None) -> FlowValue:
    """Maximum number of edge-disjoint (X, Y)-paths, optionally clamped.

    When the true maximum is reached (no clamping kicked in) the result
    carries a minimum cut (the source-side one) and a witness family of
    edge-disjoint paths.
    """
    X, Y = _check_terminals(g, X, Y)
    if cap is not None:
        require_int("cap", cap, 0)
    net = _Residual(g, X, Y)
    value = net.run(cap)
    clamped = cap is not None and value == cap and net.augment_once()
    if clamped:
        # roll back the probe augmentation
        net.value -= 1
        return FlowValue(value=value)
    side = frozenset(v for v in net.source_reach() if v < g.n)
    cut = Cut(side=side, direction="out", boundary=boundary_edges(g, side, "out"))
    paths = _decompose_paths(g, X, Y, net)
    return FlowValue(value=net.value, witness_paths=paths, min_cut=cut)


def flow_value(g: DiGraph, X, Y, cap: int | None = None) -> int:
    """Value-only flow on a one-query view; loops bind g once instead."""
    X, Y = _check_terminals(g, X, Y)
    if cap is not None:
        require_int("cap", cap, 0)
    return bind(g).value(set_to_mask(X), set_to_mask(Y), cap)


def symmetric_connectivity(g: DiGraph, s: int, t: int, k: int) -> int:
    """min(flow(s,t), flow(t,s), k), computed with capped flows."""
    return bind(g).symmetric(s, t, k)


def farthest_min_cut(g: DiGraph, X, Y) -> Cut:
    """The unique inclusion-maximal minimum (X, Y)-cut side.

    Computed as V minus the vertices that can reach Y in the final residual
    graph.  With zero flow this degenerates to the set of vertices from
    which Y is unreachable, which is the form the container construction
    iterates on.
    """
    X, Y = _check_terminals(g, X, Y)
    side = bind(g).farthest(set_to_mask(X), set_to_mask(Y))[0]
    return make_cut(g, mask_to_set(side), "out")


def _reach_inside(adj, start: int, side: int) -> int:
    """Vertices of the ``side`` mask reachable from ``start`` without leaving it.

    ``adj`` is a list of out-neighbour masks, such as a bound view's
    ``nonzero``; the start mask is taken to lie inside the side.
    """
    return reach_mask([row & side for row in adj], start)


def _reachable_cut(g: DiGraph, cut: Cut, X, Y, direction: str) -> Cut:
    """The cut, in ``direction``, on the part of the side X reaches inside it.

    The walk runs on the bound view's adjacency, transposed for 'in', so an
    in-walk from X finds the side vertices that reach X in g.
    """
    X, Y = _check_terminals(g, X, Y)
    for v in cut.side:
        g._check_vertex(v)
    side = set_to_mask(cut.side)
    x_mask = set_to_mask(X)
    if x_mask & ~side or side & set_to_mask(Y):
        raise InputError("cut is not an (X, Y)-cut")
    adj = bind(g, reverse=direction == "in").nonzero
    return make_cut(g, mask_to_set(_reach_inside(adj, x_mask, side)), direction)


def canonicalize_out_reachable(g: DiGraph, cut: Cut, X, Y) -> Cut:
    """Shrink a cut side to the X-reachable part; boundary only shrinks.

    The side keeps the vertices X reaches along edges inside it.  The side
    must hold X and miss Y, and a side vertex outside [0, n) raises
    InputError.
    """
    return _reachable_cut(g, cut, X, Y, "out")


def canonicalize_in_reachable(g: DiGraph, cut: Cut, X, Y) -> Cut:
    """Mirror of :func:`canonicalize_out_reachable`: an in-cut on the side
    vertices that reach X inside the side.

    The walk runs on the transposed view, so no reversed graph is built.
    """
    return _reachable_cut(g, cut, X, Y, "in")
