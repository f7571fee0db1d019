"""Unit-capacity max-flow, minimum cuts, and farthest minimum cuts.

Flows are computed with BFS augmenting paths (Ford-Fulkerson) on the
residual multigraph.  Terminal sets are handled with an artificial super
source/sink whose arcs get capacity m+1, so they can never saturate.
Residual BFS scans arcs in ascending edge-id order, which makes every cut
this module returns reproducible across runs.

The farthest minimum (X, Y)-cut is taken as S = V minus the set of vertices
that can still reach Y in the final residual graph.  That side is the unique
inclusion-maximal minimum-cut side, it agrees with the classical farthest
min-cut whenever every vertex is reachable from X, and it is the form the
flow-increment law (adding a source edge to any v outside S raises the flow
by exactly one) needs even on graphs with vertices unreachable from X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DiGraph
from .errors import InputError


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


class _Residual:
    """Arc-list residual network over g's vertices plus super source/sink."""

    __slots__ = ("n", "src", "snk", "to", "cap", "adj", "radj", "edge_id", "value")

    def __init__(self, g: DiGraph, X, Y, extra_source_heads=()):
        n = g.n
        self.n = n + 2
        self.src = n
        self.snk = n + 1
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(self.n)]
        self.radj = [[] for _ in range(self.n)]
        self.edge_id = []
        big = g.m + len(extra_source_heads) + 1
        for e in g.edges:  # ascending edge-id order fixes BFS tie-breaking
            self._arc(e.tail, e.head, 1, e.id)
        for v in extra_source_heads:
            self._arc(self.src, v, 1, None)
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
        self.radj[v].append(i)
        self.radj[u].append(i + 1)

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

    def sink_reaching(self) -> set:
        """Vertices with a residual path to the sink."""
        seen = {self.snk}
        stack = [self.snk]
        to, cap = self.to, self.cap
        while stack:
            w = stack.pop()
            for a in self.radj[w]:
                if cap[a] > 0:
                    u = to[a ^ 1]
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
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
    if cap is not None and cap < 0:
        raise InputError("cap must be nonnegative")
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
    """Value-only fast path used by the heavier search loops."""
    X, Y = _check_terminals(g, X, Y)
    net = _Residual(g, X, Y)
    return net.run(cap)


def symmetric_connectivity(g: DiGraph, s: int, t: int, k: int) -> int:
    """min(flow(s,t), flow(t,s), k), computed with capped flows."""
    if s == t:
        raise InputError("s and t must differ")
    if k < 0:
        raise InputError("k must be nonnegative")
    if k == 0:
        return 0
    forward = flow_value(g, [s], [t], cap=k)
    if forward == 0:
        return 0
    backward = flow_value(g, [t], [s], cap=min(forward, k))
    return min(forward, backward, k)


def farthest_min_cut(g: DiGraph, X, Y) -> Cut:
    """The unique inclusion-maximal minimum (X, Y)-cut side.

    Computed as V minus the vertices that can reach Y in the final residual
    graph.  With zero flow this degenerates to the set of vertices from
    which Y is unreachable, which is the form the container construction
    iterates on.
    """
    X, Y = _check_terminals(g, X, Y)
    net = _Residual(g, X, Y)
    net.run()
    reaching = net.sink_reaching()
    side = frozenset(v for v in range(g.n) if v not in reaching)
    return Cut(side=side, direction="out", boundary=boundary_edges(g, side, "out"))


def canonicalize_out_reachable(g: DiGraph, cut: Cut, X, Y) -> Cut:
    """Shrink a cut side to the X-reachable part; boundary only shrinks."""
    X, Y = _check_terminals(g, X, Y)
    side = frozenset(cut.side)
    if not X <= side or side & Y:
        raise InputError("cut is not an (X, Y)-cut")
    blocked = boundary_edges(g, side, "out")
    reached = set(X)
    stack = list(X)
    while stack:
        u = stack.pop()
        for e in g.out_edges(u):
            if e.id in blocked:
                continue
            if e.head not in reached:
                reached.add(e.head)
                stack.append(e.head)
    new_side = frozenset(reached)
    return Cut(side=new_side, direction="out", boundary=boundary_edges(g, new_side, "out"))


def canonicalize_in_reachable(g: DiGraph, cut: Cut, X, Y) -> Cut:
    """Mirror of :func:`canonicalize_out_reachable` on the reversed graph."""
    rev = g.reverse()
    out_cut = canonicalize_out_reachable(rev, Cut(cut.side, "out", frozenset()), X, Y)
    return Cut(
        side=out_cut.side,
        direction="in",
        boundary=boundary_edges(g, out_cut.side, "in"),
    )
