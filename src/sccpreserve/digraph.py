"""Directed multigraph with stable edge identities.

The graph is the universe every algorithm in this package operates on.
Edges carry integer ids that survive all graph surgery: a subgraph obtained
with :meth:`DiGraph.restrict_to` or :meth:`DiGraph.remove_edges` keeps the
parent's ids, which is how preservers (edge subsets of a host graph) and
fault sets (edge-id sets) stay meaningful across derived graphs.

Reachability and SCC computations run on a bitmask kernel: adjacency is a
list of integer masks, reachability is frontier propagation over masks.
This keeps the exhaustive oracles (millions of tiny SCC computations) fast
without any native-code dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, require_int
from .limits import guard_graph_size

@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    color: int | None = None


class DiGraph:
    """Immutable directed multigraph over vertices 0..n-1.

    Parallel edges and self-loops are allowed; self-loops never affect
    connectivity results.  Freshly constructed graphs get dense edge ids
    0..m-1 in input order; derived subgraphs keep their parent's ids.
    """

    __slots__ = ("n", "edges", "_by_id", "_key", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple] = (), *, _records=None):
        # ``_records``: Edge records in strictly ascending id order, as every
        # surgery method passes them (it filters or maps self.edges in order)
        require_int("vertex count", n, 0)
        object.__setattr__(self, "n", n)
        records = _edge_records(edges, 0) if _records is None else _records
        by_id = {}
        last = None
        for e in records:
            if not (0 <= e.tail < n and 0 <= e.head < n):
                raise InputError(f"edge {e.id} endpoint out of range: {e}")
            if e.color is not None and e.color < 0:
                raise InputError(f"edge {e.id} has negative color")
            if last is not None and e.id <= last:
                raise InputError(f"edge ids must strictly ascend: {e.id} after {last}")
            by_id[e.id] = e
            last = e.id
        object.__setattr__(self, "edges", tuple(records))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiGraph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since slot state cannot
        # be restored past __setattr__; the records keep ids and colors
        return _from_records, (self.n, self.edges)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise InputError(f"unknown edge id {edge_id}") from None

    def edge_ids(self) -> frozenset:
        return frozenset(self._by_id)

    def vertex_set(self, vertices: Iterable[int]) -> frozenset:
        """The given vertices as a frozenset, each one under :func:`check_vertex`.

        Anything that is not an iterable of hashables raises InputError.
        """
        checked = id_set(vertices, "vertices")
        for v in checked:
            check_vertex(v, self.n)
        return checked

    def edge_set(self, edge_ids: Iterable[int]) -> frozenset:
        """The given edge ids as a frozenset, each one an id of this graph.

        Anything that is not an iterable of hashables raises InputError.
        """
        checked = id_set(edge_ids, "edge ids")
        for eid in checked:
            self.edge(eid)
        return checked

    def signature(self) -> tuple:
        """Hashable content key (used by caches and equality)."""
        key = self._key
        if key is None:
            key = (self.n, tuple((e.id, e.tail, e.head, e.color) for e in self.edges))
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other):
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self):
        # Cached: a tuple does not cache its hash, and caches look graphs up
        # many times; the graph is immutable, so the value never goes stale.
        h = self._hash
        if h is None:
            h = hash(self.signature())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m})"

    # -- graph surgery ---------------------------------------------------

    def remove_edges(self, fault: Iterable[int]) -> "DiGraph":
        """Graph minus the given edge ids: the restriction to every other id."""
        return self.restrict_to(self._by_id.keys() - self.edge_set(fault))

    def restrict_to(self, edge_ids: Iterable[int]) -> "DiGraph":
        """Subgraph keeping exactly the given edge ids (a preserver view)."""
        wanted = self.edge_set(edge_ids)
        keep = [e for e in self.edges if e.id in wanted]
        return DiGraph(self.n, _records=keep)

    def add_edges(self, new_edges: Iterable[tuple]) -> "DiGraph":
        """Graph plus new edges; fresh ids continue after the current maximum."""
        next_id = max(self._by_id) + 1 if self._by_id else 0
        records = list(self.edges) + _edge_records(new_edges, next_id)
        return DiGraph(self.n, _records=records)

    def reverse(self) -> "DiGraph":
        """Every edge flipped; ids and colors preserved."""
        records = [Edge(e.id, e.head, e.tail, e.color) for e in self.edges]
        return DiGraph(self.n, _records=records)

    def induced(self, vertex_set: Iterable[int]) -> tuple["DiGraph", tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Vertices are renumbered densely; returns (subgraph, to_parent) where
        to_parent[new_index] is the original vertex.  Edge ids are preserved,
        so preserver edges computed inside the subgraph are directly valid in
        the parent graph.  Induced on every vertex, the subgraph is the graph
        itself, which is returned with the identity ``to_parent``: a graph is
        immutable, and a copy would equal it by content.
        """
        to_parent = tuple(sorted(self.vertex_set(vertex_set)))
        if len(to_parent) == self.n:
            return self, to_parent
        local = {v: i for i, v in enumerate(to_parent)}
        records = [
            Edge(e.id, local[e.tail], local[e.head], e.color)
            for e in self.edges
            if e.tail in local and e.head in local
        ]
        return DiGraph(len(to_parent), _records=records), to_parent


def id_set(items: Iterable, what: str) -> frozenset:
    """``items`` as a frozenset; InputError unless an iterable of hashables.

    The one conversion of a collection of vertices or edge ids: the
    :class:`DiGraph` methods ``vertex_set`` and ``edge_set`` then check each
    member against the graph.
    """
    try:
        return frozenset(items)
    except TypeError:
        raise InputError(f"expected a collection of {what}, got {items!r}") from None


def check_vertex(v, n: int) -> None:
    """The vertex rule: v is an int, not a bool, in [0, n); else InputError."""
    if type(v) is not int or not 0 <= v < n:
        raise InputError(f"vertex {v!r} is not an int in [0, {n})")


def _edge_records(specs: Iterable[tuple], first_id: int) -> list[Edge]:
    """Edges numbered from ``first_id``, one per (tail, head[, color]) of ints.

    Anything else raises InputError, so every edge prints as a line that
    :func:`parse` reads back.
    """
    records = []
    for eid, spec in enumerate(specs, first_id):
        if (
            not isinstance(spec, (tuple, list))
            or len(spec) not in (2, 3)
            or not type(spec[0]) is type(spec[1]) is type(spec[-1]) is int  # [-1]: color
        ):
            raise InputError(f"bad edge spec {spec!r}: want (tail, head[, color]) ints")
        records.append(Edge(eid, *spec))
    return records


def _from_records(n: int, records) -> DiGraph:
    return DiGraph(n, _records=records)


# -- bitmask reachability kernel ------------------------------------------


def out_masks(g: DiGraph, banned: frozenset = frozenset()) -> list[int]:
    """Per-vertex mask of out-neighbors, skipping banned edge ids."""
    adj = [0] * g.n
    for e in g.edges:
        if e.id not in banned:
            adj[e.tail] |= 1 << e.head
    return adj


def reach_mask(adj: list[int], start: int) -> int:
    """Vertices reachable from the start mask (start included)."""
    reached = start
    frontier = start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~reached
        reached |= frontier
    return reached


def shortest_path(adj: list[int], start: int, goal: int) -> list[int] | None:
    """Vertices of a shortest start-goal path, both ends included, or None.

    The frontier search of :func:`reach_mask`, stopped at the first
    frontier that holds the goal and keeping the frontiers before it; None
    exactly when ``reach_mask(adj, 1 << start)`` misses the goal.  The path
    is walked back from the goal through the lowest vertex of each earlier
    frontier with an arc to the vertex after it.
    """
    goal_bit = 1 << goal
    levels = []
    reached = frontier = 1 << start
    while not frontier & goal_bit:
        levels.append(frontier)
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~reached
        if not frontier:
            return None
        reached |= frontier
    path = [goal]
    for level in reversed(levels):
        bit = 1 << path[-1]
        while True:
            b = level & -level
            v = b.bit_length() - 1
            if adj[v] & bit:
                break
            level ^= b
        path.append(v)
    path.reverse()
    return path


def round_trip_arcs(
    out: list[int], inn: list[int], root: int, span: int, heads: int, tails: int
) -> list[tuple]:
    """Arcs of breadth-first paths from ``root`` to ``heads`` and from
    ``tails`` to ``root`` inside ``span``.

    The :func:`tree_arcs` out-tree over ``out`` to the heads, then its
    in-tree over ``inn`` (the transposed masks) from the tails, each arc
    turned back to the graph's direction.  While every arc survives, each
    tail reaches each head through the root.
    """
    arcs = tree_arcs(out, root, span, heads)
    arcs += [(w, v) for v, w in tree_arcs(inn, root, span, tails)]
    return arcs


def tree_arcs(adj: list[int], root: int, span: int, goals: int) -> list[tuple]:
    """Arcs (parent, child) of breadth-first paths from ``root`` to ``goals``.

    The frontier search of :func:`reach_mask` over the arcs inside the
    ``span`` mask, expanding each frontier vertex in ascending order, so a
    vertex's parent is the first frontier vertex with an arc to it.  It
    stops once it has reached every goal it can, and returns the tree arcs
    on the paths from the root to the goals it reached, children before
    parents.
    """
    arcs = []
    reached = frontier = 1 << root
    while frontier and goals & ~reached:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & span & ~reached
            if new:
                reached |= new
                nxt |= new
                v = b.bit_length() - 1
                while new:
                    c = new & -new
                    new ^= c
                    arcs.append((v, c.bit_length() - 1))
        frontier = nxt
    paths = []
    for arc in reversed(arcs):
        if goals >> arc[1] & 1:
            paths.append(arc)
            goals |= 1 << arc[0]
    return paths


def closure_masks(adj: list[int]) -> list[int]:
    """Reflexive-transitive closure row per vertex."""
    n = len(adj)
    closure = [adj[v] | (1 << v) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            row = closure[v]
            new = row
            bits = row
            while bits:
                b = bits & -bits
                bits ^= b
                new |= closure[b.bit_length() - 1]
            if new != row:
                closure[v] = new
                changed = True
    return closure


def scc_masks(adj: list[int]) -> list[int]:
    """Canonical SCC labelling: component-of-v as a vertex mask.

    Two graphs over the same vertex set have identical SCC partitions iff
    these lists are equal elementwise.
    """
    return _components(closure_masks(adj))


def _components(closure: list[int]) -> list[int]:
    """Component-of-v masks from the reflexive-transitive closure rows."""
    n = len(closure)
    comp = [0] * n
    for v in range(n):
        row = closure[v]
        vbit = 1 << v
        mask = vbit
        bits = row & ~vbit
        while bits:
            b = bits & -bits
            bits ^= b
            if closure[b.bit_length() - 1] & vbit:
                mask |= b
        comp[v] = mask
    return comp


def mask_ids(mask: int) -> tuple:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def mask_to_set(mask: int) -> frozenset:
    return frozenset(mask_ids(mask))


def set_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# -- strongly connected components ----------------------------------------


@dataclass(frozen=True)
class SccPartition:
    component_of: tuple[int, ...]
    components: tuple[frozenset, ...]


def scc(g: DiGraph) -> SccPartition:
    """Strongly connected components with a topologically sorted condensation.

    Components are numbered in topological order: every edge goes from a
    component to an equal-or-later one.  The order is a contract: by
    descending size of the out-reach of the component's lowest vertex, ties
    by that vertex.  Descending reach size is topological: if C reaches a
    different component D, C's reach strictly contains D's.

    Each component costs one out-reach and one in-reach from its lowest
    vertex, whose meet is the component; every vertex of a component has
    the same out-reach, so no closure is needed.
    """
    out = [0] * g.n
    inn = [0] * g.n
    for e in g.edges:
        out[e.tail] |= 1 << e.head
        inn[e.head] |= 1 << e.tail
    found = []  # (-reach size, lowest vertex, component mask)
    left = (1 << g.n) - 1
    while left:
        low = left & -left
        reach = reach_mask(out, low)
        comp = reach & reach_mask(inn, low)
        left &= ~comp
        found.append((-reach.bit_count(), low.bit_length() - 1, comp))
    found.sort()
    component_of = [0] * g.n
    components = []
    for i, (_, _, comp) in enumerate(found):
        members = mask_to_set(comp)
        for v in members:
            component_of[v] = i
        components.append(members)
    return SccPartition(component_of=tuple(component_of), components=tuple(components))


# -- text format ------------------------------------------------------------


def serialize(g: DiGraph) -> str:
    """Canonical text form: ``n m`` then one ``tail head [color]`` per edge.

    Edges appear in edge-id order; parsing the output reassigns the same ids.
    """
    lines = [f"{g.n} {g.m}"]
    for e in g.edges:
        if e.color is None:
            lines.append(f"{e.tail} {e.head}")
        else:
            lines.append(f"{e.tail} {e.head} {e.color}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> DiGraph:
    """Parse the text format; lines starting with ``#`` are comments.

    A header past ``limits.MAX_GRAPH_VERTICES`` vertices raises
    CapabilityError before anything is allocated for them, as a generator
    asked for that many does.
    """
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise InputError("empty graph file")
    header = rows[0].split()
    if len(header) != 2:
        raise InputError(f"bad header line: {rows[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise InputError(f"bad header line: {rows[0]!r}") from None
    guard_graph_size(n)
    if len(rows) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) not in (2, 3):
            raise InputError(f"bad edge line: {row!r}")
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise InputError(f"bad edge line: {row!r}") from None
        edges.append(tuple(fields))
    return DiGraph(n, edges)


def load(path) -> DiGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def dump(g: DiGraph, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(serialize(g))
