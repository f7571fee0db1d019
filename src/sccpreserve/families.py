"""Deterministic generators for the lower-bound families and random corpora.

Trees are heap-indexed inside their vertex block (root first, children of
slot i at 2i+1 and 2i+2), so each leaf's witness fault set (the off-path
sibling edges along its root path) comes out in closed form.  Generators
return (graph, metadata); the CLI writes the metadata as a JSON sidecar.
"""

from __future__ import annotations

import random

from .digraph import DiGraph
from .errors import CapabilityError, InputError, require_int

_MAX_GENERATED_VERTICES = 200_000


def _guard_size(n: int) -> None:
    if n > _MAX_GENERATED_VERTICES:
        raise CapabilityError(f"generator would emit {n} vertices")


def _heap_tree_edges(depth: int):
    """Parent->child slot pairs of a full binary tree, BFS order."""
    internal = (1 << depth) - 1
    return [(i, c) for i in range(internal) for c in (2 * i + 1, 2 * i + 2)]


def _leaf_slots(depth: int):
    return list(range((1 << depth) - 1, (1 << (depth + 1)) - 1))


def _off_path_slots(depth: int, leaf_slot: int):
    """Sibling edges hanging off the root->leaf path, as slot pairs."""
    off = []
    child = leaf_slot
    while child:
        parent = (child - 1) // 2
        sibling = child + 1 if child % 2 == 1 else child - 1
        off.append((parent, sibling))
        child = parent
    return off


def _check_counts(x_count: int, y_count: int) -> None:
    require_int("leaf count", x_count, 2)
    if x_count & (x_count - 1):
        raise InputError("leaf count must be a power of two, at least 2")
    require_int("sink count", y_count, 1)


def _tree_with_sinks(x_count: int, y_count: int):
    """Shared skeleton: out-tree to X leaves, all X x Y edges, Y back to root."""
    _check_counts(x_count, y_count)
    depth = x_count.bit_length() - 1
    tree_vertices = (1 << (depth + 1)) - 1
    n = tree_vertices + y_count
    _guard_size(n)
    edges = list(_heap_tree_edges(depth))
    tree_edge_count = len(edges)
    leaves = _leaf_slots(depth)
    sinks = list(range(tree_vertices, n))
    cross_ids = {}
    for x in leaves:
        for y in sinks:
            cross_ids[(x, y)] = len(edges)
            edges.append((x, y))
    return_ids = []
    for y in sinks:
        return_ids.append(len(edges))
        edges.append((y, 0))
    g = DiGraph(n, edges)
    edge_id_of = {(t, h): i for i, (t, h) in enumerate(edges[:tree_edge_count])}
    witnesses = {}
    for x in leaves:
        fault = sorted(edge_id_of[slot] for slot in _off_path_slots(depth, x))
        for y in sinks:
            witnesses[cross_ids[(x, y)]] = fault
    meta = {
        "s": 0,
        "depth": depth,
        "x_vertices": leaves,
        "y_vertices": sinks,
        "tree_edges": list(range(tree_edge_count)),
        "cross_edges": sorted(cross_ids.values()),
        "return_edges": return_ids,
        "witnesses": witnesses,
    }
    return g, meta


def gen_baswana_tree(k: int, y_count: int):
    """Depth-k out-tree with 2^k leaves, complete leaf-to-sink edges, sinks
    back to the root.  Every cross edge is k-fault critical; its witness is
    the k off-path sibling edges of its leaf."""
    require_int("k", k, 1)
    g, meta = _tree_with_sinks(1 << k, y_count)
    meta["family"] = "baswana_tree"
    meta["k"] = k
    return g, meta


def gen_bounded_degree_lower(x_count: int, y_count: int):
    """The 1-bounded-degree lower-bound instance: same skeleton, with each
    cross edge's witness a valid 1-bounded-degree fault set."""
    g, meta = _tree_with_sinks(x_count, y_count)
    meta["family"] = "bounded_degree"
    return g, meta


def gen_st_lower(layers: int, k_even: int):
    """Layered s-t lower-bound graph for even fault budgets.

    Each layer routes an out-tree of depth k/2 into an in-tree of depth k/2
    through a complete bipartite block of 2^k cross edges, successive layers
    share their boundary vertex, and one closing edge runs from t back to s.
    Each cross edge carries a witness of k/2 + k/2 off-path edges.
    """
    require_int("layers", layers, 1)
    require_int("fault budget", k_even, 2)
    if k_even % 2:
        raise InputError("fault budget must be even and at least 2")
    depth = k_even // 2
    block = (1 << (depth + 1)) - 1  # full binary tree size
    s_chain = list(range(layers + 1))
    n = layers + 1 + layers * 2 * (block - 1)
    _guard_size(n)
    next_vertex = layers + 1
    edges = []
    layer_meta = []
    witnesses = {}
    for i in range(layers):
        out_map = {0: s_chain[i]}
        in_map = {0: s_chain[i + 1]}
        for slot in range(1, block):
            out_map[slot] = next_vertex
            next_vertex += 1
        for slot in range(1, block):
            in_map[slot] = next_vertex
            next_vertex += 1
        out_edge_of = {}
        in_edge_of = {}
        for parent, child in _heap_tree_edges(depth):
            out_edge_of[(parent, child)] = len(edges)
            edges.append((out_map[parent], out_map[child]))
        for parent, child in _heap_tree_edges(depth):
            in_edge_of[(parent, child)] = len(edges)
            edges.append((in_map[child], in_map[parent]))
        x_leaves = [out_map[slot] for slot in _leaf_slots(depth)]
        xp_leaves = [in_map[slot] for slot in _leaf_slots(depth)]
        cross = []
        for x_slot in _leaf_slots(depth):
            for xp_slot in _leaf_slots(depth):
                eid = len(edges)
                edges.append((out_map[x_slot], in_map[xp_slot]))
                cross.append(eid)
                fault = [
                    out_edge_of[slot] for slot in _off_path_slots(depth, x_slot)
                ] + [in_edge_of[slot] for slot in _off_path_slots(depth, xp_slot)]
                witnesses[eid] = sorted(fault)
        layer_meta.append(
            {"x_leaves": x_leaves, "x_prime_leaves": xp_leaves, "cross_edges": cross}
        )
    closing = len(edges)
    edges.append((s_chain[-1], s_chain[0]))
    g = DiGraph(n, edges)
    meta = {
        "family": "st_lower",
        "s": s_chain[0],
        "t": s_chain[-1],
        "k": k_even,
        "layers": layer_meta,
        "closing_edge": closing,
        "cross_edges": sorted(witnesses),
        "witnesses": witnesses,
    }
    return g, meta


def gen_color_fault_lower(x_count: int, y_count: int):
    """Color-fault lower bound: failing color i isolates leaf i.

    Tree edges collect one color per leaf whose root path they hang off;
    edges with several colors are split into paths with one color per hop,
    so every edge of the final graph carries exactly one color.  Leaf-sink
    and return edges share the reserved color 0.
    """
    _check_counts(x_count, y_count)
    depth = x_count.bit_length() - 1
    tree_vertices = (1 << (depth + 1)) - 1
    leaves = _leaf_slots(depth)
    colors_of: dict[tuple, set] = {pair: set() for pair in _heap_tree_edges(depth)}
    for index, leaf in enumerate(leaves, start=1):
        # only the sibling edges hanging off the root->leaf path get color i
        for parent, sibling in _off_path_slots(depth, leaf):
            colors_of[(parent, sibling)].add(index)
    vertex_count = tree_vertices
    edges = []
    for parent, child in _heap_tree_edges(depth):
        palette = sorted(colors_of[(parent, child)])
        if not palette:
            raise AssertionError("full binary tree edge with no color")
        if len(palette) == 1:
            edges.append((parent, child, palette[0]))
            continue
        hops = [parent]
        for _ in palette[:-1]:
            hops.append(vertex_count)
            vertex_count += 1
        hops.append(child)
        for (a, b), color in zip(zip(hops, hops[1:]), palette):
            edges.append((a, b, color))
    sinks = list(range(vertex_count, vertex_count + y_count))
    vertex_count += y_count
    _guard_size(vertex_count)
    cross_ids = {}
    for x in leaves:
        for y in sinks:
            cross_ids[(x, y)] = len(edges)
            edges.append((x, y, 0))
    return_ids = []
    for y in sinks:
        return_ids.append(len(edges))
        edges.append((y, 0, 0))
    g = DiGraph(vertex_count, edges)
    leaf_color = {leaf: index for index, leaf in enumerate(leaves, start=1)}
    meta = {
        "family": "color_fault",
        "s": 0,
        "x_vertices": leaves,
        "y_vertices": sinks,
        "color_to_leaf": {index: leaf for leaf, index in leaf_color.items()},
        "cross_edges": sorted(cross_ids.values()),
        "return_edges": return_ids,
        "cross_edge_color": {eid: leaf_color[x] for (x, _), eid in cross_ids.items()},
    }
    return g, meta


def gen_random(
    n: int, m: int, seed: int, ensure_strongly_connected: bool = False
) -> DiGraph:
    """Seeded random multigraph; optionally on a random Hamiltonian backbone.

    With the backbone, m counts total edges (the cycle contributes n of
    them); without it, exactly m uniform tail/head pairs are drawn.
    Self-loops are never generated, parallel edges may be.
    """
    require_int("n", n, 0)
    require_int("m", m, 0)
    require_int("seed", seed, 0)  # Random(-s) draws the same stream as Random(s)
    _guard_size(n)
    rng = random.Random(seed)
    edges = []
    if ensure_strongly_connected and n >= 2:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            edges.append((order[i], order[(i + 1) % n]))
    extra = m - len(edges) if ensure_strongly_connected else m
    if n >= 2:
        for _ in range(max(0, extra)):
            tail = rng.randrange(n)
            head = rng.randrange(n - 1)
            if head >= tail:
                head += 1
            edges.append((tail, head))
    return DiGraph(n, edges)
