import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from sccpreserve.digraph import DiGraph, scc
from sccpreserve.variants import VariantSpec


def three_cycle() -> DiGraph:
    return DiGraph(3, [(0, 1), (1, 2), (2, 0)])


def bidirected_triangle() -> DiGraph:
    return DiGraph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])


def bidirected_k4() -> DiGraph:
    edges = []
    for u in range(4):
        for v in range(4):
            if u != v:
                edges.append((u, v))
    return DiGraph(4, edges)


def directed_path(n: int) -> DiGraph:
    return DiGraph(n, [(i, i + 1) for i in range(n - 1)])


def diamond() -> DiGraph:
    # s=0, a=1, b=2, t=3
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def diamond_with_chord() -> DiGraph:
    # diamond plus a->b
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])


def variant_checks(g: DiGraph):
    """(spec, reference pair list, global flag) for each of the five variants.

    Pair lists are in the row-major order the library reports broken pairs in.
    """
    n = g.n
    return [
        (VariantSpec.all_pairs(), [(a, b) for a in range(n) for b in range(n) if a != b], False),
        (VariantSpec.single_source(0), [(0, v) for v in range(1, n)], False),
        (VariantSpec.st(0, n - 1), [(0, n - 1)], False),
        (VariantSpec.sourcewise({0, 1}), [(u, v) for u in (0, 1) for v in range(n) if u != v], False),
        (VariantSpec.global_(), [], True),
    ]


def loopy_multigraph(rng, n: int) -> DiGraph:
    """Seeded multigraph on n >= 2 vertices that has a self-loop and a
    parallel edge and is not strongly connected."""
    while True:
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n, 2 * n + 2))]
        edges.append(edges[0])
        v = rng.randrange(n)
        edges.append((v, v))
        rng.shuffle(edges)
        g = DiGraph(n, edges)
        if len(scc(g).components) > 1:
            return g
