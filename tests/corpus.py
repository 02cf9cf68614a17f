"""Deterministic test corpora: seeded graphs and random construction trees.

Everything here is reproducible from fixed seeds so expected values frozen
into tests stay meaningful across runs.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from safeset.cexpr import CExpression, DisjointUnion, Join, Leaf, Relabel
from safeset.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.graph import Graph

GRAPH_SEED = 0xC0FFEE
EXPR_SEED = 0xBEEF


def named_graphs() -> list[tuple[str, Graph]]:
    """Hand-picked families, all connected, n >= 2."""
    entries: list[tuple[str, Graph]] = []
    for n in range(2, 9):
        entries.append((f"path{n}", path_graph(n)))
    for n in range(3, 9):
        entries.append((f"cycle{n}", cycle_graph(n)))
    for leaves in range(2, 7):
        entries.append((f"star{leaves}", star_graph(leaves)))
    for n in range(2, 7):
        entries.append((f"clique{n}", complete_graph(n)))
    for a, b in [(1, 3), (2, 2), (2, 3), (3, 3), (2, 4)]:
        entries.append((f"biclique{a}x{b}", complete_bipartite_graph(a, b)))
    return entries


@lru_cache(maxsize=1)
def graph_corpus(count: int = 500) -> list[tuple[str, Graph]]:
    """Named families plus ``count`` seeded random connected graphs, n in 2..8."""
    rng = random.Random(GRAPH_SEED)
    entries = named_graphs()
    for k in range(count):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, extra=rng.choice([0.0, 0.15, 0.3, 0.6]))
        entries.append((f"rand{k}", g))
    return entries


def random_expression(
    rng: random.Random, label_count: int = 3, max_leaves: int = 10
) -> CExpression:
    """A random construction tree whose joins never re-add an edge.

    Unary operations are sprinkled over every level of the tree so relabels
    can fuse classes before later joins spread edges across them.
    """

    def decorate(node, labels, edges):
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                i = rng.randint(1, label_count)
                j = rng.choice([x for x in range(1, label_count + 1) if x != i])
                node = Relabel(i, j, node)
                labels = [j if x == i else x for x in labels]
            else:
                options = []
                for i in range(1, label_count + 1):
                    for j in range(i + 1, label_count + 1):
                        side_a = [k for k, x in enumerate(labels) if x == i]
                        side_b = [k for k, x in enumerate(labels) if x == j]
                        if not side_a or not side_b:
                            continue
                        fresh = {
                            (min(u, v), max(u, v)) for u in side_a for v in side_b
                        }
                        if fresh & edges:
                            continue
                        options.append((i, j, fresh))
                if options:
                    i, j, fresh = options[rng.randrange(len(options))]
                    node = Join(i, j, node)
                    edges = edges | fresh
        return node, labels, edges

    def build(budget):
        if budget == 1:
            lab = rng.randint(1, label_count)
            return decorate(Leaf(lab), [lab], set())
        split = rng.randint(1, budget - 1)
        lnode, llabels, ledges = build(split)
        rnode, rlabels, redges = build(budget - split)
        offset = len(llabels)
        edges = ledges | {(u + offset, v + offset) for u, v in redges}
        return decorate(DisjointUnion(lnode, rnode), llabels + rlabels, edges)

    root, _, _ = build(rng.randint(1, max_leaves))
    return CExpression(root, label_count)


def expression_corpus(
    count: int, label_count: int = 3, max_leaves: int = 10, seed: int = EXPR_SEED
) -> list[CExpression]:
    rng = random.Random(seed)
    return [random_expression(rng, label_count, max_leaves) for _ in range(count)]


def disjoint_union(*graphs: Graph) -> Graph:
    """Side-by-side copies, the vertices of each graph shifted past the
    ones before it."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def shuffled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertex ids permuted by a seeded shuffle, so that the
    components of a disjoint union interleave."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def union_corpus() -> list[Graph]:
    """Disjoint unions of small graphs, the i-th shuffled with seed i so that
    ties between components are broken across interleaved ids."""

    def rand(seed: int, n: int, extra: float) -> Graph:
        return random_connected_graph(random.Random(seed), n, extra)

    parts = [
        (path_graph(5), cycle_graph(6)),
        (cycle_graph(6), path_graph(5)),
        (complete_bipartite_graph(2, 3), star_graph(4)),
        (path_graph(4), path_graph(4)),
        (path_graph(3), path_graph(3), path_graph(3)),
        (cycle_graph(8), path_graph(2)),
        (cycle_graph(5), complete_bipartite_graph(3, 3), cycle_graph(5)),
        (rand(200, 7, 0.3), rand(201, 8, 0.2)),
        (rand(202, 9, 0.1), rand(203, 6, 0.5)),
        (complete_graph(4), path_graph(6), path_graph(2)),
        (rand(204, 8, 0.3), cycle_graph(4), rand(205, 8, 0.3)),
    ]
    return [shuffled(disjoint_union(*p), seed) for seed, p in enumerate(parts)]


def twin_blowup(b: int, t: int) -> Graph:
    """``random_connected_graph(random.Random(b), 6, 0.3)`` with each vertex
    v blown up into the twin class {v*t, ..., v*t + t - 1}, and each edge uv
    into all edges between u's class and v's.  A class is a clique when a
    fresh ``random.Random(b)``, drawn once per vertex in vertex order, gives
    less than 0.5, and independent otherwise."""
    base = random_connected_graph(random.Random(b), 6, 0.3)
    rng = random.Random(b)
    edges = []
    for v in range(base.n):
        if rng.random() < 0.5:
            edges += itertools.combinations(range(v * t, v * t + t), 2)
    for u, v in base.edges:
        edges += [(u * t + i, v * t + j) for i in range(t) for j in range(t)]
    return Graph(base.n * t, edges)
