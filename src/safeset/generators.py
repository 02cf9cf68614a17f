"""Small graph constructors used by tests, scripts, and demos."""

from __future__ import annotations

import itertools
import random

from .graph import Graph, InputError, components_mask


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_with_apex(n: int, attach: tuple[int, int]) -> Graph:
    """A cycle plus one extra vertex adjacent to the two given positions."""
    c = cycle_graph(n)
    edges = list(c.edges) + [(n, attach[0]), (n, attach[1])]
    return Graph(n + 1, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random connected graph: a random tree plus extra edges with prob ``extra``."""
    if n <= 0:
        raise InputError("need at least one vertex")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for idx in range(1, n):
        anchor = order[rng.randrange(idx)]
        u, v = order[idx], anchor
        edges.add((u, v) if u < v else (v, u))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices (use only for tiny n)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph(n, edges)
        if n == 0 or len(components_mask(g, g.full_mask())) == 1:
            yield g
