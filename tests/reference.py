"""Slow, set-based reference implementations used only by tests.

These deliberately avoid the bitmask machinery of the package so that the
package verifiers are checked through an independent route.
"""

from __future__ import annotations

import itertools

from safeset.graph import Graph


def ref_components(g: Graph, within: set[int]) -> list[set[int]]:
    within = set(within)
    comps = []
    while within:
        start = min(within)
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w in within and w not in comp:
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
        within -= comp
    return comps


def ref_adjacent(g: Graph, a: set[int], b: set[int]) -> bool:
    return any(w in b for v in a for w in g.neighbors(v))


def ref_is_safe(g: Graph, s: set[int], connected: bool = False) -> bool:
    s = set(s)
    if not s:
        return False
    s_comps = ref_components(g, s)
    if connected and len(s_comps) != 1:
        return False
    rest = ref_components(g, set(g.vertices()) - s)
    for c in s_comps:
        for d in rest:
            if ref_adjacent(g, c, d) and len(d) > len(c):
                return False
    return True


def ref_safe_number(g: Graph, connected: bool = False) -> int | None:
    """Minimum safe set size by scanning subsets in sorted-tuple order."""
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if ref_is_safe(g, set(combo), connected):
                return size
    return None


def ref_min_steiner(g: Graph, terminals: set[int], forbidden: set[int]) -> int | None:
    """Minimum connected superset of the terminals avoiding forbidden vertices."""
    allowed = [v for v in g.vertices() if v not in forbidden]
    extra = [v for v in allowed if v not in terminals]
    if not set(terminals) <= set(allowed):
        return None
    for size in range(len(terminals), len(allowed) + 1):
        for combo in itertools.combinations(extra, size - len(terminals)):
            cand = set(terminals) | set(combo)
            if len(ref_components(g, cand)) == 1:
                return size
    return None


def ref_bfs(g: Graph, start: int, within: set[int]) -> list[int]:
    """BFS visit order inside ``within``, neighbors taken in ascending id."""
    order = [start]
    seen = {start}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in sorted(g.neighbors(v)):
            if w in within and w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _ref_approx_in(g: Graph, comp: set[int]) -> tuple[int, tuple[int, ...]]:
    """Best (size, sorted tuple) over every guess s = 1..|comp|."""
    best = None
    for s in range(1, len(comp) + 1):
        if s + 1 >= len(comp):
            chosen = set(comp)
        else:
            chosen = set(ref_bfs(g, min(comp), comp)[: s + 1])
            while True:
                big = [c for c in ref_components(g, comp - chosen) if len(c) > s]
                if not big:
                    break
                target = min(big, key=min)
                start = min(v for v in target if any(w in chosen for w in g.neighbors(v)))
                chosen |= set(ref_bfs(g, start, target)[: s + 1])
        cand = (len(chosen), tuple(sorted(chosen)))
        if best is None or cand < best:
            best = cand
    return best


def ref_approx_witness(g: Graph) -> frozenset[int] | None:
    """The approximation's witness, recomputed from its rules with plain sets
    and without stopping early: the best component's set by (size, sorted
    tuple), or None for the empty graph."""
    cands = [_ref_approx_in(g, comp) for comp in ref_components(g, set(g.vertices()))]
    return frozenset(min(cands)[1]) if cands else None
