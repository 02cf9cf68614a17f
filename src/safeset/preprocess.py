"""Polynomial-time approximation of a minimum safe set, within a factor
s(G) + 1 of the safe number s(G)."""

from __future__ import annotations

from .graph import (
    Graph,
    bfs_order,
    components_mask,
    is_safe_set,
    neighborhood_mask,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component


def _absorb_component(g: Graph, border: int, comp: int, want: int) -> int:
    """Connected chunk of `comp` with `want` vertices, grown from the
    smallest vertex of comp inside `border`, the set's neighborhood."""
    touch = comp & border
    start = (touch & -touch).bit_length() - 1
    chunk = 0
    for v in bfs_order(g, start, comp):
        chunk |= 1 << v
        want -= 1
        if want == 0:
            break
    return chunk


def _approx_component(g: Graph) -> frozenset[int]:
    """Best set found over all guesses of the safe number in the connected
    graph g."""
    comp = g.full_mask()
    order = list(bfs_order(g, 0, comp))
    seed = 1 << order[0]
    seed_border = g.adjacency_mask(order[0])
    best: tuple[int, tuple[int, ...]] | None = None
    for s in range(1, g.n + 1):
        if best is not None and s >= best[0]:
            break
        if s + 1 >= g.n:
            smask = comp
        else:
            seed |= 1 << order[s]
            seed_border |= g.adjacency_mask(order[s])
            smask, border = seed, seed_border
            # The complement's components with more than s vertices.  No edge
            # joins two of them, so cutting one never changes another, and
            # the order they are cut in does not change the result.
            big = [c for c in components_mask(g, comp & ~smask) if c.bit_count() > s]
            while big:
                oversized = big.pop()
                chunk = _absorb_component(g, border, oversized, s + 1)
                smask |= chunk
                border |= neighborhood_mask(g, chunk)
                big += [c for c in components_mask(g, oversized & ~chunk) if c.bit_count() > s]
        members = vertices_of(smask)
        if not is_safe_set(g, members):  # pragma: no cover - defensive
            continue
        cand = (len(members), tuple(members))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return frozenset(best[1])


def approx_safe_set(g: Graph) -> SolveResult:
    """Safe set of size at most s(G) * (s(G) + 1), connected inside its
    component, found in polynomial time.

    For each guessed value s, grow a connected seed of size s+1 from the
    smallest vertex, then repeatedly swallow a connected block of size s+1
    out of any too-large leftover component until every component of the
    complement has at most s vertices; keep the smallest result over all
    guesses.  Each swallowed block must intersect every safe set of size s,
    which is what caps the total at s(s+1).

    The guesses stop at the first s that is at least the best size found:
    guess s only adds to a seed of s+1 vertices, so it and every later
    guess return more vertices than the best and cannot win.  The answer
    is the one a scan over all n guesses would give, and a connected graph
    with n >= 2 runs exactly (returned size - 1) guesses.  All guesses
    grow their seed along one BFS order, and after each swallow only the
    component just cut is split again; components of at most s vertices
    never change.
    """
    return solve_by_component(g, lambda sub, _bound: _approx_component(sub), "approx", False)
