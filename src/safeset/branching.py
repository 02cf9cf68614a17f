"""Exact solver that guesses the component sizes of a solution, branches on
vertices that would break the guess, and completes each partial component
with a minimum Steiner tree.

The search enumerates total sizes s = 1..k in increasing order, so the
first verified hit is a minimum.  For the connected variant the component
count is fixed to one.  A search state is a tuple of vertex masks, one per
guessed component, kept pairwise disjoint and each within its target size;
the targets travel alongside it.
"""

from __future__ import annotations

from typing import Iterator

from .graph import (
    Graph,
    InputError,
    bfs_prefix,
    check_vertex_set,
    components_mask,
    is_connected_safe_set,
    is_safe_set,
    mask_of,
    neighborhood_mask,
    precedes,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component


def _union(sets: tuple[int, ...]) -> int:
    out = 0
    for s in sets:
        out |= s
    return out


def steiner_exact(
    g: Graph, terminals, forbidden=frozenset()
) -> frozenset[int] | None:
    """Minimum-cardinality connected superset of the terminals avoiding the
    forbidden vertices, by dynamic programming over terminal subsets.

    Every choice between sets is ranked by ``precedes``, and the result is
    the least minimum set under it.  Returns None when the terminals
    cannot be connected without forbidden vertices.
    """
    terminals = check_vertex_set(g, terminals, "terminals")
    forbidden = check_vertex_set(g, forbidden, "forbidden set")
    if not terminals:
        raise InputError("terminals must be nonempty")
    if terminals & forbidden:
        raise InputError("terminals and forbidden set overlap")
    root, *terms = sorted(terminals)
    if not terms:
        return frozenset({root})
    allowed = g.full_mask() & ~mask_of(forbidden)

    # dp[mask][v]: the least minimum connected set holding v and the
    # terminals {terms[i] : i in mask}.  It is v grown onto a neighbour's
    # entry or, where v is a terminal or cuts it, the union of two entries
    # of smaller masks at v, so no growth order changes it; the answer is
    # the root's entry in the full table.
    full = (1 << len(terms)) - 1
    dp: list[dict[int, int]] = [dict() for _ in range(full + 1)]
    for i, ti in enumerate(terms):
        dp[1 << i] = {ti: 1 << ti}

    def relax(table: dict[int, int]) -> None:
        """Grow every entry one allowed neighbour at a time, size by size: a
        step adds one vertex, so once every entry of size s has grown, each
        entry of size s + 1 is final."""
        size, top = 1, max(map(int.bit_count, table.values()), default=0)
        while size <= top:
            for v, cur in list(table.items()):
                if cur.bit_count() == size:
                    for w in vertices_of(g.adjacency_mask(v) & allowed & ~cur):
                        cand = cur | 1 << w
                        old = table.get(w)
                        if old is None or precedes(cand, old):
                            table[w] = cand
                            top = max(top, size + 1)
            size += 1

    for mask in range(1, full + 1):
        low = mask & -mask
        table = dp[mask]
        sub = (mask - 1) & mask  # 0 for a single terminal: nothing to merge
        while sub:
            if sub & low:
                rest = dp[mask ^ sub]
                for v, a in dp[sub].items():
                    b = rest.get(v)
                    if b is None:
                        continue
                    cand = a | b
                    old = table.get(v)
                    if old is None or precedes(cand, old):
                        table[v] = cand
            sub = (sub - 1) & mask
        relax(table)

    best = dp[full].get(root)
    return None if best is None else frozenset(vertices_of(best))


def find_problematic(
    g: Graph, sets: tuple[int, ...], targets: tuple[int, ...], k: int
) -> tuple[int, int] | None:
    """Smallest-id vertex outside the partial solution whose component in
    the leftover graph is larger than a size the guess allows, together
    with the tightest violated threshold.

    Each leftover component is decided as a whole: one with more than k
    vertices offers its lowest vertex, a smaller one the vertices it has
    next to a set whose target is below the component's size.  The
    threshold is the smallest of k and the targets of the sets next to the
    vertex; one at or above the component's size is never the smallest,
    since the vertex is a candidate only when k or a target is below it.
    """
    nbrs = [neighborhood_mask(g, s_i) for s_i in sets]
    lowest = 0  # the lowest candidate bit of each component
    for comp in components_mask(g, g.full_mask() & ~_union(sets)):
        size = comp.bit_count()
        if size <= k:
            comp &= _union(tuple(nbr for nbr, k_i in zip(nbrs, targets) if size > k_i))
        lowest |= comp & -comp
    if not lowest:
        return None
    low = lowest & -lowest
    return low.bit_length() - 1, min([k] + [k_i for nbr, k_i in zip(nbrs, targets) if nbr & low])


def _complete_leaf(
    g: Graph, sets: tuple[int, ...], targets: tuple[int, ...], connected: bool
) -> int | None:
    """Steiner-complete every partial component, pad to the exact targets,
    and accept only verifier-approved solutions, as a vertex mask."""
    if not all(sets):
        return None
    union = _union(sets)
    primes: list[int] = []
    for s_i, k_i in zip(sets, targets):
        tree = steiner_exact(g, vertices_of(s_i), vertices_of(union & ~s_i))
        if tree is None or len(tree) > k_i:
            return None
        primes.append(mask_of(tree))
    for i, k_i in enumerate(targets):
        while primes[i].bit_count() < k_i:
            others = _union(primes[:i] + primes[i + 1 :])
            frontier = neighborhood_mask(g, primes[i]) & ~primes[i] & ~others
            if not frontier:
                return None
            primes[i] |= frontier & -frontier
    solution = _union(primes)
    verify = is_connected_safe_set if connected else is_safe_set
    return solution if verify(g, vertices_of(solution)) else None


def _partitions(s: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of s, parts non-increasing, largest part first."""
    if cap is None:
        cap = s
    if s == 0:
        yield ()
        return
    for first in range(min(s, cap), 0, -1):
        for rest in _partitions(s - first, first):
            yield (first,) + rest


def _search(
    g: Graph, sets: tuple[int, ...], targets: tuple[int, ...], connected: bool, failed: set
) -> int | None:
    """First solution under the state ``sets`` in depth-first order, or None.

    The outcome depends on ``g``, ``connected``, the targets and the sets
    alone, and the targets are those of the search's root, so a state
    recorded in ``failed`` fails again and is skipped; skipping it keeps the
    order in which the remaining states are searched, and with it the
    witness.
    """
    if sets in failed:
        return None
    prob = find_problematic(g, sets, targets, sum(targets))
    if prob is None:
        got = _complete_leaf(g, sets, targets, connected)
        if got is not None:
            return got
    else:
        u, m = prob
        for w in bfs_prefix(g, u, g.full_mask() & ~_union(sets), m + 1)[0]:
            for i, s_i in enumerate(sets):
                if s_i.bit_count() >= targets[i]:
                    continue
                placed = sets[:i] + (s_i | 1 << w,) + sets[i + 1 :]
                got = _search(g, placed, targets, connected, failed)
                if got is not None:
                    return got
    failed.add(sets)
    return None


def _solve_component(g: Graph, k: int, connected: bool) -> int | None:
    for s in range(1, min(k, g.n) + 1):
        if s == g.n:
            return g.full_mask()
        shapes = [(s,)] if connected else list(_partitions(s))
        for shape in shapes:
            # failed states of this g and these targets only
            got = _search(g, (0,) * len(shape), shape, connected, set())
            if got is not None:
                return got
    return None


def branch_solve(g: Graph, k: int, connected: bool = False) -> SolveResult:
    """Exact minimum safe set of size at most k via shape-guessing search.

    Disconnected inputs are solved per component and the best component
    result is returned.  Every returned witness is verifier-checked.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    return solve_by_component(
        g, lambda sub, bound: _solve_component(sub, bound, connected), "branch", connected, k
    )
