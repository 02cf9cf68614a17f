"""Exact solver that guesses the component sizes of a solution, branches on
vertices that would break the guess, and completes each partial component
with a minimum Steiner tree.

The search enumerates total sizes s = 1..k in increasing order, so the
first verified hit is a minimum.  For the connected variant the component
count is fixed to one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .graph import (
    Graph,
    InputError,
    bfs_order,
    check_vertex_set,
    components,
    is_connected_safe_set,
    is_safe_set,
    mask_of,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component


@dataclass(frozen=True)
class BranchState:
    """Partial solution: one vertex set per guessed component, with the
    target size of each.  Sets stay pairwise disjoint and within target."""

    sets: tuple[frozenset[int], ...]
    targets: tuple[int, ...]

    def union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for s in self.sets:
            out |= s
        return out

    def place(self, w: int, i: int) -> "BranchState":
        new_sets = tuple(
            s | {w} if j == i else s for j, s in enumerate(self.sets)
        )
        return BranchState(new_sets, self.targets)


def _shortest_path_sets(g: Graph, allowed: frozenset[int]) -> dict[int, dict[int, frozenset[int]]]:
    """Canonical shortest-path vertex sets inside g[allowed], per source.

    The parent of each vertex is its smallest-id neighbor one layer closer
    to the source, so path sets are deterministic and minimum-length.
    """
    out: dict[int, dict[int, frozenset[int]]] = {}
    amask = mask_of(allowed)
    for src in sorted(allowed):
        dist: dict[int, int] = {src: 0}
        for v in bfs_order(g, src, amask):
            for w in sorted(g.neighbors(v)):
                if w not in dist and (amask >> w) & 1:
                    dist[w] = dist[v] + 1
        parent: dict[int, int | None] = {src: None}
        for v in dist:
            if v != src:
                parent[v] = min(
                    u for u in g.neighbors(v) if dist.get(u) == dist[v] - 1
                )
        paths: dict[int, frozenset[int]] = {}
        for v in dist:
            chain = []
            cur: int | None = v
            while cur is not None:
                chain.append(cur)
                cur = parent[cur]
            paths[v] = frozenset(chain)
        out[src] = paths
    return out


def _set_key(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def steiner_exact(
    g: Graph, terminals, forbidden=frozenset()
) -> frozenset[int] | None:
    """Minimum-cardinality connected superset of the terminals avoiding the
    forbidden vertices, by dynamic programming over terminal subsets.

    Ties break toward the lexicographically smallest sorted vertex tuple,
    so results are deterministic.  Returns None when the terminals cannot
    be connected without forbidden vertices.
    """
    terminals = check_vertex_set(g, terminals, "terminals")
    forbidden = check_vertex_set(g, forbidden, "forbidden set")
    if not terminals:
        raise InputError("terminals must be nonempty")
    if terminals & forbidden:
        raise InputError("terminals and forbidden set overlap")
    allowed = frozenset(g.vertices()) - forbidden
    terms = sorted(terminals)
    t = len(terms)
    if t == 1:
        return frozenset({terms[0]})
    paths = _shortest_path_sets(g, allowed)

    # dp[mask][v]: best connected set containing {terms[i] : i in mask} + v
    full = (1 << t) - 1
    dp: list[dict[int, frozenset[int]]] = [dict() for _ in range(full + 1)]
    for i, ti in enumerate(terms):
        dp[1 << i] = dict(paths[ti])

    def relax(table: dict[int, frozenset[int]]) -> None:
        """Dijkstra-style closure: extend entries along shortest paths."""
        heap = [(_set_key(s), v) for v, s in table.items()]
        heapq.heapify(heap)
        while heap:
            key, v = heapq.heappop(heap)
            cur = table.get(v)
            if cur is None or _set_key(cur) != key:
                continue
            for w, pset in paths[v].items():
                cand = cur | pset
                old = table.get(w)
                if old is None or _set_key(cand) < _set_key(old):
                    table[w] = cand
                    heapq.heappush(heap, (_set_key(cand), w))

    for mask in range(1, full + 1):
        if mask.bit_count() < 2:
            continue
        low = mask & -mask
        table = dp[mask]
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                for v, a in dp[sub].items():
                    b = dp[rest].get(v)
                    if b is None:
                        continue
                    cand = a | b
                    old = table.get(v)
                    if old is None or _set_key(cand) < _set_key(old):
                        table[v] = cand
            sub = (sub - 1) & mask
        relax(table)

    best: frozenset[int] | None = None
    for s in dp[full].values():
        if best is None or _set_key(s) < _set_key(best):
            best = s
    return best


def find_problematic(g: Graph, state: BranchState, k: int) -> tuple[int, int] | None:
    """Smallest-id vertex outside the partial solution whose component in
    the leftover graph is larger than a size the guess allows, together
    with the tightest violated threshold."""
    s_union = state.union()
    comp_size: dict[int, int] = {}
    for comp in components(g, set(g.vertices()) - s_union):
        for v in comp:
            comp_size[v] = len(comp)
    for u in g.vertices():
        if u in s_union:
            continue
        size = comp_size[u]
        thresholds = []
        if size >= k + 1:
            thresholds.append(k)
        for s_i, k_i in zip(state.sets, state.targets):
            if (g.neighbors(u) & s_i) and size >= k_i + 1:
                thresholds.append(k_i)
        if thresholds:
            return u, min(thresholds)
    return None


def _expand_ordered(g: Graph, u: int, m: int, s_union: frozenset[int]) -> list[int]:
    rest = mask_of(set(g.vertices()) - s_union)
    out: list[int] = []
    for v in bfs_order(g, u, rest):
        out.append(v)
        if len(out) == m + 1:
            break
    return out


def expand_set(g: Graph, u: int, m: int, s_union) -> frozenset[int]:
    """Connected set of m+1 vertices around a problematic vertex, grown by
    breadth-first search outside the current partial solution."""
    return frozenset(_expand_ordered(g, u, m, frozenset(s_union)))


def _complete_leaf(
    g: Graph, state: BranchState, connected: bool
) -> frozenset[int] | None:
    """Steiner-complete every partial component, pad to the exact targets,
    and accept only verifier-approved solutions."""
    if any(not s for s in state.sets):
        return None
    primes: list[set[int]] = []
    for i, (s_i, k_i) in enumerate(zip(state.sets, state.targets)):
        forb = frozenset().union(*(s for j, s in enumerate(state.sets) if j != i))
        tree = steiner_exact(g, s_i, forb)
        if tree is None or len(tree) > k_i:
            return None
        primes.append(set(tree))
    for i, k_i in enumerate(state.targets):
        while len(primes[i]) < k_i:
            others: set[int] = set()
            for j, p in enumerate(primes):
                if j != i:
                    others |= p
            frontier = sorted(
                w
                for v in primes[i]
                for w in g.neighbors(v)
                if w not in primes[i] and w not in others
            )
            if not frontier:
                return None
            primes[i].add(frontier[0])
    solution = frozenset().union(*primes)
    ok = (
        is_connected_safe_set(g, solution)
        if connected
        else is_safe_set(g, solution)
    )
    return solution if ok else None


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
    g: Graph, state: BranchState, total: int, connected: bool, failed: set
) -> frozenset[int] | None:
    """First solution under ``state`` in depth-first order, or None.

    The outcome depends on ``g``, ``connected`` and the state's targets and
    sets alone (``total`` is the sum of the targets), and the targets are
    those of the search's root, so a state whose sets are recorded in
    ``failed`` fails again and is skipped; skipping it keeps the order in
    which the remaining states are searched, and with it the witness.
    A state is recorded as one int holding the mask of each set in turn.
    """
    key = 0
    for s in state.sets:
        key = key << g.n | mask_of(s)
    if key in failed:
        return None
    prob = find_problematic(g, state, total)
    if prob is None:
        got = _complete_leaf(g, state, connected)
        if got is not None:
            return got
    else:
        u, m = prob
        for w in _expand_ordered(g, u, m, state.union()):
            for i in range(len(state.sets)):
                if len(state.sets[i]) + 1 > state.targets[i]:
                    continue
                got = _search(g, state.place(w, i), total, connected, failed)
                if got is not None:
                    return got
    failed.add(key)
    return None


def _solve_component(g: Graph, k: int, connected: bool) -> frozenset[int] | None:
    for s in range(1, min(k, g.n) + 1):
        if s == g.n:
            return frozenset(g.vertices())
        shapes = [(s,)] if connected else list(_partitions(s))
        for shape in shapes:
            state = BranchState(tuple(frozenset() for _ in shape), shape)
            # failed states of this g and these targets only
            got = _search(g, state, s, connected, set())
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
