"""Independent answer checks for the benchmark.

Nothing here imports ``safeset``: graphs are read from the files the
program reads, and safety is decided with plain sets (after the model in
``tests/reference.py``).  The brute-force optimum uses integer masks for
speed but its own component routine, so a bug in ``safeset.graph`` cannot
hide itself.
"""

from __future__ import annotations

import itertools
import time


def parse_graph_text(text: str) -> list[set[int]]:
    """Adjacency sets from the ``n m`` + edge-lines format."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) != m + 1:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in ((int(a), int(b)) for a, b in rows[1:]):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(adj: list[set[int]], within: set[int]) -> list[set[int]]:
    left = set(within)
    comps = []
    while left:
        start = left.pop()
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def is_safe(adj: list[set[int]], s, connected: bool = False) -> bool:
    s = set(s)
    if not s or not all(0 <= v < len(adj) for v in s):
        return False
    inside = components(adj, s)
    if connected and len(inside) != 1:
        return False
    rest = components(adj, set(range(len(adj))) - s)
    owner = {v: i for i, comp in enumerate(rest) for v in comp}
    for comp in inside:
        touched = {owner[w] for v in comp for w in adj[v] if w in owner}
        if any(len(rest[i]) > len(comp) for i in touched):
            return False
    return True


def _mask_components(nbr: list[int], mask: int) -> list[int]:
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            new = nbr[v] & mask & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        mask &= ~comp
    return out


def _mask_safe(nbr: list[int], full: int, smask: int, connected: bool) -> bool:
    inside = _mask_components(nbr, smask)
    if connected and len(inside) != 1:
        return False
    rest = _mask_components(nbr, full & ~smask)
    for comp in inside:
        size = comp.bit_count()
        reach = 0
        c = comp
        while c:
            v = c.bit_length() - 1
            c ^= 1 << v
            reach |= nbr[v]
        if any(reach & d and d.bit_count() > size for d in rest):
            return False
    return True


def min_safe_size(adj: list[set[int]], connected: bool = False) -> int:
    """Size of a minimum (connected) safe set, by scanning subsets by size."""
    n = len(adj)
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    for size in range(1, n + 1):
        for combo in itertools.combinations(bits, size):
            if _mask_safe(nbr, full, sum(combo), connected):
                return size
    raise AssertionError("the whole vertex set of a nonempty graph is safe")


class Reference:
    """Memoised optimum sizes plus the time spent computing them, so the
    caller can keep reference work out of its set-up time."""

    def __init__(self):
        self.seconds = 0.0
        self._memo: dict[tuple, int] = {}

    def min_safe_size(self, adj: list[set[int]], connected: bool = False) -> int:
        key = (connected, tuple(frozenset(a) for a in adj))
        if key not in self._memo:
            t0 = time.perf_counter()
            self._memo[key] = min_safe_size(adj, connected)
            self.seconds += time.perf_counter() - t0
        return self._memo[key]


def domination_number(adj: list[set[int]]) -> int:
    n = len(adj)
    closed = [adj[v] | {v} for v in range(n)]
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if set().union(*(closed[v] for v in combo)) == set(range(n)):
                return size
    raise AssertionError("unreachable")


def red_blue_domination_number(reds: list[set[int]], blues: int) -> int | None:
    """Fewest blue vertices meeting every red neighbourhood, None if impossible."""
    for size in range(1, blues + 1):
        for combo in itertools.combinations(range(blues), size):
            if all(r & set(combo) for r in reds):
                return size
    return None


def path_decomposition_width(adj: list[set[int]], bags: list[list[int]]) -> int | None:
    """Largest bag size when ``bags`` is a path decomposition, else None."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    count: dict[int, int] = {}
    for i, bag in enumerate(bags):
        for v in set(bag):
            first.setdefault(v, i)
            last[v] = i
            count[v] = count.get(v, 0) + 1
    if set(first) != set(range(len(adj))):
        return None
    if any(last[v] - first[v] + 1 != count[v] for v in first):
        return None
    for u in range(len(adj)):
        for v in adj[u]:
            if max(first[u], first[v]) > min(last[u], last[v]):
                return None
    return max((len(set(b)) for b in bags), default=0)
