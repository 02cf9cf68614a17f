#!/usr/bin/env python3
"""Table counts, memory peak and time of the tree solver as trees grow.

Two families of construction trees, each solved in plain and connected
mode: the n-cycle's four-label tree for n = 6 … 14, and seeded random
three-label trees with n = 6 … 14 leaves, ten per n.  For each row it
prints the counts ``solve_cw`` reports in its result's ``stats`` (the cap
on selection sizes, the number of tables, their summed entries and the
largest one), the tracemalloc peak of the solve and its time, best of 3,
with the growth of the sum and the peak against the row for n - 2:

    python3 scripts/cw_tables.py

A random row adds up the ten trees' tables and times, and takes the
largest cap, table and peak.  Counts depend only on the tree; the peak
depends on the interpreter and the time on the machine.  Each tree is
measured in a fresh process, so its peak does not depend on the memory
earlier trees left in the interpreter's free lists.
"""

import multiprocessing
import random
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

from safeset.cexpr import (
    CExpression,
    DisjointUnion,
    Join,
    Leaf,
    Relabel,
    cycle_expression,
    eval_graph,
)
from safeset.cw import solve_cw
from safeset.graph import components_mask

SIZES = range(6, 15)
TREE_SEEDS = range(10)
HEADER = (
    "tree", "n", "mode", "cap", "tables", "entries_sum", "entries_max", "peak_mb", "solve_ms",
    "sum_x", "peak_x",
)


def random_tree(rng: random.Random, leaves: int, labels: int = 3) -> CExpression:
    """A random irredundant tree of a connected graph: subtrees merge two at
    a time, and each union takes one to three relabels or joins, a join only
    where none of the edges it adds exists yet."""
    while True:
        pool = []
        for _ in range(leaves):
            label = rng.randint(1, labels)
            pool.append((Leaf(label), [label], set()))
        while len(pool) > 1:
            (left, llabs, ledges), (right, rlabs, redges) = (
                pool.pop(rng.randrange(len(pool))) for _ in range(2)
            )
            node, labs = DisjointUnion(left, right), llabs + rlabs
            edges = ledges | {(u + len(llabs), v + len(llabs)) for u, v in redges}
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(1, labels + 1), 2)
                if rng.random() < 0.3:
                    node, labs = Relabel(a, b, node), [b if x == a else x for x in labs]
                    continue
                fresh = {
                    (min(u, v), max(u, v))
                    for u, x in enumerate(labs) if x == a
                    for v, y in enumerate(labs) if y == b
                }
                if fresh and not fresh & edges:
                    node, edges = Join(a, b, node), edges | fresh
            pool.append((node, labs, edges))
        expr = CExpression(pool[0][0], labels)
        g, _ = eval_graph(expr)
        if len(components_mask(g, g.full_mask())) == 1:
            return expr


def expression(n: int, seed: int | None = None) -> CExpression:
    """The n-cycle's tree, or with ``seed`` the random tree of n leaves."""
    return cycle_expression(n) if seed is None else random_tree(random.Random(seed), n)


def measure(n: int, connected: bool, seed: int | None = None) -> tuple[dict, float]:
    """``solve_cw``'s stats on ``expression(n, seed)`` and its peak in MB."""
    expr = expression(n, seed)
    tracemalloc.start()
    try:
        stats = solve_cw(expr, connected).stats
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dict(stats), peak / 1e6


def solve_seconds(n: int, connected: bool, seed: int | None = None) -> float:
    """The best of 3 wall times of ``solve_cw`` on ``expression(n, seed)``."""
    expr = expression(n, seed)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        solve_cw(expr, connected)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_alone(n: int, connected: bool, seed: int | None = None) -> tuple[dict, float, float]:
    """``measure`` in a process of its own, then ``solve_seconds`` there."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        stats, peak = pool.submit(measure, n, connected, seed).result()
        return stats, peak, pool.submit(solve_seconds, n, connected, seed).result()


def row(n: int, connected: bool, seeds) -> tuple[dict, float, float]:
    """One row: the cycle's tree when ``seeds`` is None, else the random
    trees of those seeds, their counts and times added up."""
    if seeds is None:
        return measure_alone(n, connected)
    runs = [measure_alone(n, connected, seed) for seed in seeds]
    stats = {
        "cap": max(s["cap"] for s, _, _ in runs),
        "tables": sum(s["tables"] for s, _, _ in runs),
        "table_entries_sum": sum(s["table_entries_sum"] for s, _, _ in runs),
        "table_entries_max": max(s["table_entries_max"] for s, _, _ in runs),
    }
    return stats, max(peak for _, peak, _ in runs), sum(t for _, _, t in runs)


def main() -> int:
    print("\t".join(HEADER))
    for tree, seeds in (("cycle", None), ("random", TREE_SEEDS)):
        for connected in (False, True):
            rows: dict[int, tuple[dict, float, float]] = {}
            for n in SIZES:
                stats, peak, seconds = rows[n] = row(n, connected, seeds)
                growth = ["", ""]
                if n - 2 in rows:
                    before, peak_before, _ = rows[n - 2]
                    growth = [
                        f"{stats['table_entries_sum'] / before['table_entries_sum']:.2f}",
                        f"{peak / peak_before:.2f}",
                    ]
                cells = [tree, n, "connected" if connected else "plain", stats["cap"]]
                cells += [stats["tables"], stats["table_entries_sum"], stats["table_entries_max"]]
                cells += [f"{peak:.2f}", f"{seconds * 1000:.1f}"]
                print("\t".join(map(str, cells + growth)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
