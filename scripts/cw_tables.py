#!/usr/bin/env python3
"""Table counts and memory peak of the tree solver on cycles of growing length.

For each n-cycle's four-label construction tree, in plain and connected
mode, prints the counts ``solve_cw`` reports in its result's ``stats`` (the
cap on selection sizes, the number of tables, their summed entries and the
largest one) and the tracemalloc peak of the solve, with the growth of the
sum and the peak against the row for n - 2:

    python3 scripts/cw_tables.py

Counts depend only on the tree; the peak depends on the interpreter.  Each
row is measured in a fresh process, so its peak does not depend on the
memory earlier rows left in the interpreter's free lists.
"""

import multiprocessing
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

from safeset.cexpr import cycle_expression
from safeset.cw import solve_cw

CYCLES = range(6, 15)
HEADER = ("n", "mode", "cap", "tables", "entries_sum", "entries_max", "peak_mb", "sum_x", "peak_x")


def measure(n: int, connected: bool) -> tuple[dict, float]:
    """``solve_cw``'s stats on the n-cycle's tree and its peak in MB."""
    expr = cycle_expression(n)
    tracemalloc.start()
    try:
        stats = solve_cw(expr, connected).stats
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dict(stats), peak / 1e6


def measure_alone(n: int, connected: bool) -> tuple[dict, float]:
    """``measure`` in a process of its own."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(measure, n, connected).result()


def main() -> int:
    print("\t".join(HEADER))
    for connected in (False, True):
        rows: dict[int, tuple[dict, float]] = {}
        for n in CYCLES:
            stats, peak = rows[n] = measure_alone(n, connected)
            growth = ["", ""]
            if n - 2 in rows:
                before, peak_before = rows[n - 2]
                growth = [
                    f"{stats['table_entries_sum'] / before['table_entries_sum']:.2f}",
                    f"{peak / peak_before:.2f}",
                ]
            cells = [n, "connected" if connected else "plain", stats["cap"], stats["tables"]]
            cells += [stats["table_entries_sum"], stats["table_entries_max"], f"{peak:.2f}"]
            print("\t".join(map(str, cells + growth)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
