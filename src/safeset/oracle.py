"""Brute-force minimum (connected) safe set and dominating set, and the
verified per-component pipeline (``solve_by_component``) that every graph
solver runs on.

The brute-force solvers are deliberately exhaustive: every other solver in
the package is cross-checked against them on small instances.  Subsets are
scanned by cardinality and, within a cardinality, by increasing bitmask
value, so the reported witness is always the same set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

from .graph import (
    Graph,
    InputError,
    components_mask,
    explain_safety,
    induced_subgraph,
    is_connected_safe_mask,
    is_safe_mask,
    mask_of,
    vertices_of,
)

DEFAULT_SUBSET_CAP = 20


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    When ``feasible`` is true, ``witness`` verifies against the problem's
    verifier and has exactly ``size`` vertices (see ``verified_result``).
    """

    feasible: bool
    size: int | None
    witness: frozenset[int] | None
    algorithm: str
    elapsed: float


class WitnessError(RuntimeError):
    """A solver reported a witness that the verifier rejects."""


def verified_result(g: Graph, witness, algorithm: str, connected: bool, t0: float) -> SolveResult:
    """Verify ``witness`` (None: nothing found) and build the result timed
    from ``t0``.  A rejected witness raises ``WitnessError``, an explicit
    check that ``python -O`` keeps."""
    if witness is None:
        return SolveResult(False, None, None, algorithm, time.perf_counter() - t0)
    witness = frozenset(witness)
    violation = explain_safety(g, witness, connected)
    if violation is not None:
        raise WitnessError(f"{algorithm} reported {sorted(witness)}: {violation.describe()}")
    return SolveResult(True, len(witness), witness, algorithm, time.perf_counter() - t0)


def solve_by_component(
    g: Graph, solve, algorithm: str, connected: bool, limit: int | None = None, order=sorted
) -> SolveResult:
    """Best (connected) safe set of ``g``, solved one component at a time.

    A minimum safe set never straddles components: restricting a safe set
    to one component keeps it safe, and sizes add up.  ``solve(sub, bound)``
    returns a witness in the ids of a component's induced subgraph (``g``
    itself when connected), or None; ``bound`` = min(sub.n, limit, best
    size so far) is the largest size still worth finding, and a larger
    witness is ignored.  Witnesses are mapped back to ``g``'s ids, ranked
    by (size, order(witness)), and the winner is verified.
    """
    t0 = time.perf_counter()
    best: tuple[int, Any, frozenset[int]] | None = None
    full = g.full_mask()
    for comp in components_mask(g, full):
        sub, ids = (g, range(g.n)) if comp == full else induced_subgraph(g, vertices_of(comp))
        bound = sub.n if limit is None else min(sub.n, limit)
        if best is not None:
            bound = min(bound, best[0])
        got = solve(sub, bound)
        if got is not None and len(got) <= bound:
            witness = frozenset(ids[v] for v in got)
            cand = (len(witness), order(witness), witness)
            if best is None or cand[:2] < best[:2]:
                best = cand
    return verified_result(g, None if best is None else best[2], algorithm, connected, t0)


def subset_masks_by_size(n: int, lo: int = 1, hi: int | None = None) -> Iterator[int]:
    """All subset masks of [0, n), by popcount then by numeric mask value."""
    if hi is None:
        hi = n
    for k in range(lo, hi + 1):
        if k == 0:
            yield 0
            continue
        if k > n:
            return
        m = (1 << k) - 1
        top = 1 << n
        while m < top:
            yield m
            # Gosper's hack: next mask with the same popcount.
            c = m & -m
            r = m + c
            m = (((r ^ m) >> 2) // c) | r


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise InputError(
            f"{what} refused: n={g.n} exceeds cap={cap}; raise the cap explicitly"
        )


def _first_safe(connected: bool):
    """Component solver scanning subsets in mask order, so the oracle's ties
    break on the mask, which the sorted-id mapping preserves."""

    verify = is_connected_safe_mask if connected else is_safe_mask

    def solve(sub: Graph, bound: int) -> list[int] | None:
        for mask in subset_masks_by_size(sub.n, 1, bound):
            if verify(sub, mask):
                return vertices_of(mask)
        return None

    return solve


def safe_number_bf(
    g: Graph, cap: int = DEFAULT_SUBSET_CAP, max_size: int | None = None
) -> SolveResult:
    """Exhaustive minimum safe set.

    With ``max_size`` set, only sets of at most that many vertices are
    scanned; an infeasible result then means none of them is safe.
    """
    _check_cap(g, cap, "safe set brute force")
    return solve_by_component(g, _first_safe(False), "oracle", False, max_size, mask_of)


def connected_safe_number_bf(
    g: Graph, cap: int = DEFAULT_SUBSET_CAP, max_size: int | None = None
) -> SolveResult:
    """Exhaustive minimum connected safe set."""
    _check_cap(g, cap, "connected safe set brute force")
    return solve_by_component(g, _first_safe(True), "oracle", True, max_size, mask_of)


def dominating_set_bf(
    g: Graph, k: int, cap: int = DEFAULT_SUBSET_CAP
) -> frozenset[int] | None:
    """Smallest dominating set if one of size <= k exists, else None."""
    _check_cap(g, cap, "dominating set brute force")
    if k < 0:
        raise InputError("k must be nonnegative")
    full = g.full_mask()
    closed = [g.adjacency_mask(v) | 1 << v for v in g.vertices()]
    for mask in subset_masks_by_size(g.n, 0, min(k, g.n)):
        dominated = 0
        m = mask
        while m:
            b = m & -m
            dominated |= closed[b.bit_length() - 1]
            m ^= b
        if dominated == full:
            return frozenset(vertices_of(mask))
    return None
