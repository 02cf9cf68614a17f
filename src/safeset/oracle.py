"""Brute-force minimum (connected) safe set and dominating set, and the
verified per-component pipeline (``solve_by_component``) that every graph
solver runs on.

The brute-force solvers are deliberately exhaustive: every other solver in
the package is cross-checked against them on small instances.  Subsets are
scanned by cardinality and, within a cardinality, in the order of their
sorted vertex tuples, so the first hit is the least set by (size, sorted
ids) (``graph.precedes``): the same answer cw gives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, Mapping

from .graph import (
    Graph,
    InputError,
    components_mask,
    explain_safety,
    induced_subgraph,
    is_connected_safe_mask,
    is_safe_mask,
    mask_of,
    precedes,
    vertices_of,
)

DEFAULT_SUBSET_CAP = 20


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    When ``feasible`` is true, ``witness`` verifies against the problem's
    verifier and has exactly ``size`` vertices (see ``verified_result``).
    ``stats`` holds the work counts a route reports about itself, read-only
    and left out of equality and hashing; routes that count nothing leave
    it empty.
    """

    feasible: bool
    size: int | None
    witness: frozenset[int] | None
    algorithm: str
    elapsed: float
    stats: Mapping[str, int] = field(default_factory=lambda: MappingProxyType({}), compare=False)


class WitnessError(RuntimeError):
    """A solver reported a witness that the verifier rejects."""


def verified_result(
    g: Graph,
    witness,
    algorithm: str,
    connected: bool,
    t0: float,
    stats: Mapping[str, int] | None = None,
) -> SolveResult:
    """Verify ``witness`` (None: nothing found) and build the result timed
    from ``t0``, carrying a read-only copy of ``stats``.  A rejected witness
    raises ``WitnessError``, an explicit check that ``python -O`` keeps."""
    stats = MappingProxyType(dict(stats or {}))
    if witness is None:
        return SolveResult(False, None, None, algorithm, time.perf_counter() - t0, stats)
    witness = frozenset(witness)
    violation = explain_safety(g, witness, connected)
    if violation is not None:
        raise WitnessError(f"{algorithm} reported {sorted(witness)}: {violation.describe()}")
    return SolveResult(True, len(witness), witness, algorithm, time.perf_counter() - t0, stats)


def solve_by_component(
    g: Graph, solve, algorithm: str, connected: bool, limit: int | None = None
) -> SolveResult:
    """Best (connected) safe set of ``g``, solved one component at a time.

    A minimum safe set never straddles components: restricting a safe set
    to one component keeps it safe, and sizes add up.  ``solve(sub, bound)``
    returns a witness as a vertex mask in the ids of a component's induced
    subgraph (``g`` itself when connected), or None; ``bound`` = min(sub.n,
    limit, best size so far) is the largest size still worth finding, and a
    larger witness is ignored.  Witnesses are mapped back to ``g``'s ids,
    the least by ``precedes`` wins, and the winner is verified.  Components
    come in ascending order of their least vertex, so once the best is one
    vertex below the next component's least vertex, no later witness can
    precede it and the loop stops.
    """
    t0 = time.perf_counter()
    best: int | None = None
    full = g.full_mask()
    for comp in components_mask(g, full):
        if best is not None and best.bit_count() == 1 and best < comp & -comp:
            break
        sub, ids = (g, range(g.n)) if comp == full else induced_subgraph(g, vertices_of(comp))
        bound = sub.n if limit is None else min(sub.n, limit)
        if best is not None:
            bound = min(bound, best.bit_count())
        got = solve(sub, bound)
        if got is not None and got.bit_count() <= bound:
            wmask = mask_of(ids[v] for v in vertices_of(got))
            if best is None or precedes(wmask, best):
                best = wmask
    return verified_result(g, None if best is None else vertices_of(best), algorithm, connected, t0)


def subset_masks_by_size(n: int, lo: int = 1, hi: int | None = None) -> Iterator[int]:
    """All subset masks of [0, n) with ``lo`` to ``hi`` members, by size,
    and within one size in the order of their sorted vertex tuples."""
    bits = [1 << v for v in range(n)]
    for k in range(lo, min(n if hi is None else hi, n) + 1):
        yield from map(sum, combinations(bits, k))


def check_cap(count: int, cap: int, what: str, name: str) -> None:
    """Refuse an exhaustive scan over more than ``cap`` items (``name``)."""
    if count > cap:
        raise InputError(
            f"{what} refused: {name}={count} exceeds cap={cap}; raise the cap explicitly"
        )


def least_hitting_set(rows: list[int], width: int, k: int) -> frozenset[int] | None:
    """The least subset of [0, width) by (size, sorted ids) with at most
    ``k`` members that meets every row mask, or None.  The empty set meets
    every row only when there is none."""
    for mask in subset_masks_by_size(width, 0 if not rows else 1, k):
        if all(row & mask for row in rows):
            return frozenset(vertices_of(mask))
    return None


def _first_safe(connected: bool):
    """Component solver returning the first safe set of the scan, the least
    one by (size, sorted ids), as a vertex mask."""

    verify = is_connected_safe_mask if connected else is_safe_mask

    def solve(sub: Graph, bound: int) -> int | None:
        for mask in subset_masks_by_size(sub.n, 1, bound):
            if verify(sub, mask):
                return mask
        return None

    return solve


def safe_number_bf(
    g: Graph, cap: int = DEFAULT_SUBSET_CAP, max_size: int | None = None
) -> SolveResult:
    """Exhaustive minimum safe set.

    With ``max_size`` set, only sets of at most that many vertices are
    scanned; an infeasible result then means none of them is safe.
    """
    check_cap(g.n, cap, "safe set brute force", "n")
    return solve_by_component(g, _first_safe(False), "oracle", False, max_size)


def connected_safe_number_bf(
    g: Graph, cap: int = DEFAULT_SUBSET_CAP, max_size: int | None = None
) -> SolveResult:
    """Exhaustive minimum connected safe set."""
    check_cap(g.n, cap, "connected safe set brute force", "n")
    return solve_by_component(g, _first_safe(True), "oracle", True, max_size)


def dominating_set_bf(
    g: Graph, k: int, cap: int = DEFAULT_SUBSET_CAP
) -> frozenset[int] | None:
    """The least dominating set by (size, sorted ids) if one of size <= k
    exists, else None."""
    check_cap(g.n, cap, "dominating set brute force", "n")
    if k < 0:
        raise InputError("k must be nonnegative")
    return least_hitting_set([g.adjacency_mask(v) | 1 << v for v in g.vertices()], g.n, k)
