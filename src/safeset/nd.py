"""Exact solver driven by the twin structure of the graph.

Vertices with identical neighborhoods (up to each other) form classes; a
solution is determined, up to verifier-equivalent swaps, by how many
vertices it takes from each class.  The solver enumerates, per class,
whether the solution avoids it, meets it partially, or swallows it whole,
then finds the smallest per-class counts that keep the guess safe.

Whether a count vector works depends only on the counts, since twins are
interchangeable, so the verifier decides it on one concrete set: the first
vertices of each class in sorted order.  Raising a count never turns an
accepted set into a rejected one (in connected mode once a lone independent
solution class is capped at one vertex), so a guess is feasible exactly
when its counts all at their upper bounds are accepted, and a depth-first
count search finds the optimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Literal, NamedTuple

from .graph import (
    Graph,
    is_connected_safe_mask,
    is_safe_mask,
    mask_of,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component

EMPTY = "empty"
PARTIAL = "partial"
FULL = "full"


@dataclass(frozen=True)
class TwinPartition:
    """Coarsest partition into classes of pairwise twins.

    Each class is entirely a clique or entirely independent, and adjacency
    between two classes is all-or-nothing, so one representative per class
    carries the whole structure.  ``masks[a]`` has bit ``b`` set when
    classes ``a`` and ``b`` are adjacent (never bit ``a`` itself).
    """

    classes: tuple[frozenset[int], ...]
    kinds: tuple[Literal["clique", "independent"], ...]
    masks: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.classes)


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices into twin classes, one dictionary lookup per vertex.

    Twins have equal open neighborhoods (then they are not adjacent) or
    equal closed ones (then they are).  A class is filed under both masks
    of its first vertex, and a vertex looks up its open mask, then its
    closed one.  One vertex's open mask never equals another's closed mask
    (either would then be its own neighbor), so the two kinds of key never
    collide; and no vertex has twins of both kinds, so twin-ness is an
    equivalence and classes come out ordered by their smallest member.
    """
    index: dict[int, int] = {}
    groups: list[list[int]] = []
    class_of: list[int] = []
    for v in g.vertices():
        open_mask = g.adjacency_mask(v)
        closed_mask = open_mask | 1 << v
        idx = index.get(open_mask)
        if idx is None:
            idx = index.get(closed_mask)
        if idx is None:
            idx = len(groups)
            index[open_mask] = index[closed_mask] = idx
            groups.append([])
        groups[idx].append(v)
        class_of.append(idx)
    kinds = tuple(
        "clique" if len(grp) >= 2 and g.has_edge(grp[0], grp[1]) else "independent"
        for grp in groups
    )
    masks = []
    for a, grp in enumerate(groups):
        mask = 0
        for u in g.neighbors(grp[0]):
            mask |= 1 << class_of[u]
        masks.append(mask & ~(1 << a))
    return TwinPartition(tuple(frozenset(grp) for grp in groups), kinds, tuple(masks))


class GuessPartition(NamedTuple):
    """Per-class choice as bitmasks over class indices: bit i of ``full``
    means the solution takes all of class i, bit i of ``partial`` part of
    it, and a class in neither is avoided.  ``vertices`` is the vertex mask
    of the FULL classes; ``width`` is the number of classes."""

    full: int
    partial: int
    vertices: int
    width: int

    @property
    def assignment(self) -> tuple[str, ...]:
        """The choice spelled out per class, first class first."""
        return tuple(
            FULL if self.full >> i & 1 else PARTIAL if self.partial >> i & 1 else EMPTY
            for i in range(self.width)
        )


def enumerate_guesses(tp: TwinPartition, bound: Callable[[], float] = lambda: math.inf):
    """Every guess in product order (per class EMPTY, PARTIAL, FULL; the
    last class varies fastest) that leaves the solution non-empty, never
    makes a singleton PARTIAL, and whose floor is below ``bound()``.

    The floor -- full-class sizes plus one per partial class -- is the
    smallest solution a guess allows, and it only grows as a prefix is
    extended, so a prefix whose floor reaches ``bound()`` is dropped with
    every guess under it.  ``bound()`` is read again at every step, so a
    caller may lower it between guesses.
    """
    width = tp.width
    sizes = [len(cls) for cls in tp.classes]
    vmasks = [mask_of(cls) for cls in tp.classes]
    # (classes decided, full, partial, vertices, floor); EMPTY is pushed
    # last so that it is popped first
    stack = [(0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, full, partial, vertices, floor = pop()
        if floor >= bound():
            continue
        if i == width:
            if floor:  # only the all-EMPTY guess has floor 0
                yield GuessPartition(full, partial, vertices, width)
            continue
        bit = 1 << i
        push((i + 1, full | bit, partial, vertices | vmasks[i], floor + sizes[i]))
        if sizes[i] >= 2:
            push((i + 1, full, partial | bit, vertices, floor + 1))
        push((i + 1, full, partial, vertices, floor))


def build_families(
    tp: TwinPartition, guess: GuessPartition
) -> tuple[list[frozenset[int]], list[int]]:
    """Group the classes on the solution side into connected blocks.

    A block of two or more mutually reachable classes, or a clique class by
    itself, contributes one component of the solution; an isolated
    independent class instead contributes one single-vertex component per
    vertex taken (its "singleton-type" classes are returned separately).
    """
    rest = guess.full | guess.partial
    families: list[frozenset[int]] = []
    singletons: list[int] = []
    while rest:
        first = rest & -rest
        block = frontier = first
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = tp.masks[low.bit_length() - 1] & rest & ~block
            block |= grown
            frontier |= grown
        rest &= ~block
        i = first.bit_length() - 1
        if block != first or tp.kinds[i] == "clique":
            families.append(frozenset(j for j in range(i, tp.width) if block >> j & 1))
        else:
            singletons.append(i)
    return families, singletons


def prefix_masks(tp: TwinPartition) -> list[list[int]]:
    """``prefix_masks(tp)[i][c]`` is the mask of class i's first c vertices
    in sorted order, the vertices a count of c takes."""
    return [list(accumulate((1 << v for v in sorted(cls)), or_, initial=0)) for cls in tp.classes]


def assemble_ip(
    tp: TwinPartition, guess: GuessPartition, connected: bool
) -> tuple[list[int], list[int]] | None:
    """Per-class count bounds ``(lo, hi)`` of one guess, or None when the
    guess cannot hold: FULL takes the whole class, PARTIAL 1 to size - 1
    vertices, EMPTY none.

    In connected mode the solution side must be one block.  A block that is
    one independent class is made of single vertices, so one vertex of it is
    connected and two are not: taken whole with more than one vertex it is
    rejected, and otherwise capped at one vertex.
    """
    lo, hi = [], []
    for i, cls in enumerate(tp.classes):
        full, partial = guess.full >> i & 1, guess.partial >> i & 1
        lo.append(len(cls) if full else partial)
        hi.append(len(cls) if full else partial * (len(cls) - 1))
    if connected:
        families, singletons = build_families(tp, guess)
        if len(families) + len(singletons) != 1:
            return None
        if singletons:
            lone = singletons[0]
            if lo[lone] > 1:
                return None
            hi[lone] = 1
    return lo, hi


def solve_ip(
    lo: list[int],
    hi: list[int],
    prefixes: list[list[int]],
    accepts: Callable[[int], bool],
    cap: float = math.inf,
) -> tuple[int, int] | None:
    """Smallest total count between ``lo`` and ``hi``, and the set of the
    first count vector, in class order, that reaches it; None when no
    vector is accepted or that total is above ``cap``.  Class i takes its
    first ``count`` vertices, ``prefixes[i][count]``, and ``accepts``
    decides the union.

    Raising a count never turns an accepted set into a rejected one, so a
    vector exists exactly when the one with every count at ``hi`` is
    accepted.  The search fixes the open classes in order, each with
    ascending values and the later ones at ``hi``, and drops a prefix that
    fails so or whose lower bound reaches the best total or passes the cap.
    """
    every = 0
    for table, count in zip(prefixes, hi):
        every |= table[count]
    if sum(lo) > cap or not accepts(every):
        return None
    free = [i for i in range(len(lo)) if lo[i] < hi[i]]
    best: tuple[int, int] | None = None
    top = cap + 1  # the least total that cannot win

    def dfs(d: int, floor: int, mask: int) -> None:
        """Fix free[d:]; ``floor`` is the total with those at ``lo``, and
        ``mask`` the accepted set with them at ``hi``."""
        nonlocal best, top
        if d == len(free):
            best, top = (floor, mask), floor
            return
        i = free[d]
        rest = mask & ~prefixes[i][hi[i]]
        for value in range(lo[i], hi[i] + 1):
            total = floor + value - lo[i]
            if total >= top:
                break
            trial = rest | prefixes[i][value]
            if accepts(trial):
                dfs(d + 1, total, trial)

    dfs(0, sum(lo), every)
    return best


def _component_best(sub: Graph, connected: bool, bound: int) -> frozenset[int] | None:
    """Best solution of the connected graph ``sub`` in guess order, looking
    only at guesses whose floor is at most ``bound``, and only for sets of
    at most ``bound`` vertices: a larger solution loses anyway, one of equal
    size may still win on its sorted ids."""
    verify = is_connected_safe_mask if connected else is_safe_mask
    tp = twin_partition(sub)
    prefixes = None  # built at the first guess with a PARTIAL class
    best: tuple[int, list[int]] | None = None  # (size, sorted ids)
    limit = bound + 1  # stays min(bound + 1, size of best)

    for guess in enumerate_guesses(tp, lambda: limit):
        if not guess.partial:
            # every class count is fixed: one verifier call on the union of
            # the full classes
            if not verify(sub, guess.vertices):
                continue
            wmask = guess.vertices
        else:
            box = assemble_ip(tp, guess, connected)
            if box is None:
                continue
            if prefixes is None:
                prefixes = prefix_masks(tp)
            got = solve_ip(*box, prefixes, lambda mask: verify(sub, mask), min(bound, limit))
            if got is None:
                continue
            wmask = got[1]
        key = (wmask.bit_count(), vertices_of(wmask))
        if best is None or key < best:
            best = key
            limit = min(limit, key[0])
    return None if best is None else frozenset(best[1])


def solve_nd(g: Graph, connected: bool = False, limit: int | None = None) -> SolveResult:
    """Exact minimum (connected) safe set via the twin-class guesses, solved
    per component.  A guess with a PARTIAL class goes through a count
    search whose only test is the verifier on a concrete set.  With
    ``limit`` set, the walk skips every guess whose floor is larger, and a
    count search stops at totals above it."""
    return solve_by_component(
        g, lambda sub, bound: _component_best(sub, connected, bound), "nd", connected, limit
    )
