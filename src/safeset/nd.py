"""Exact solver driven by the twin structure of the graph.

Vertices with identical neighborhoods (up to each other) form classes; a
solution is determined, up to verifier-equivalent swaps, by how many
vertices it takes from each class.  The solver enumerates, per class,
whether the solution avoids it, meets it partially, or swallows it whole,
then finds the smallest per-class counts that keep the guess safe.

Whether a count vector works depends only on the counts, since twins are
interchangeable, so the verifier decides it on one concrete set: the lowest
vertices of each class.  Raising a count never turns an accepted set into a
rejected one (in connected mode once a lone independent solution class is
capped at one vertex), so a guess is feasible exactly when its counts all
at their upper bounds are accepted, and a depth-first count search finds
the optimum.  Classes, the blocks of a guess and the search's answer are
vertex or class masks, like the guesses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .graph import (
    Graph,
    is_connected_safe_mask,
    is_safe_mask,
    precedes,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component


@dataclass(frozen=True)
class TwinPartition:
    """Coarsest partition into classes of pairwise twins.

    Each class is entirely a clique or entirely independent, and adjacency
    between two classes is all-or-nothing, so one representative per class
    carries the whole structure.  ``classes[a]`` is the vertex mask of class
    ``a``; bit ``a`` of ``cliques`` is set when class ``a`` is a clique (two
    or more mutually adjacent members); ``masks[a]`` has bit ``b`` set when
    classes ``a`` and ``b`` are adjacent (never bit ``a`` itself).
    """

    classes: tuple[int, ...]
    cliques: int
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
    classes: list[int] = []
    class_of: list[int] = []
    for v in g.vertices():
        open_mask = g.adjacency_mask(v)
        closed_mask = open_mask | 1 << v
        idx = index.get(open_mask)
        if idx is None:
            idx = index.get(closed_mask)
        if idx is None:
            idx = len(classes)
            index[open_mask] = index[closed_mask] = idx
            classes.append(0)
        classes[idx] |= 1 << v
        class_of.append(idx)
    cliques = 0
    masks = []
    for a, cls in enumerate(classes):
        adjacent = g.adjacency_mask((cls & -cls).bit_length() - 1)
        if adjacent & cls:
            cliques |= 1 << a
        mask = 0
        for u in vertices_of(adjacent & ~cls):
            mask |= 1 << class_of[u]
        masks.append(mask)
    return TwinPartition(tuple(classes), cliques, tuple(masks))


def enumerate_guesses(tp: TwinPartition, bound: Callable[[], float] = lambda: math.inf):
    """Every guess in product order (per class empty, partial, full; the
    last class varies fastest) that leaves the solution non-empty, never
    makes a singleton partial, and whose floor is below ``bound()``.

    A guess is ``(full, partial, vertices)``: bit i of ``full`` means the
    solution takes all of class i, bit i of ``partial`` part of it, and a
    class in neither is avoided; ``vertices`` is the vertex mask of the full
    classes.

    The floor -- full-class sizes plus one per partial class -- is the
    smallest solution a guess allows, and it only grows as a prefix is
    extended, so a prefix whose floor reaches ``bound()`` is dropped with
    every guess under it.  ``bound()`` is read again at every step, so a
    caller may lower it between guesses.
    """
    width = tp.width
    vmasks = tp.classes
    sizes = [cls.bit_count() for cls in vmasks]
    # (classes decided, full, partial, vertices, floor); empty is pushed
    # last so that it is popped first
    stack = [(0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, full, partial, vertices, floor = pop()
        if floor >= bound():
            continue
        if i == width:
            if floor:  # only the all-empty guess has floor 0
                yield full, partial, vertices
            continue
        bit = 1 << i
        push((i + 1, full | bit, partial, vertices | vmasks[i], floor + sizes[i]))
        if sizes[i] >= 2:
            push((i + 1, full, partial | bit, vertices, floor + 1))
        push((i + 1, full, partial, vertices, floor))


def build_families(tp: TwinPartition, guess: tuple[int, int, int]) -> list[int]:
    """The classes on the solution side grouped into connected blocks, each
    a class mask, ordered by their least class.

    A block of two or more mutually reachable classes, or a clique class by
    itself, contributes one component of the solution; a lone independent
    class instead contributes one single-vertex component per vertex taken.
    """
    full, partial, _ = guess
    rest = full | partial
    blocks: list[int] = []
    while rest:
        block = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = tp.masks[low.bit_length() - 1] & rest & ~block
            block |= grown
            frontier |= grown
        rest &= ~block
        blocks.append(block)
    return blocks


def prefix_masks(tp: TwinPartition) -> list[list[int]]:
    """``prefix_masks(tp)[i][c]`` is the mask of class i's lowest c
    vertices, the vertices a count of c takes."""
    return [list(accumulate((1 << v for v in vertices_of(c)), or_, initial=0)) for c in tp.classes]


def assemble_ip(
    tp: TwinPartition, guess: tuple[int, int, int], connected: bool
) -> tuple[list[int], list[int]] | None:
    """Per-class count bounds ``(lo, hi)`` of one guess, or None when the
    guess cannot hold: a full class takes the whole class, a partial one 1
    to size - 1 vertices, an empty one none.

    In connected mode the solution side must be one block.  A block that is
    one independent class is made of single vertices, so one vertex of it is
    connected and two are not: taken whole with more than one vertex it is
    rejected, and otherwise capped at one vertex.
    """
    full, partial, _ = guess
    lo, hi = [], []
    for i, cls in enumerate(tp.classes):
        size = cls.bit_count()
        whole, part = full >> i & 1, partial >> i & 1
        lo.append(size if whole else part)
        hi.append(size if whole else part * (size - 1))
    if connected:
        blocks = build_families(tp, guess)
        if len(blocks) != 1:
            return None
        block = blocks[0]
        if not block & (block - 1 | tp.cliques):  # one independent class
            lone = block.bit_length() - 1
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
) -> int | None:
    """The set of the first count vector, in class order, with the smallest
    total between ``lo`` and ``hi``, as a vertex mask whose bit count is
    that total; None when no vector is accepted or that total is above
    ``cap``.  Class i takes its lowest ``count`` vertices,
    ``prefixes[i][count]``, and ``accepts`` decides the union.

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
    best: int | None = None
    top = cap + 1  # the least total that cannot win

    def dfs(d: int, floor: int, mask: int) -> None:
        """Fix free[d:]; ``floor`` is the total with those at ``lo``, and
        ``mask`` the accepted set with them at ``hi``."""
        nonlocal best, top
        if d == len(free):
            best, top = mask, floor
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


def _component_best(sub: Graph, connected: bool, bound: int) -> int | None:
    """Vertex mask of the best solution of the connected graph ``sub`` in
    guess order, or None, looking
    only at guesses whose floor is at most ``bound``, and only for sets of
    at most ``bound`` vertices: a larger solution loses anyway, one of equal
    size may still win on its sorted ids."""
    verify = is_connected_safe_mask if connected else is_safe_mask
    tp = twin_partition(sub)
    prefixes = None  # built at the first guess with a partial class
    best: int | None = None
    limit = bound + 1  # stays min(bound + 1, size of best)

    for guess in enumerate_guesses(tp, lambda: limit):
        _, partial, wmask = guess
        if not partial:
            # every class count is fixed: one verifier call on the union of
            # the full classes
            if not verify(sub, wmask):
                continue
        else:
            box = assemble_ip(tp, guess, connected)
            if box is None:
                continue
            if prefixes is None:
                prefixes = prefix_masks(tp)
            wmask = solve_ip(*box, prefixes, lambda mask: verify(sub, mask), min(bound, limit))
            if wmask is None:
                continue
        if best is None or precedes(wmask, best):
            best = wmask
            limit = min(limit, best.bit_count())
    return best


def solve_nd(g: Graph, connected: bool = False, limit: int | None = None) -> SolveResult:
    """Exact minimum (connected) safe set via the twin-class guesses, solved
    per component.  A guess with a partial class goes through a count
    search whose only test is the verifier on a concrete set.  With
    ``limit`` set, the walk skips every guess whose floor is larger, and a
    count search stops at totals above it."""
    return solve_by_component(
        g, lambda sub, bound: _component_best(sub, connected, bound), "nd", connected, limit
    )
