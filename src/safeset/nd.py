"""Exact solver driven by the twin structure of the graph.

Vertices with identical neighborhoods (up to each other) form classes; a
solution is determined, up to verifier-equivalent swaps, by how many
vertices it takes from each class.  The solver enumerates, per class,
whether the solution avoids it, meets it partially, or swallows it whole,
then optimizes the per-class counts with a small exact integer program.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .graph import (
    Graph,
    InputError,
    is_connected_safe_mask,
    is_safe_mask,
    mask_of,
    vertices_of,
)
from .oracle import SolveResult, WitnessError, solve_by_component

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
    tp: TwinPartition, guess: GuessPartition, side: Literal["s", "complement"]
) -> tuple[list[frozenset[int]], list[int]]:
    """Group the classes present on one side into connected blocks.

    A block of two or more mutually reachable classes, or a clique class by
    itself, contributes one component of that side; an isolated independent
    class instead contributes one single-vertex component per vertex taken
    (its "singleton-type" classes are returned separately).
    """
    if side == "s":
        rest = guess.full | guess.partial
    elif side == "complement":
        rest = ((1 << tp.width) - 1) & ~guess.full
    else:
        raise InputError(f"unknown side {side!r}")
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


@dataclass(frozen=True)
class Constraint:
    """Bounded linear form: lo <= sum(c * x[v] for v, c in terms) <= hi,
    either side optional.  Variables missing from ``terms`` have
    coefficient 0."""

    terms: tuple[tuple[int, int], ...]
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class IntegerProgram:
    bounds: tuple[tuple[int, int], ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[int, ...]


def assemble_ip(
    tp: TwinPartition,
    guess: GuessPartition,
    families_s: list[frozenset[int]],
    families_co: list[frozenset[int]],
    singletons_s: list[int],
    singletons_co: list[int],
    connected: bool,
) -> IntegerProgram | None:
    """Turn one guess into a bounded integer program, or reject it outright.

    Variables: one count per class, then one size variable per block on
    each side.  A block on the solution side may never sit next to a larger
    block on the other side, and a single-vertex component tolerates only
    single-vertex neighbors.
    """
    k = tp.width
    # the connected solution side must form exactly one component in total
    if connected and len(families_s) + len(singletons_s) != 1:
        return None
    bounds: list[tuple[int, int]] = []
    for i, cls in enumerate(tp.classes):
        size = len(cls)
        if guess.full >> i & 1:
            bounds.append((size, size))
        else:
            bounds.append((1, size - 1) if guess.partial >> i & 1 else (0, 0))

    constraints: list[Constraint] = []
    reach_s: list[int] = []  # classes in or next to each solution-side block
    for j, fam in enumerate(families_s):
        lo = hi = reach = 0
        terms = []
        for i in fam:
            lo += bounds[i][0]
            hi += bounds[i][1]
            reach |= tp.masks[i] | 1 << i
            terms.append((i, 1))
        terms.append((k + j, -1))
        reach_s.append(reach)
        bounds.append((lo, hi))
        constraints.append(Constraint(tuple(terms), 0, 0))
    z0 = k + len(families_s)
    co_masks: list[int] = []
    for h, fam in enumerate(families_co):
        total = lo = hi = mask = 0
        terms = []
        for i in fam:
            total += len(tp.classes[i])
            lo += bounds[i][0]
            hi += bounds[i][1]
            mask |= 1 << i
            terms.append((i, 1))
        terms.append((z0 + h, 1))
        co_masks.append(mask)
        bounds.append((total - hi, total - lo))
        constraints.append(Constraint(tuple(terms), total, total))

    for j, reach in enumerate(reach_s):
        for h, mask in enumerate(co_masks):
            if reach & mask:
                constraints.append(Constraint(((k + j, 1), (z0 + h, -1)), 0, None))
    for i in singletons_s:
        reach = tp.masks[i] | 1 << i
        for h, mask in enumerate(co_masks):
            if reach & mask:
                constraints.append(Constraint(((z0 + h, 1),), None, 1))
    if connected and not families_s:
        constraints.append(Constraint(((singletons_s[0], 1),), 1, 1))

    objective = tuple([1] * k + [0] * (len(families_s) + len(families_co)))
    return IntegerProgram(tuple(bounds), tuple(constraints), objective)


def _propagate(
    bounds: list[tuple[int, int]], constraints: tuple[Constraint, ...]
) -> bool:
    """Shrink variable intervals against every constraint to a fixpoint.
    Returns False when some interval empties."""
    changed = True
    while changed:
        changed = False
        for con in constraints:
            c_lo, c_hi = con.lo, con.hi
            lo_sum = 0
            hi_sum = 0
            for v, c in con.terms:
                lo, hi = bounds[v]
                if c >= 0:
                    lo_sum += c * lo
                    hi_sum += c * hi
                else:
                    lo_sum += c * hi
                    hi_sum += c * lo
            if c_lo is not None and hi_sum < c_lo:
                return False
            if c_hi is not None and lo_sum > c_hi:
                return False
            if (c_hi is None or hi_sum <= c_hi) and (c_lo is None or lo_sum >= c_lo):
                continue  # holds everywhere in the box, so it narrows nothing
            for v, c in con.terms:
                if c == 0:
                    continue
                lo, hi = bounds[v]
                rest_lo = lo_sum - (c * lo if c > 0 else c * hi)
                rest_hi = hi_sum - (c * hi if c > 0 else c * lo)
                new_lo, new_hi = lo, hi
                if c_hi is not None:
                    room = c_hi - rest_lo  # c*x <= room
                    if c > 0:
                        new_hi = min(new_hi, room // c)
                    else:
                        new_lo = max(new_lo, -((-room) // c))
                if c_lo is not None:
                    need = c_lo - rest_hi  # c*x >= need
                    if c > 0:
                        new_lo = max(new_lo, -((-need) // c))
                    else:
                        new_hi = min(new_hi, need // c)
                if (new_lo, new_hi) != (lo, hi):
                    if new_lo > new_hi:
                        return False
                    bounds[v] = (new_lo, new_hi)
                    changed = True
    return True


def solve_ip(ip: IntegerProgram) -> tuple[int, tuple[int, ...]] | None:
    """Exact minimum by depth-first search over the variables in order,
    tightening all intervals after every decision."""
    best: tuple[int, tuple[int, ...]] | None = None

    def lower_bound(bounds: list[tuple[int, int]]) -> int:
        return sum(
            c * (lo if c > 0 else hi)
            for c, (lo, hi) in zip(ip.objective, bounds)
        )

    def dfs(bounds: list[tuple[int, int]]) -> None:
        nonlocal best
        if not _propagate(bounds, ip.constraints):
            return
        if best is not None and lower_bound(bounds) >= best[0]:
            return
        free = next((v for v, (lo, hi) in enumerate(bounds) if lo != hi), None)
        if free is None:
            value = sum(c * lo for c, (lo, _) in zip(ip.objective, bounds))
            assignment = tuple(lo for (lo, _) in bounds)
            if best is None or value < best[0]:
                best = (value, assignment)
            return
        lo, hi = bounds[free]
        for val in range(lo, hi + 1):
            child = list(bounds)
            child[free] = (val, val)
            dfs(child)

    dfs(list(ip.bounds))
    return best


def _component_best(sub: Graph, connected: bool, bound: int) -> frozenset[int] | None:
    """Best solution of the connected graph ``sub`` in guess order, looking
    only at guesses whose floor is at most ``bound``: a larger solution
    loses anyway, one of equal size may still win on its sorted ids."""
    verify = is_connected_safe_mask if connected else is_safe_mask
    tp = twin_partition(sub)
    ordered_classes = [sorted(c) for c in tp.classes]
    best: tuple[int, list[int]] | None = None  # (size, sorted ids)
    limit = bound + 1  # stays min(bound + 1, size of best)

    for guess in enumerate_guesses(tp, lambda: limit):
        if not guess.partial:
            # every class count is fixed, so the program would only repeat
            # what the verifier says about the union of the full classes
            if not verify(sub, guess.vertices):
                continue
            wmask = guess.vertices
        else:
            fam_s, single_s = build_families(tp, guess, "s")
            if connected and len(fam_s) + len(single_s) != 1:
                continue  # assemble_ip would reject it
            fam_co, single_co = build_families(tp, guess, "complement")
            ip = assemble_ip(tp, guess, fam_s, fam_co, single_s, single_co, connected)
            if ip is None:
                continue
            got = solve_ip(ip)
            if got is None:
                continue
            value, assignment = got
            wmask = mask_of(
                v for i in range(tp.width) for v in ordered_classes[i][: assignment[i]]
            )
            if wmask.bit_count() != value or not verify(sub, wmask):
                raise WitnessError(
                    f"integer program accepted an unsafe witness {vertices_of(wmask)}"
                )
        key = (wmask.bit_count(), vertices_of(wmask))
        if best is None or key < best:
            best = key
            limit = min(limit, key[0])
    return None if best is None else frozenset(best[1])


def solve_nd(g: Graph, connected: bool = False) -> SolveResult:
    """Exact minimum (connected) safe set via the twin-class program,
    solved per component."""
    return solve_by_component(
        g, lambda sub, bound: _component_best(sub, connected, bound), "nd", connected
    )
