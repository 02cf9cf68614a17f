"""Exact solver driven by the twin structure of the graph.

Vertices with identical neighborhoods (up to each other) form classes; a
solution is determined, up to verifier-equivalent swaps, by how many
vertices it takes from each class.  The solver enumerates, per class,
whether the solution avoids it, meets it partially, or swallows it whole,
then optimizes the per-class counts with a small exact integer program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

from .graph import (
    Graph,
    InputError,
    is_connected_safe_set,
    is_safe_set,
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
    carries the whole structure.
    """

    classes: tuple[frozenset[int], ...]
    kinds: tuple[Literal["clique", "independent"], ...]
    adjacency: frozenset[tuple[int, int]]

    @property
    def width(self) -> int:
        return len(self.classes)

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.adjacency


def _twins(g: Graph, u: int, v: int) -> bool:
    return g.neighbors(u) - {v} == g.neighbors(v) - {u}


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices into twin classes by pairwise comparison.

    Twin-ness is transitive (a clique twin and a non-clique twin of the
    same vertex would contradict each other), so a single sweep assigning
    each vertex to the first matching class is enough.
    """
    reps: list[int] = []
    groups: list[list[int]] = []
    for v in g.vertices():
        for idx, rep in enumerate(reps):
            if _twins(g, rep, v):
                groups[idx].append(v)
                break
        else:
            reps.append(v)
            groups.append([v])
    kinds = tuple(
        "clique" if len(grp) >= 2 and g.has_edge(grp[0], grp[1]) else "independent"
        for grp in groups
    )
    adjacency = frozenset(
        (a, b)
        for a in range(len(groups))
        for b in range(a + 1, len(groups))
        if g.has_edge(reps[a], reps[b])
    )
    return TwinPartition(tuple(frozenset(grp) for grp in groups), kinds, adjacency)


@dataclass(frozen=True)
class GuessPartition:
    """Per-class choice: the solution avoids the class, takes part of it,
    or takes all of it."""

    assignment: tuple[str, ...]

    def __post_init__(self):
        for a in self.assignment:
            if a not in (EMPTY, PARTIAL, FULL):
                raise InputError(f"unknown assignment {a!r}")


def valid_guess(tp: TwinPartition, guess: GuessPartition) -> bool:
    """Partial needs 1 <= count <= size-1, impossible for singletons; the
    all-avoid guess would make the solution empty."""
    if len(guess.assignment) != tp.width:
        return False
    for cls, a in zip(tp.classes, guess.assignment):
        if a == PARTIAL and len(cls) < 2:
            return False
    return any(a != EMPTY for a in guess.assignment)


def enumerate_guesses(tp: TwinPartition):
    options = [
        (EMPTY, PARTIAL, FULL) if len(cls) >= 2 else (EMPTY, FULL)
        for cls in tp.classes
    ]
    for combo in itertools.product(*options):
        g = GuessPartition(combo)
        if valid_guess(tp, g):
            yield g


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
        present = [i for i, a in enumerate(guess.assignment) if a != EMPTY]
    elif side == "complement":
        present = [i for i, a in enumerate(guess.assignment) if a != FULL]
    else:
        raise InputError(f"unknown side {side!r}")
    present_set = set(present)
    families: list[frozenset[int]] = []
    singletons: list[int] = []
    seen: set[int] = set()
    for i in present:
        if i in seen:
            continue
        block = {i}
        queue = [i]
        while queue:
            a = queue.pop()
            for b in present_set:
                if b not in block and tp.adjacent(a, b):
                    block.add(b)
                    queue.append(b)
        seen |= block
        if len(block) >= 2 or tp.kinds[i] == "clique":
            families.append(frozenset(block))
        else:
            singletons.append(i)
    return families, singletons


@dataclass(frozen=True)
class Constraint:
    """Bounded linear form: lo <= sum(coeffs * vars) <= hi, either side
    optional."""

    coeffs: tuple[int, ...]
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
    sizes = [len(c) for c in tp.classes]
    if connected:
        # the solution side must form exactly one component in total
        if families_s and (len(families_s) > 1 or singletons_s):
            return None
        if not families_s and len(singletons_s) != 1:
            return None

    nvars = k + len(families_s) + len(families_co)
    bounds: list[tuple[int, int]] = []
    for i, a in enumerate(guess.assignment):
        if a == EMPTY:
            bounds.append((0, 0))
        elif a == FULL:
            bounds.append((sizes[i], sizes[i]))
        else:
            bounds.append((1, sizes[i] - 1))

    def blank() -> list[int]:
        return [0] * nvars

    constraints: list[Constraint] = []
    y_index: dict[int, int] = {}
    for j, fam in enumerate(families_s):
        var = k + j
        y_index[j] = var
        lo = sum(bounds[i][0] for i in fam)
        hi = sum(bounds[i][1] for i in fam)
        bounds.append((lo, hi))
        coeffs = blank()
        coeffs[var] = -1
        for i in fam:
            coeffs[i] = 1
        constraints.append(Constraint(tuple(coeffs), 0, 0))
    z_index: dict[int, int] = {}
    for h, fam in enumerate(families_co):
        var = k + len(families_s) + h
        z_index[h] = var
        total = sum(sizes[i] for i in fam)
        lo = total - sum(bounds[i][1] for i in fam)
        hi = total - sum(bounds[i][0] for i in fam)
        bounds.append((lo, hi))
        coeffs = blank()
        coeffs[var] = 1
        for i in fam:
            coeffs[i] = 1
        constraints.append(Constraint(tuple(coeffs), total, total))

    def touching(block_a: frozenset[int], block_b: frozenset[int]) -> bool:
        if block_a & block_b:
            return True
        return any(tp.adjacent(a, b) for a in block_a for b in block_b)

    for j, fam_s in enumerate(families_s):
        for h, fam_co in enumerate(families_co):
            if touching(fam_s, fam_co):
                coeffs = blank()
                coeffs[y_index[j]] = 1
                coeffs[z_index[h]] = -1
                constraints.append(Constraint(tuple(coeffs), 0, None))
    for i in singletons_s:
        for h, fam_co in enumerate(families_co):
            if touching(frozenset({i}), fam_co):
                coeffs = blank()
                coeffs[z_index[h]] = 1
                constraints.append(Constraint(tuple(coeffs), None, 1))
    if connected and not families_s:
        lone = singletons_s[0]
        coeffs = blank()
        coeffs[lone] = 1
        constraints.append(Constraint(tuple(coeffs), 1, 1))

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
            lo_sum = 0
            hi_sum = 0
            for c, (lo, hi) in zip(con.coeffs, bounds):
                if c >= 0:
                    lo_sum += c * lo
                    hi_sum += c * hi
                else:
                    lo_sum += c * hi
                    hi_sum += c * lo
            if con.lo is not None and hi_sum < con.lo:
                return False
            if con.hi is not None and lo_sum > con.hi:
                return False
            for v, c in enumerate(con.coeffs):
                if c == 0:
                    continue
                lo, hi = bounds[v]
                rest_lo = lo_sum - (c * lo if c > 0 else c * hi)
                rest_hi = hi_sum - (c * hi if c > 0 else c * lo)
                new_lo, new_hi = lo, hi
                if con.hi is not None:
                    room = con.hi - rest_lo  # c*x <= room
                    if c > 0:
                        new_hi = min(new_hi, room // c)
                    else:
                        new_lo = max(new_lo, -((-room) // c))
                if con.lo is not None:
                    need = con.lo - rest_hi  # c*x >= need
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


def _component_best(sub: Graph, connected: bool) -> frozenset[int] | None:
    tp = twin_partition(sub)
    sizes = [len(c) for c in tp.classes]
    ordered_classes = [sorted(c) for c in tp.classes]
    best: tuple[int, frozenset[int]] | None = None
    for guess in enumerate_guesses(tp):
        floor = sum(
            sizes[i] if a == FULL else (1 if a == PARTIAL else 0)
            for i, a in enumerate(guess.assignment)
        )
        if best is not None and floor >= best[0]:
            continue
        fam_s, single_s = build_families(tp, guess, "s")
        fam_co, single_co = build_families(tp, guess, "complement")
        ip = assemble_ip(tp, guess, fam_s, fam_co, single_s, single_co, connected)
        if ip is None:
            continue
        got = solve_ip(ip)
        if got is None:
            continue
        value, assignment = got
        witness = frozenset(
            v
            for i in range(tp.width)
            for v in ordered_classes[i][: assignment[i]]
        )
        ok = (
            is_connected_safe_set(sub, witness)
            if connected
            else is_safe_set(sub, witness)
        )
        if len(witness) != value or not ok:
            raise WitnessError(
                f"integer program accepted an unsafe witness {sorted(witness)}"
            )
        if best is None or (value, sorted(witness)) < (best[0], sorted(best[1])):
            best = (value, witness)
    return None if best is None else best[1]


def solve_nd(g: Graph, connected: bool = False) -> SolveResult:
    """Exact minimum (connected) safe set via the twin-class program,
    solved per component."""
    return solve_by_component(
        g, lambda sub, _bound: _component_best(sub, connected), "nd", connected
    )
