"""Polynomial-time approximation of a minimum safe set, within a factor
s(G) + 1 of the safe number s(G)."""

from __future__ import annotations

# components_mask, is_safe_set and neighborhood_mask stay bound for
# perfbench's tracer.
from .graph import (  # noqa: F401
    Graph,
    bfs_prefix,
    components_mask,
    is_safe_set,
    neighborhood_mask,
    precedes,
)
from .oracle import SolveResult, solve_by_component


def _guess_mask(g: Graph, s: int, seed: int, border: int, limit: int) -> int | None:
    """Guess s's set in the connected graph g, grown from `seed` with
    neighborhood `border`, or None once it has more than `limit` vertices.
    Each block is the first s+1 vertices of a BFS inside `rest` from its
    least vertex in `border` (`bfs_prefix`); a full block is swallowed and
    its vertices' neighborhoods join `border`, a shorter one is a whole
    component of rest and is set aside."""
    masks = g._masks
    smask = seed
    rest = g.full_mask() & ~seed
    while rest:
        touch = rest & border
        block, bmask = bfs_prefix(g, (touch & -touch).bit_length() - 1, rest, s + 1)
        rest ^= bmask
        if len(block) > s:
            smask |= bmask
            if smask.bit_count() > limit:
                return None
            for v in block:
                border |= masks[v]
    return smask


def _grown(g: Graph, vertices: list[int], seed: int = 0, border: int = 0) -> tuple[int, int]:
    """`seed` with `vertices` added, and its neighborhood `border` with
    theirs.  Guess s's seed is the first s+1 vertices of the BFS order."""
    for v in vertices:
        seed |= 1 << v
        border |= g._masks[v]
    return seed, border


def _approx_component(g: Graph, limit: int) -> int | None:
    """Vertex mask of the best set of at most `limit` vertices found over
    the guesses of the safe number in the connected graph g, or None."""
    order = bfs_prefix(g, 0, g.full_mask(), g.n)[0]
    # Bisect for the least guess hi that swallows nothing, whose set is its
    # seed.  Guess max(n - 1, 1) has nothing left to swallow, and guess
    # `limit`, when smaller, stands for "none that fits".  Every set found
    # comes from `_guess_mask`: the last probe that swallowed nothing, or
    # else guess max(n - 1, 1) run here.
    lo, hi = 1, min(max(g.n - 1, 1), limit)
    best = None  # guess hi's set, once a probe finds it
    while lo < hi:
        mid = (lo + hi) // 2
        smask = _guess_mask(g, mid, *_grown(g, order[: mid + 1]), mid + 1)
        if smask is None:
            lo = mid + 1
        else:
            hi, best = mid, smask
    if best is None and min(hi + 1, g.n) <= limit:
        best = _guess_mask(g, hi, *_grown(g, order[: hi + 1]), limit)
    if best is not None:
        limit = best.bit_count()
    # Every guess s > hi takes s + 1 > hi + 1 vertices and cannot win.
    # Every guess s < hi swallows a block, so it takes at least 2(s + 1).
    seed, border = _grown(g, order[:1])
    for s in range(1, hi):
        if 2 * (s + 1) > limit:
            break
        seed, border = _grown(g, [order[s]], seed, border)
        smask = _guess_mask(g, s, seed, border, limit)
        if smask is not None and (best is None or precedes(smask, best)):
            best = smask
            limit = best.bit_count()
    return best


def approx_safe_set(g: Graph, limit: int | None = None) -> SolveResult:
    """Safe set of size at most s(G) * (s(G) + 1), connected inside its
    component, found in polynomial time.

    For each guessed value s, grow a connected seed of size s+1 from the
    smallest vertex, then repeatedly swallow a connected block of size s+1
    out of any too-large leftover component until every component of the
    complement has at most s vertices; keep the smallest result over all
    guesses.  Each swallowed block must intersect every safe set of size s,
    which is what caps the total at s(s+1).

    Guess s *swallows nothing* when its seed leaves no component of more
    than s vertices; its set is then the seed alone, with s+1 vertices.
    The seeds are nested, so once a guess swallows nothing every later one
    does too, and a bisection over s finds the first such guess s*
    (``_guess_mask`` with limit s+1 returns None exactly when the guess
    swallows a block).  Every guess s > s* takes at least s+1 > s*+1
    vertices, so none of them can win.  Every guess s < s* swallows a block
    of s+1 vertices, so it takes at least 2(s+1); those run in ascending
    order only while 2(s+1) is at most the best size found, or the
    component's bound from `solve_by_component` before one is found.  A
    guess stops as soon as its set passes that size, since the set only
    grows.  The answer is the one a scan over all n guesses would give, and
    a connected graph with n >= 2 starts at most ceil(log2 n) +
    floor(returned size / 2) guesses.  ``limit`` caps that bound, so with
    it set only sets of at most ``limit`` vertices are looked for.

    All guesses grow their seed along one BFS order.  A guess walks the
    leftover vertices once: each block is `graph.bfs_prefix` from the
    smallest leftover vertex next to the set, stopped at the (s+1)-th vertex
    it discovers, so it expands no vertex past that block.  A full block is
    swallowed and the neighborhoods of its vertices join the set's; a
    shorter one is a whole component of the complement with at most s
    vertices, which no later swallow touches, so it is set aside.
    Swallowing changes the set's neighborhood only inside the component it
    cuts, so this order of cuts gives the same set as any other.  A
    finished guess is thus a connected set of more than s vertices whose
    leftover components have at most s each, which is safe, so no guess is
    verified; `oracle.verified_result` checks the returned witness.
    """
    return solve_by_component(g, _approx_component, "approx", False, limit)
