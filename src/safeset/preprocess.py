"""Fast polynomial-time routines: a factor-(s+1) approximation and two
sound refusal rules for the parameterized question "is there a safe set of
size at most k".

The refusal rules only ever answer No when no such set can exist; a pass
says nothing either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    InputError,
    bfs_order,
    components_mask,
    degree,
    is_safe_set,
    mask_of,
    max_degree,
    neighborhood_mask,
    vertices_of,
)
from .oracle import SolveResult, solve_by_component


def _absorb_component(g: Graph, border: int, comp: int, want: int) -> int:
    """Connected chunk of `comp` with `want` vertices, grown from the
    smallest vertex of comp inside `border`, the set's neighborhood."""
    touch = comp & border
    start = (touch & -touch).bit_length() - 1
    chunk = 0
    for v in bfs_order(g, start, comp):
        chunk |= 1 << v
        want -= 1
        if want == 0:
            break
    return chunk


def _approx_component(g: Graph) -> frozenset[int]:
    """Best set found over all guesses of the safe number in the connected
    graph g."""
    comp = g.full_mask()
    order = list(bfs_order(g, 0, comp))
    seed = 1 << order[0]
    seed_border = g.adjacency_mask(order[0])
    best: tuple[int, tuple[int, ...]] | None = None
    for s in range(1, g.n + 1):
        if best is not None and s >= best[0]:
            break
        if s + 1 >= g.n:
            smask = comp
        else:
            seed |= 1 << order[s]
            seed_border |= g.adjacency_mask(order[s])
            smask, border = seed, seed_border
            # The complement's components with more than s vertices.  No edge
            # joins two of them, so cutting one never changes another, and
            # the order they are cut in does not change the result.
            big = [c for c in components_mask(g, comp & ~smask) if c.bit_count() > s]
            while big:
                oversized = big.pop()
                chunk = _absorb_component(g, border, oversized, s + 1)
                smask |= chunk
                border |= neighborhood_mask(g, chunk)
                big += [c for c in components_mask(g, oversized & ~chunk) if c.bit_count() > s]
        members = vertices_of(smask)
        if not is_safe_set(g, members):  # pragma: no cover - defensive
            continue
        cand = (len(members), tuple(members))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return frozenset(best[1])


def approx_safe_set(g: Graph) -> SolveResult:
    """Safe set of size at most s(G) * (s(G) + 1), connected inside its
    component, found in polynomial time.

    For each guessed value s, grow a connected seed of size s+1 from the
    smallest vertex, then repeatedly swallow a connected block of size s+1
    out of any too-large leftover component until every component of the
    complement has at most s vertices; keep the smallest result over all
    guesses.  Each swallowed block must intersect every safe set of size s,
    which is what caps the total at s(s+1).

    The guesses stop at the first s that is at least the best size found:
    guess s only adds to a seed of s+1 vertices, so it and every later
    guess return more vertices than the best and cannot win.  The answer
    is the one a scan over all n guesses would give, and a connected graph
    with n >= 2 runs exactly (returned size - 1) guesses.  All guesses
    grow their seed along one BFS order, and after each swallow only the
    component just cut is split again; components of at most s vertices
    never change.
    """
    return solve_by_component(g, lambda sub, _bound: _approx_component(sub), "approx", False)


@dataclass(frozen=True)
class RuleOutcome:
    """Result of a refusal rule: either a definitive No with a reason, or a
    pass (for the high-degree rule, carrying the forced vertex set)."""

    passed: bool
    reason: str | None = None
    forced: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.passed


def _require_connected(g: Graph, what: str) -> None:
    if g.n == 0 or len(components_mask(g, g.full_mask())) != 1:
        raise InputError(f"{what} expects a connected graph")


def _power_at_least(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp >= cap, without materializing huge powers."""
    val = 1
    for _ in range(exp):
        val *= base
        if val >= cap:
            return True
    return val >= cap


def highdegree_rule(g: Graph, k: int) -> RuleOutcome:
    """Refusal rule around vertices of degree >= 2k.

    In a connected graph, any safe set of size <= k must contain every
    vertex of degree at least 2k (else that vertex plus its out-of-set
    neighbors form a too-large component), so more than k of them is a No.
    When the rule passes, the leftover components after deleting those
    forced vertices have max degree < 2k and treedepth <= 2k, so any of
    them exceeding (2k)^(2k) vertices is also a No.
    """
    _require_connected(g, "high-degree rule")
    if k < 1:
        raise InputError("k must be at least 1")
    forced = frozenset(v for v in g.vertices() if degree(g, v) >= 2 * k)
    if len(forced) > k:
        return RuleOutcome(
            False,
            f"{len(forced)} vertices have degree >= {2 * k}, but only {k} fit",
            forced,
        )
    rest = g.full_mask() & ~mask_of(forced)
    for comp in components_mask(g, rest):
        size = comp.bit_count()
        if not _power_at_least(2 * k, 2 * k, size):
            return RuleOutcome(
                False,
                f"a leftover component has {size} vertices, "
                f"more than ({2 * k})^({2 * k})",
                forced,
            )
    return RuleOutcome(True, None, forced)


def degree_bound_check(g: Graph, k: int) -> RuleOutcome:
    """Refusal rule from the size bound n <= s + s^2 * max_degree.

    A safe set of size s leaves at most s * max_degree components, each of
    size at most s; if n exceeds k + k^2 * max_degree there is no safe set
    of size <= k in a connected graph.
    """
    _require_connected(g, "degree bound check")
    if k < 0:
        raise InputError("k must be nonnegative")
    bound = k + k * k * max_degree(g)
    if g.n > bound:
        return RuleOutcome(False, f"n={g.n} exceeds k + k^2*maxdeg = {bound}")
    return RuleOutcome(True)
