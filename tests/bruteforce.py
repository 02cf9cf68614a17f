"""Slow reference implementations used only by tests.

The ``ref_*`` verifiers and searches deliberately avoid the bitmask
machinery of the package, so that the package verifiers are checked
through an independent route; ``ref_least_safe_set`` is the answer the
oracle and cw must give by definition, and ``ref_least_dominating_set`` the
one the dominating set brute force must give.  ``ref_parse_graph`` is the
line-by-line graph reader that the package's faster reader must match,
and ``ref_sidecar_text`` the sidecar text, byte for byte.
``ref_bfs_order`` is the whole BFS queue walk on plain sets, which
``bfs_prefix`` and ``bfs_order`` must match, and ``ref_guess_mask`` is the
approximation's guess walked through it, which its block walk must match; ``ref_order_bags`` is the path
decomposition a vertex order defines, which the ds decomposition's sweep
must match.  The brute force below them -- treedepth, vertex cover, cw
summaries and the paper's two solution-size refusal rules -- is built on
the package's own ``components_mask``, which the set-based references above
check.  ``ref_live_labels`` finds the labels a join above each tree node
can still see by walking up the tree, label by label.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from safeset.cexpr import CExpression, DisjointUnion, Join, Leaf, Relabel, iter_nodes
from safeset.graph import (
    Graph,
    InputError,
    components_mask,
    mask_of,
    max_degree,
    neighborhood_mask,
    vertices_of,
)
from safeset.io import MAX_VERTICES, FormatError
from safeset.oracle import DEFAULT_SUBSET_CAP, subset_masks_by_size

DEFAULT_TREEDEPTH_CAP = 14


def ref_components(g: Graph, within: set[int]) -> list[set[int]]:
    within = set(within)
    comps = []
    while within:
        start = min(within)
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w in within and w not in comp:
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
        within -= comp
    return comps


def ref_adjacent(g: Graph, a: set[int], b: set[int]) -> bool:
    return any(w in b for v in a for w in g.neighbors(v))


def ref_is_safe(g: Graph, s: set[int], connected: bool = False) -> bool:
    s = set(s)
    if not s:
        return False
    s_comps = ref_components(g, s)
    if connected and len(s_comps) != 1:
        return False
    rest = ref_components(g, set(g.vertices()) - s)
    for c in s_comps:
        for d in rest:
            if ref_adjacent(g, c, d) and len(d) > len(c):
                return False
    return True


def ref_least_safe_set(g: Graph, connected: bool = False) -> frozenset[int] | None:
    """The least minimum (connected) safe set by (size, sorted ids): the
    first hit of a subset scan by size, each size in sorted-tuple order."""
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if ref_is_safe(g, set(combo), connected):
                return frozenset(combo)
    return None


def ref_least_dominating_set(g: Graph, k: int) -> frozenset[int] | None:
    """The least dominating set of at most ``k`` vertices by (size, sorted
    ids), or None: the first hit of a scan of closed neighbourhoods."""
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            if set(combo).union(*(g.neighbors(v) for v in combo)) == set(g.vertices()):
                return frozenset(combo)
    return None


def ref_safe_number(g: Graph, connected: bool = False) -> int | None:
    """Minimum safe set size, the size of ``ref_least_safe_set``."""
    least = ref_least_safe_set(g, connected)
    return None if least is None else len(least)


def ref_min_steiner(
    g: Graph, terminals: set[int], forbidden: set[int]
) -> frozenset[int] | None:
    """The least minimum connected superset of the terminals avoiding the
    forbidden vertices, by (size, sorted ids), or None: the first hit of a
    scan by size, each size in sorted-tuple order."""
    allowed = [v for v in g.vertices() if v not in forbidden]
    extra = [v for v in allowed if v not in terminals]
    if not set(terminals) <= set(allowed):
        return None
    for size in range(len(terminals), len(allowed) + 1):
        for combo in itertools.combinations(extra, size - len(terminals)):
            cand = set(terminals) | set(combo)
            if len(ref_components(g, cand)) == 1:
                return frozenset(cand)
    return None


def ref_bfs(g: Graph, start: int, within: set[int]) -> list[int]:
    """BFS visit order inside ``within``, neighbors taken in ascending id."""
    order = [start]
    seen = {start}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in sorted(g.neighbors(v)):
            if w in within and w not in seen:
                seen.add(w)
                order.append(w)
    return order


def ref_order_bags(g: Graph, order: list[int]) -> list[frozenset[int]]:
    """The bags of a vertex order by definition: bag i is ``order[i]`` plus
    every earlier vertex with a neighbour at position >= i."""
    return [
        frozenset({order[i]} | {u for u in order[:i] if g.neighbors(u) & set(order[i:])})
        for i in range(len(order))
    ]


def _ref_approx_in(g: Graph, comp: set[int]) -> tuple[int, tuple[int, ...]]:
    """Best (size, sorted tuple) over every guess s = 1..|comp|."""
    best = None
    for s in range(1, len(comp) + 1):
        if s + 1 >= len(comp):
            chosen = set(comp)
        else:
            chosen = set(ref_bfs(g, min(comp), comp)[: s + 1])
            while True:
                big = [c for c in ref_components(g, comp - chosen) if len(c) > s]
                if not big:
                    break
                target = min(big, key=min)
                start = min(v for v in target if any(w in chosen for w in g.neighbors(v)))
                chosen |= set(ref_bfs(g, start, target)[: s + 1])
        cand = (len(chosen), tuple(sorted(chosen)))
        if best is None or cand < best:
            best = cand
    return best


def ref_approx_witness(g: Graph) -> frozenset[int] | None:
    """The approximation's witness, recomputed from its rules with plain sets
    and without stopping early: the best component's set by (size, sorted
    tuple), or None for the empty graph."""
    cands = [_ref_approx_in(g, comp) for comp in ref_components(g, set(g.vertices()))]
    return frozenset(min(cands)[1]) if cands else None


def ref_bfs_order(g: Graph, start: int, allowed: int) -> list[int]:
    """Breadth-first visit order from ``start`` inside the vertex mask
    ``allowed``, expanding neighbors in ascending id order, with the whole
    queue walked on plain sets."""
    inside = {v for v in g.vertices() if allowed >> v & 1}
    seen = {start}
    queue = [start]
    for v in queue:  # the loop also visits what it appends
        for w in sorted(g.neighbors(v) & inside - seen):
            seen.add(w)
            queue.append(w)
    return queue


def ref_guess_mask(g: Graph, s: int, seed: int, border: int, limit: int) -> int | None:
    """The approximation's guess s walked through ``ref_bfs_order``: from the
    smallest vertex of ``rest`` in ``border``, take a BFS prefix of at most
    s+1 vertices inside rest; a full block joins the set and its
    neighborhood joins the border, a shorter one is set aside.  None once
    the set has more than ``limit`` vertices."""
    smask = seed
    rest = g.full_mask() & ~seed
    while rest:
        touch = rest & border
        start = (touch & -touch).bit_length() - 1
        piece = 0
        for v in ref_bfs_order(g, start, rest)[: s + 1]:
            piece |= 1 << v
        rest &= ~piece
        if piece.bit_count() > s:
            smask |= piece
            if smask.bit_count() > limit:
                return None
            border |= neighborhood_mask(g, piece)
    return smask


def ref_count_program(g: Graph, classes, lo, hi, connected: bool = False) -> int | None:
    """``nd.solve_ip``'s answer by trying every count vector between ``lo``
    and ``hi``: the mask of the concrete set -- the lowest ``counts[i]``
    vertices of each class mask ``classes[i]`` -- of the first vector in
    ``itertools.product`` order with the smallest total that
    ``ref_is_safe`` accepts."""
    ordered = [[v for v in range(g.n) if cls >> v & 1] for cls in classes]
    best = None
    for counts in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if best is not None and sum(counts) >= best.bit_count():
            continue
        chosen = {v for cls, count in zip(ordered, counts) for v in cls[:count]}
        if ref_is_safe(g, chosen, connected):
            best = mask_of(chosen)
    return best


def _ref_content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _ref_ints(lineno: int, line: str, count: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"line {lineno}: expected {count} integers, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integers, got {line!r}") from None


def ref_parse_graph(text: str) -> Graph:
    """The graph reader as one walk over the content lines, each checked on
    its own."""
    lines = _ref_content_lines(text)
    if not lines:
        raise FormatError("line 1: missing 'n m' header")
    lineno, header = lines[0]
    n, m = _ref_ints(lineno, header, 2)
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative counts in header")
    if n > MAX_VERTICES:
        raise FormatError(
            f"line {lineno}: header announces {n} vertices, more than {MAX_VERTICES}"
        )
    body = lines[1:]
    if len(body) != m:
        raise FormatError(
            f"line {lineno}: header promises {m} edges, file has {len(body)} edge lines"
        )
    edges = []
    seen = set()
    for lineno, line in body:
        u, v = _ref_ints(lineno, line, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex out of range [0, {n})")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


def ref_sidecar_text(target: int, role_map: dict, source: dict) -> str:
    """The sidecar file's text, from the standard library's encoder."""
    payload = {"target": target, "role_map": role_map, "source": source}
    return json.dumps(payload, sort_keys=True) + "\n"


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise InputError(f"{what} refused: n={g.n} exceeds cap={cap}")


def treedepth_bf(g: Graph, cap: int = DEFAULT_TREEDEPTH_CAP) -> int:
    """Exact treedepth by the removal recursion, memoized on vertex masks.

    One vertex has depth 1; a disconnected graph takes the maximum over its
    components; otherwise 1 plus the best single-vertex removal.
    """
    _check_cap(g, cap, "treedepth brute force")
    memo: dict[int, int] = {}

    def td(mask: int) -> int:
        if mask == 0:
            return 0
        got = memo.get(mask)
        if got is not None:
            return got
        comps = components_mask(g, mask)
        if len(comps) > 1:
            val = max(td(c) for c in comps)
        elif mask.bit_count() == 1:
            val = 1
        else:
            val = 1 + min(td(mask & ~(1 << v)) for v in vertices_of(mask))
        memo[mask] = val
        return val

    return td(g.full_mask())


def vertex_cover_bf(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> int:
    """Minimum vertex cover size by subset scan."""
    _check_cap(g, cap, "vertex cover brute force")
    edge_list = sorted(g.edges)
    for mask in subset_masks_by_size(g.n, 0, g.n):
        if all((mask >> u) & 1 or (mask >> v) & 1 for (u, v) in edge_list):
            return mask.bit_count()
    raise AssertionError("unreachable: V itself covers all edges")


def ref_live_labels(expr: CExpression) -> dict:
    """Each node's live labels as a bitmask (bit k stands for label k+1): a
    label is live when, walking up from the node and renaming it at every
    relabel of it on the way, some join names it."""
    parent = {}
    for node in iter_nodes(expr.root):
        if isinstance(node, DisjointUnion):
            parent[node.left] = parent[node.right] = node
        elif not isinstance(node, Leaf):
            parent[node.child] = node
    live = {}
    for node in iter_nodes(expr.root):
        live[node] = 0
        for label in range(1, expr.label_count + 1):
            cur, up = label, parent.get(node)
            while up is not None:
                if isinstance(up, Relabel) and up.source == cur:
                    cur = up.target
                elif isinstance(up, Join) and cur in (up.first, up.second):
                    live[node] |= 1 << (label - 1)
                    break
                up = parent.get(up)
    return live


def ref_summary(
    g: Graph, labels: list[int], subset, live: int = -1, connected: bool = False
) -> tuple[dict, dict, dict] | None:
    """A selection's cw summary maps ``(inside, outside, pairs)``,
    recomputed from the graph: list the components on both sides, bucket
    them by label set (bit k stands for label k+1) cut down to the ``live``
    labels, and scan adjacent selected/unselected component pairs for the
    extremal sizes.  This is the meaning the solver's transitions are
    tested against.

    A component left with no live label never changes again.  Selected
    ones leave label set 0 at total 1 and minimum 1, however many there are;
    unselected ones are left out of ``outside``; a pair of two of them is
    left out when its gap is >= 0.  A selected one smaller than an adjacent
    unselected component, live or not, makes the summary None: it never
    grows, and the other never shrinks.  With ``connected``, the summary is
    also None when a selected component with no live label is not the only
    selected one."""
    smask = mask_of(subset)

    def side(mask: int) -> list[tuple[int, int, int]]:
        out = []
        for comp in components_mask(g, mask):
            lab = 0
            for v in vertices_of(comp):
                lab |= 1 << (labels[v] - 1)
            out.append((comp, lab & live, comp.bit_count()))
        return out

    ins, outs = side(smask), side(g.full_mask() & ~smask)
    inside: dict[int, tuple[int, int]] = {}
    for _, lab, size in ins:
        total, mn = inside.get(lab, (0, size))
        inside[lab] = (total + size, min(mn, size))
    if 0 in inside:
        if connected and len(ins) > 1:
            return None
        inside[0] = (1, 1)
    outside: dict[int, tuple[int, int]] = {}
    for _, lab, size in outs:
        if lab:
            total, mx = outside.get(lab, (0, size))
            outside[lab] = (total + size, max(mx, size))
    pairs: dict[tuple[int, int], tuple[int, int, int]] = {}
    for cmask, clab, csize in ins:
        reach = neighborhood_mask(g, cmask)
        for dmask, dlab, dsize in outs:
            if reach & dmask:
                if not clab and csize < dsize:
                    return None
                if not clab and not dlab:
                    continue
                a, b, d = pairs.get((clab, dlab), (csize, dsize, csize - dsize))
                pairs[clab, dlab] = (min(a, csize), max(b, dsize), min(d, csize - dsize))
    return inside, outside, pairs


# The paper's two refusal rules for "is there a safe set of size at most k"
# in a connected graph.  They only ever answer No when no such set can
# exist; a pass says nothing either way.


@dataclass(frozen=True)
class RuleOutcome:
    """Result of a refusal rule: either a definitive No with a reason, or a
    pass (for the high-degree rule, carrying the forced vertex set)."""

    passed: bool
    reason: str | None = None
    forced: frozenset[int] | None = None


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
    forced = frozenset(v for v in g.vertices() if len(g.neighbors(v)) >= 2 * k)
    if len(forced) > k:
        return RuleOutcome(
            False,
            f"{len(forced)} vertices have degree >= {2 * k}, but only {k} fit",
            forced,
        )
    for comp in components_mask(g, g.full_mask() & ~mask_of(forced)):
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
