"""Instance generators that embed domination problems into safe-set instances.

Two constructions are provided:

* ``ds_to_ss``: given (g, k), build a graph that has a connected safe set of
  a computed target size whenever g has a dominating set of size k.  The
  output has small pathwidth (at most 2k + 3) witnessed by an explicit path
  decomposition whose bags hold at most 2k + 4 vertices.

* ``rbds_to_ss``: given a bipartite red/blue instance and k, build a graph
  whose minimum safe set size is at most k + r + 1 exactly when k blue
  vertices dominate all red ones.  The output has small vertex cover number.

Both keep the id tables they build in ``ReductionOutput.ids``, and the
certificates and the path decomposition read those tables.  Both also emit
a per-vertex role map, written to the sidecar file, so an instance can be
audited from its artifacts alone; a test keeps it matching the tables.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass, field

from .graph import (
    MAX_VERTICES,
    Graph,
    InputError,
    PathDecomposition,
    check_vertex_set,
    is_connected_safe_set,
    mask_of,
    neighbors_closed,
)
from .oracle import DEFAULT_SUBSET_CAP, WitnessError, check_cap, least_hitting_set


@dataclass(frozen=True)
class Bigraph:
    """Bipartite instance: red vertices [0, r), blue vertices [0, b),
    edges as (red index, blue index) pairs."""

    r: int
    b: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.r < 0 or self.b < 0:
            raise InputError("negative part sizes")
        for (i, j) in self.edges:
            if not (0 <= i < self.r and 0 <= j < self.b):
                raise InputError(f"bigraph edge ({i}, {j}) out of range")

    def blues_of(self, red: int) -> frozenset[int]:
        return frozenset(j for (i, j) in self.edges if i == red)


@dataclass
class ReductionOutput:
    """A generated instance: the graph, the safe-set size target, a
    per-vertex role map, the source instance it was built from, and the
    construction's id tables.

    ``ids`` maps each role to its ids, located by that role's role-map
    fields: a dict keyed by the fields other than ``idx`` (one field as is,
    several as a tuple in role-map order), then a list indexed by ``idx``; a
    role without such fields is one id or one list.  ds also keeps
    ``members``, each column's sorted closed neighbourhood in the base graph."""

    graph: Graph
    target: int
    role_map: dict[int, dict] = field(repr=False)
    source: dict = field(repr=False)
    ids: dict = field(repr=False)


def _numbering() -> tuple[Callable[..., int], dict[int, dict]]:
    """An id allocator and the role map it fills: each call takes the next
    vertex id and records its role."""
    role_map: dict[int, dict] = {}

    def fresh(role: str, **fields) -> int:
        vid = len(role_map)
        role_map[vid] = {"role": role, **fields}
        return vid

    return fresh, role_map


def rbds_has_dominating_set(
    bg: Bigraph, k: int, cap: int = DEFAULT_SUBSET_CAP
) -> frozenset[int] | None:
    """The least blue set by (size, sorted ids) that dominates all reds, if
    one of size <= k exists.  Blue subsets are scanned exhaustively by
    ``oracle.least_hitting_set``, so more than ``cap`` blues are refused."""
    if k < 0:
        raise InputError("k must be nonnegative")
    check_cap(bg.b, cap, "red-blue domination brute force", "b")
    return least_hitting_set([mask_of(bg.blues_of(i)) for i in range(bg.r)], bg.b, k)


# --------------------------------------------------------------------------
# dominating set -> connected safe set
# --------------------------------------------------------------------------


def _check_output_size(count: int) -> None:
    """Refuse, before building it, an instance no graph file may hold."""
    if count > MAX_VERTICES:
        raise InputError(f"the instance would have {count} vertices, more than {MAX_VERTICES}")


def ds_target(g: Graph, k: int) -> int:
    """Size target of the dominating-set construction."""
    return 1 + k * g.n + k * (2 * g.m + g.n)  # 2m + n is the sum of |N[v]|


def ds_to_ss(g: Graph, k: int) -> ReductionOutput:
    """Build the safe-set instance for 'does g have a dominating set of size k'.

    The construction uses k long cycles (one per selected vertex), each split
    into n blocks of n positions; heavy guard sets pin the first position of
    every block; one gadget per column checks that the column's vertex is
    dominated; a universal vertex glues everything together.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if g.n < 2:
        raise InputError("base graph needs at least 2 vertices")
    n = g.n
    kp = ds_target(g, k)
    nsq = n * n
    guard_count = kp - n + 1
    closed_sizes = 2 * g.m + n  # sum of |N[b]| over the columns b
    # lines, guards, per column a center with pads and per (line, member)
    # a choice with kp - 1 pads and a release, and the universal vertex
    _check_output_size(k * nsq + k * n * guard_count + n * (1 + kp) + k * closed_sizes * kp + 1)

    fresh, role_map = _numbering()
    line_v = {(j, p): fresh("line", line=j, pos=p) for j in range(k) for p in range(nsq)}
    guards = {
        (j, b): [fresh("guard", line=j, block=b, idx=t) for t in range(guard_count)]
        for j in range(k)
        for b in range(n)
    }

    members: dict[int, list[int]] = {b: sorted(neighbors_closed(g, b)) for b in range(n)}
    center: dict[int, int] = {}
    center_pads: dict[int, list[int]] = {}
    choice: dict[tuple[int, int, int], int] = {}
    choice_pads: dict[tuple[int, int, int], list[int]] = {}
    release: dict[tuple[int, int, int], int] = {}
    for b in range(n):
        deg1 = len(members[b])
        center[b] = fresh("center", column=b)
        center_pads[b] = [fresh("center_pad", column=b, idx=t) for t in range(kp - k * deg1)]
        for j in range(k):
            for w in members[b]:
                choice[(b, j, w)] = fresh("choice", column=b, line=j, member=w)
                choice_pads[(b, j, w)] = [
                    fresh("choice_pad", column=b, line=j, member=w, idx=t) for t in range(kp - 1)
                ]
                release[(b, j, w)] = fresh("release", column=b, line=j, member=w)
    universal = fresh("universal")

    edges: list[tuple[int, int]] = []
    for j in range(k):
        for p in range(nsq):
            edges.append((line_v[(j, p)], line_v[(j, (p + 1) % nsq)]))
    for (j, b), gs in guards.items():
        anchor = line_v[(j, b * n)]
        edges.extend((gv, anchor) for gv in gs)
    for b in range(n):
        edges.extend((center[b], w) for w in center_pads[b])
        for j in range(k):
            for w in members[b]:
                x = choice[(b, j, w)]
                edges.extend((x, q) for q in choice_pads[(b, j, w)])
                edges.append((x, release[(b, j, w)]))
                edges.append((center[b], release[(b, j, w)]))
                edges.append((x, line_v[(j, b * n + w)]))
    edges.extend((universal, v) for v in range(universal))

    graph = Graph(len(role_map), edges)
    source = {"kind": "ds", "n": n, "edges": sorted(map(list, g.edges)), "k": k}
    ids = {
        "line": line_v,
        "guard": guards,
        "center": center,
        "center_pad": center_pads,
        "choice": choice,
        "choice_pad": choice_pads,
        "release": release,
        "universal": universal,
        "members": members,
    }
    return ReductionOutput(graph, kp, role_map, source, ids)


def ds_forward_certificate(g: Graph, K, output: ReductionOutput) -> frozenset[int]:
    """Connected safe set of the target size from a dominating set of g.

    K may have fewer than k vertices; it is padded to exactly k with the
    smallest unused ids (a superset of a dominating set still dominates),
    since the construction needs one selected vertex per line.
    """
    k = output.source["k"]
    n = output.source["n"]
    K = set(check_vertex_set(g, K, "dominating set"))
    for v in g.vertices():
        if not (neighbors_closed(g, v) & K):
            raise InputError(f"K does not dominate vertex {v}")
    if len(K) > k:
        raise InputError(f"|K|={len(K)} exceeds k={k}")
    pad = (v for v in g.vertices() if v not in K)
    while len(K) < k:
        nxt = next(pad, None)
        if nxt is None:
            raise InputError("cannot pad K to size k: k exceeds the vertex count")
        K.add(nxt)

    ids = output.ids
    line_v, choice = ids["line"], ids["choice"]
    selected = sorted(K)
    line_of = {w: j for j, w in enumerate(selected)}
    s: set[int] = {ids["universal"]}
    for j, w in enumerate(selected):
        s.update(line_v[(j, w + t * n)] for t in range(n))
    for b, closed in ids["members"].items():
        w_star = min(v for v in closed if v in K)
        j_star = line_of[w_star]
        for j in range(k):
            s.update(choice[(b, j, w)] for w in closed if (j, w) != (j_star, w_star))
        s.add(ids["release"][(b, j_star, w_star)])
    if len(s) != output.target:
        raise WitnessError(f"certificate has {len(s)} vertices, target is {output.target}")
    return frozenset(s)


def _decomposition_of_order(g: Graph, order: list[int]) -> PathDecomposition:
    """Bag i holds ``order[i]`` and every earlier vertex with a neighbour at
    position >= i.  Any order of all of g's vertices gives a valid path
    decomposition (each edge lies in the bag of its later end, each vertex v
    in the bags up to ``last[v]``); only the bag sizes depend on the order.

    Each vertex is filed once under its last position.  A step inserts one
    vertex into the sorted active list, copies the list as its bag and drops
    the vertices filed there."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    last = pos.copy()  # the largest position in v's closed neighbourhood
    for u, v in g.edges:  # not the masks: each holds the universal vertex's bit
        if pos[v] > last[u]:
            last[u] = pos[v]
        if pos[u] > last[v]:
            last[v] = pos[u]
    expiring: list[list[int]] = [[] for _ in order]
    for v in order:
        expiring[last[v]].append(v)
    active: list[int] = []
    bags = []
    for v, gone in zip(order, expiring):
        insort(active, v)
        bags.append(tuple(active))
        for u in gone:
            active.remove(u)
    return PathDecomposition.of_sorted(tuple(bags))


def ds_path_decomposition(output: ReductionOutput) -> PathDecomposition:
    """Path decomposition of the generated graph: one bag per vertex, each
    of at most 2k + 4 vertices, so pathwidth at most 2k + 3.

    The bags are the sweep of one vertex order.  The universal vertex and
    the k line starts come first and stay in every bag.  Then, per block:
    its center and center pads, and the k line paths one after another,
    each line vertex followed by its leaves (its guards at the block's first
    position; its choice, choice pads and release).  A bag holds those k + 1,
    the center, one vertex per line, and at most a choice and one leaf.
    """
    k = output.source["k"]
    n = output.source["n"]
    ids = output.ids
    line_v, choice = ids["line"], ids["choice"]
    order = [ids["universal"], *(line_v[(j, 0)] for j in range(k))]
    for b in range(n):
        order.append(ids["center"][b])
        order.extend(ids["center_pad"][b])
        for j in range(k):
            for q in range(n):
                if b or q:
                    order.append(line_v[(j, b * n + q)])
                if q == 0:
                    order.extend(ids["guard"][(j, b)])
                if (b, j, q) in choice:
                    order.append(choice[(b, j, q)])
                    order.extend(ids["choice_pad"][(b, j, q)])
                    order.append(ids["release"][(b, j, q)])
    return _decomposition_of_order(output.graph, order)


# --------------------------------------------------------------------------
# red-blue domination -> safe set
# --------------------------------------------------------------------------


def rbds_target(bg: Bigraph, k: int) -> int:
    return k + bg.r + 1


def rbds_to_ss(bg: Bigraph, k: int) -> ReductionOutput:
    """Build the safe-set instance for 'do k blue vertices dominate all reds'.

    A hub adjacent to every blue vertex carries heavy pendant sets, as does
    every red vertex; each red vertex is additionally tied to a star whose
    size equals the target, which forces any small safe set to contain the
    hub and all reds.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if bg.r < 1:
        raise InputError("need at least one red vertex")
    s = rbds_target(bg, k)
    # reds, blues, the hub with 2s pendants, and per red 2s pendants plus a
    # star of s vertices
    _check_output_size(bg.r + bg.b + 1 + 2 * s + 3 * bg.r * s)

    fresh, role_map = _numbering()
    reds = [fresh("red", index=i) for i in range(bg.r)]
    blues = [fresh("blue", index=j) for j in range(bg.b)]
    hub = fresh("hub")
    hub_pendants = [fresh("hub_pendant", idx=t) for t in range(2 * s)]
    red_pendants = {
        i: [fresh("red_pendant", red=i, idx=t) for t in range(2 * s)] for i in range(bg.r)
    }
    star_center = {i: fresh("star_center", red=i) for i in range(bg.r)}
    star_leaves = {i: [fresh("star_leaf", red=i, idx=t) for t in range(s - 1)] for i in range(bg.r)}

    edges: list[tuple[int, int]] = []
    edges.extend((reds[i], blues[j]) for (i, j) in sorted(bg.edges))
    edges.extend((hub, bv) for bv in blues)
    edges.extend((hub, p) for p in hub_pendants)
    for i in range(bg.r):
        edges.extend((reds[i], p) for p in red_pendants[i])
        edges.append((reds[i], star_center[i]))
        edges.extend((star_center[i], leaf) for leaf in star_leaves[i])

    graph = Graph(len(role_map), edges)
    source = {"kind": "rbds", "r": bg.r, "b": bg.b, "edges": sorted(map(list, bg.edges)), "k": k}
    ids = {
        "red": reds,
        "blue": blues,
        "hub": hub,
        "hub_pendant": hub_pendants,
        "red_pendant": red_pendants,
        "star_center": star_center,
        "star_leaf": star_leaves,
    }
    return ReductionOutput(graph, s, role_map, source, ids)


def rbds_forward_certificate(bg: Bigraph, D, output: ReductionOutput) -> frozenset[int]:
    """Connected safe set of exactly the target size from a blue dominating set.

    The stated set is the hub, all reds, and D.  When |D| < k the set is
    topped up to the target size with unused blues, then hub pendants; a
    smaller set would sit next to a strictly larger star component and fail
    verification.
    """
    k = output.source["k"]
    s = output.target
    D = frozenset(D)
    for j in D:
        if not (0 <= j < bg.b):
            raise InputError(f"blue index {j} out of range")
    for i in range(bg.r):
        if not (bg.blues_of(i) & D):
            raise InputError(f"D does not dominate red vertex {i}")
    if len(D) > k:
        raise InputError(f"|D|={len(D)} exceeds k={k}")

    ids = output.ids
    blues = ids["blue"]
    chosen = {ids["hub"], *ids["red"], *(blues[j] for j in D)}
    fill = [blues[j] for j in range(bg.b) if j not in D] + ids["hub_pendant"]
    for extra in fill:
        if len(chosen) >= s:
            break
        chosen.add(extra)
    if len(chosen) != s or not is_connected_safe_set(output.graph, chosen):
        raise WitnessError(f"certificate {sorted(chosen)} is not a connected safe set of size {s}")
    return frozenset(chosen)
