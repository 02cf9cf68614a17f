"""Core graph type, component machinery, and the safe-set verifiers.

A set S of vertices is *safe* when no connected component of the subgraph
induced by S has a strictly larger component of G - S next to it; it is a
*connected safe set* when additionally the subgraph induced by S is
connected.

The verifiers have two roles.  The mask verifiers (``is_safe_mask``,
``is_connected_safe_mask``) only decide, and stop at the first proof either
way; they are the inner loop of the exact routes.  ``explain_safety``
splits both S and G - S in full and reports the first violating pair.  It
does not call the deciders, and it is the check that
``oracle.verified_result`` runs on every reported witness, so a witness
the deciders accept wrongly never reaches a result.

Everything here is pure and immutable, hence safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union


# Largest vertex count of a graph the package reads or writes: graph and
# bigraph headers (r + b), expression labels and generated instances.
MAX_VERTICES = 1 << 20


class InputError(ValueError):
    """An argument violates an operation's contract."""


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is kept as one integer bitmask per vertex; the masks make the
    subset scans in the brute-force solvers cheap.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        masks = [0] * n
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.edges = frozenset(seen)
        self._masks = tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(vertices_of(self._masks[v]))

    def adjacency_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def max_degree(g: Graph) -> int:
    return max((m.bit_count() for m in g._masks), default=0)


def neighbors_closed(g: Graph, v: int) -> frozenset[int]:
    return g.neighbors(v) | {v}


def check_vertex_set(g: Graph, s: Iterable[int], name: str = "vertex set") -> frozenset[int]:
    """Freeze ``s`` and reject members outside [0, n)."""
    out = frozenset(s)
    for v in out:
        if not (0 <= v < g.n):
            raise InputError(f"{name} contains vertex {v}, outside [0, {g.n})")
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def precedes(a: int, b: int) -> bool:
    """Whether vertex set ``a`` comes strictly before ``b`` (both masks) in
    the order of (size, sorted ids): fewer vertices first, then the set
    holding the lowest vertex where they differ.  This is the package's one
    tie-break rule between candidate sets."""
    c = a.bit_count() - b.bit_count()
    return c < 0 or not c and (d := a ^ b) & -d & a != 0


def neighborhood_mask(g: Graph, mask: int) -> int:
    """Union of open neighborhoods of the vertices in ``mask``."""
    nbr = 0
    m = mask
    while m:
        b = m & -m
        nbr |= g._masks[b.bit_length() - 1]
        m ^= b
    return nbr


def components_mask(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``.

    Returned in ascending order of their smallest member, which keeps every
    downstream choice deterministic.
    """
    masks = g._masks
    comps = []
    rem = mask  # the vertices no component has taken yet
    while rem:
        comp = frontier = rem & -rem
        rem ^= comp
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= masks[b.bit_length() - 1]
                frontier ^= b
            frontier = nxt & rem
            rem ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def components(g: Graph, within: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by ``within``."""
    w = check_vertex_set(g, within, "within")
    return [frozenset(vertices_of(c)) for c in components_mask(g, mask_of(w))]


def bfs_prefix(g: Graph, start: int, allowed: int, count: int) -> tuple[list[int], int]:
    """The first ``count`` >= 1 vertices that a BFS from ``start``, a member
    of ``allowed``, discovers inside ``allowed``, as a list and as a mask
    (fewer when its component is smaller).  Neighbors are expanded in
    ascending id order, and the walk stops at the ``count``-th vertex."""
    masks = g._masks
    rest = allowed ^ 1 << start
    out = [start]
    want = count - 1
    for v in out:  # the loop also visits what it appends
        new = masks[v] & rest
        while new and want:
            b = new & -new
            new ^= b
            rest ^= b
            out.append(b.bit_length() - 1)
            want -= 1
        if not want:
            break
    return out, allowed ^ rest


def bfs_order(g: Graph, start: int, within_mask: int) -> Iterator[int]:
    """Breadth-first visit order from ``start`` inside ``within_mask``.

    Neighbors are expanded in ascending id order, so the order is unique.
    """
    if not (within_mask >> start) & 1:
        raise InputError("bfs start vertex not inside the allowed set")
    yield from bfs_prefix(g, start, within_mask, g.n)[0]


def _decide_safe(g: Graph, smask: int, connected: bool) -> bool:
    """The decision behind both mask verifiers, stopping at the first proof.

    Only components of G - S next to S can break safety, and one with more
    than |S| vertices breaks it whatever S's components are, so each is
    grown from N(S) only until it passes |S|.  S's components are split
    only when every leftover component next to S stayed within |S|.  The
    two searches are written out rather than calling a helper per
    component: on calls recorded from nd and the oracle, that helper made
    the decision 10-20 % slower.
    """
    if not smask:
        return False
    masks = g._masks
    if connected:
        # one BFS inside S from its lowest vertex; what it reaches is N(S)
        comp = frontier = smask & -smask
        reach = 0
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= masks[b.bit_length() - 1]
                frontier ^= b
            reach |= nxt
            frontier = nxt & smask & ~comp
            comp |= frontier
        if comp != smask:
            return False
    else:
        reach = neighborhood_mask(g, smask)
    size = smask.bit_count()
    rest = ~smask
    seeds = reach & rest
    touching = []  # (leftover component, the vertices of S next to it)
    while seeds:
        comp = frontier = seeds & -seeds
        reach = 0
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= masks[b.bit_length() - 1]
                frontier ^= b
            reach |= nxt
            frontier = nxt & rest & ~comp
            comp |= frontier
            if comp.bit_count() > size:
                return False
        touching.append((comp, reach & smask))
        seeds &= ~comp
    if connected:
        return True
    s_comps = components_mask(g, smask)
    return all(
        c.bit_count() <= s.bit_count() for c, near in touching for s in s_comps if s & near
    )


def is_safe_mask(g: Graph, smask: int) -> bool:
    return _decide_safe(g, smask, False)


def is_safe_set(g: Graph, s: Iterable[int]) -> bool:
    """Verifier for safe sets.  The empty set is not safe by definition."""
    sm = mask_of(check_vertex_set(g, s))
    return is_safe_mask(g, sm)


def is_connected_safe_mask(g: Graph, smask: int) -> bool:
    return _decide_safe(g, smask, True)


def is_connected_safe_set(g: Graph, s: Iterable[int]) -> bool:
    """Verifier for connected safe sets."""
    return is_connected_safe_mask(g, mask_of(check_vertex_set(g, s)))


@dataclass(frozen=True)
class SafetyViolation:
    """Why a candidate set failed verification.

    ``kind`` is one of "empty", "larger-neighbor", "disconnected".  For
    "larger-neighbor", ``component`` is a component of the candidate and
    ``neighbor`` a strictly larger adjacent component of the rest.
    """

    kind: str
    component: tuple[int, ...] = ()
    neighbor: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.kind == "empty":
            return "candidate set is empty"
        if self.kind == "disconnected":
            return f"induced subgraph splits into components, first two: {self.component} / {self.neighbor}"
        return f"component {self.component} has larger neighbor component {self.neighbor}"


def explain_safety(g: Graph, s: Iterable[int], connected: bool = False) -> SafetyViolation | None:
    """Return None when s verifies, else the first violation found."""
    sm = mask_of(check_vertex_set(g, s))
    if sm == 0:
        return SafetyViolation("empty")
    s_comps = components_mask(g, sm)
    if connected and len(s_comps) > 1:
        return SafetyViolation(
            "disconnected",
            tuple(vertices_of(s_comps[0])),
            tuple(vertices_of(s_comps[1])),
        )
    rest_comps = components_mask(g, g.full_mask() & ~sm)
    for comp in s_comps:
        nbr = neighborhood_mask(g, comp)
        size = comp.bit_count()
        for other in rest_comps:
            if nbr & other and other.bit_count() > size:
                return SafetyViolation(
                    "larger-neighbor", tuple(vertices_of(comp)), tuple(vertices_of(other))
                )
    return None


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph with vertices renumbered 0..k-1.

    Returns the subgraph and the sorted list of original ids; position i of
    the list is the original identity of new vertex i.
    """
    ids = sorted(check_vertex_set(g, vertices))
    index = {v: i for i, v in enumerate(ids)}
    keep = mask_of(ids)
    edges = [
        (i, index[w])
        for i, v in enumerate(ids)
        for w in vertices_of(g._masks[v] & keep)
        if w > v
    ]
    return Graph(len(ids), edges), ids


class PathDecomposition:
    """A sequence of bags of vertices.

    ``bags`` is a tuple of bags, each a tuple of distinct vertices in
    ascending order: the form a decomposition file holds.  The constructor
    brings any iterable of vertex iterables into that form.
    """

    __slots__ = ("bags",)

    def __init__(self, bags: Iterable[Iterable[int]]):
        self.bags = tuple(tuple(sorted(set(b))) for b in bags)

    @classmethod
    def of_sorted(cls, bags: tuple[tuple[int, ...], ...]) -> PathDecomposition:
        """Wrap bags already in that form, without sorting or copying them."""
        pd = cls.__new__(cls)
        pd.bags = bags
        return pd

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathDecomposition):
            return NotImplemented
        return self.bags == other.bags

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={len(self.bags)})"


@dataclass(frozen=True)
class DecompositionViolation:
    """First failed decomposition condition with a witness."""

    condition: str  # "vertex-coverage" | "edge-coverage" | "contiguity"
    witness: tuple

    def describe(self) -> str:
        return f"{self.condition} violated at {self.witness}"


def validate_path_decomposition(
    g: Graph, pd: PathDecomposition
) -> Union[int, DecompositionViolation]:
    """Check the three path-decomposition conditions.

    Returns the maximum bag size when the decomposition is valid, otherwise
    a violation report for the first condition that fails (conditions are
    checked in the order: vertex coverage, edge coverage, contiguity).
    Violations are data, not errors.
    """
    occ: dict[int, set[int]] = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            if not (0 <= v < g.n):
                raise InputError(f"bag member {v} out of range for n={g.n}")
            occ.setdefault(v, set()).add(i)
    for v in g.vertices():
        if v not in occ:
            return DecompositionViolation("vertex-coverage", (v,))
    for (u, v) in sorted(g.edges):
        if not (occ.get(u, set()) & occ.get(v, set())):
            return DecompositionViolation("edge-coverage", (u, v))
    for v in g.vertices():
        hits = occ.get(v)
        if hits and max(hits) - min(hits) + 1 != len(hits):
            return DecompositionViolation("contiguity", (v,))
    return max((len(bag) for bag in pd.bags), default=0)
