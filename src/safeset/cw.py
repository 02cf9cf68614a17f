"""Safe-set solver running over construction trees.

The state kept per tree node is a family of summaries, one for each
achievable way to select vertices inside the node's graph.  A summary
records, per exact label set, the combined and extremal sizes of the
selected and unselected components carrying that label set, plus extremal
sizes over adjacent selected/unselected component pairs.  Distinct
selections often collapse to the same summary, which keeps the families
far smaller than the number of selections; each summary retains one
concrete witness selection so answers can be verified directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .cexpr import (
    CExpression,
    DisjointUnion,
    Leaf,
    Node,
    Relabel,
    _build,
    check_expression,
    iter_nodes,
)
from .graph import Graph, InputError
from .oracle import SolveResult, verified_result

PairKey = tuple[int, int]


@dataclass(frozen=True, eq=False)
class DpEntry:
    """Summary of one selection within a subtree's graph.

    Maps are keyed by label-set bitmask (bit k stands for label k+1) and
    store only label sets that actually have components:

    - ``inside``: label set -> (total size, smallest component) of the
      selected components carrying exactly that label set;
    - ``outside``: label set -> (total size, largest component) of the
      unselected ones;
    - ``pairs``: (selected label set, unselected label set) -> (smallest
      selected, largest unselected, smallest selected-minus-unselected gap)
      over adjacent component pairs.

    ``witness`` is one selection realizing the summary; ``signature`` keys
    the summary without it.
    """

    inside: dict[int, tuple[int, int]]
    outside: dict[int, tuple[int, int]]
    pairs: dict[PairKey, tuple[int, int, int]]
    witness: frozenset[int]

    @cached_property
    def signature(self) -> tuple:
        # column by column, every total ahead of any extreme: the family
        # order decides which witness each summary keeps (see _dedup), and
        # the tests pin the witnesses this order yields
        inside = sorted(self.inside.items())
        outside = sorted(self.outside.items())
        pairs = sorted(self.pairs.items())
        return (
            tuple((m, t) for m, (t, _) in inside),
            tuple((m, t) for m, (t, _) in outside),
            tuple((m, s) for m, (_, s) in inside),
            tuple((m, s) for m, (_, s) in outside),
            tuple((p, a) for p, (a, _, _) in pairs),
            tuple((p, b) for p, (_, b, _) in pairs),
            tuple((p, d) for p, (_, _, d) in pairs),
        )

    def selected_total(self) -> int:
        return sum(t for t, _ in self.inside.values())


# How two buckets under the same key pool, one rule per map.
def _pool_inside(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] + y[0], min(x[1], y[1]))


def _pool_outside(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] + y[0], max(x[1], y[1]))


def _pool_pair(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    return (min(x[0], y[0]), max(x[1], y[1]), min(x[2], y[2]))


def _pool_into(into: dict, items: Iterable[tuple], rule) -> dict:
    """Add (key, bucket) items to ``into``, pooling buckets that share a key."""
    for key, value in items:
        old = into.get(key)
        into[key] = value if old is None else rule(old, value)
    return into


def _dedup(entries: Iterable[DpEntry]) -> list[DpEntry]:
    """Collapse equal summaries keeping the first witness, sort for output."""
    seen: dict[tuple, DpEntry] = {}
    for entry in entries:
        seen.setdefault(entry.signature, entry)
    return [seen[sig] for sig in sorted(seen)]


# ---------------------------------------------------------------------------
# transitions


def dp_leaf(label: int, vertex: int = 0) -> list[DpEntry]:
    """Summaries for a single created vertex: left out, or selected."""
    if label < 1:
        raise InputError("labels are positive")
    m = 1 << (label - 1)
    skipped = DpEntry({}, {m: (1, 1)}, {}, frozenset())
    taken = DpEntry({m: (1, 1)}, {}, {}, frozenset({vertex}))
    return _dedup([skipped, taken])


def dp_union(left: list[DpEntry], right: list[DpEntry]) -> list[DpEntry]:
    """Side-by-side placement: aggregates combine pointwise, nothing merges."""

    def combined(a: DpEntry, b: DpEntry) -> DpEntry:
        return DpEntry(
            _pool_into(dict(a.inside), b.inside.items(), _pool_inside),
            _pool_into(dict(a.outside), b.outside.items(), _pool_outside),
            _pool_into(dict(a.pairs), b.pairs.items(), _pool_pair),
            a.witness | b.witness,
        )

    return _dedup(combined(a, b) for a in left for b in right)


def dp_relabel(source: int, target: int, child: list[DpEntry]) -> list[DpEntry]:
    """Rename a label: buckets whose label sets now coincide fuse."""
    if source == target:
        raise InputError("relabel needs two distinct labels")
    sbit = 1 << (source - 1)
    tbit = 1 << (target - 1)

    def remap(mask: int) -> int:
        return (mask & ~sbit) | tbit if mask & sbit else mask

    out = []
    for e in child:
        inside = _pool_into({}, ((remap(m), v) for m, v in e.inside.items()), _pool_inside)
        outside = _pool_into({}, ((remap(m), v) for m, v in e.outside.items()), _pool_outside)
        pairs = _pool_into(
            {}, (((remap(p), remap(q)), v) for (p, q), v in e.pairs.items()), _pool_pair
        )
        out.append(DpEntry(inside, outside, pairs, e.witness))
    return _dedup(out)


def _fuse(
    buckets: dict[int, tuple[int, int]], bit_i: int, bit_j: int
) -> tuple[dict[int, tuple[int, int]], int | None]:
    """One side of a join: its buckets after the join, and the fused label set.

    Components whose label set meets {i, j} fuse into one on a side exactly
    when that side holds both an i-vertex and a j-vertex; the fused
    component is then the only one in its bucket, so its total is also its
    extreme.  Without fusion the buckets are returned unchanged with None.
    """
    touch = bit_i | bit_j
    touched = [m for m in buckets if m & touch]
    if not (any(m & bit_i for m in touched) and any(m & bit_j for m in touched)):
        return buckets, None
    out = {m: v for m, v in buckets.items() if not m & touch}
    fused = 0
    total = 0
    for m in touched:
        fused |= m
        total += buckets[m][0]
    out[fused] = (total, total)
    return out, fused


def _join_entry(bit_i: int, bit_j: int, e: DpEntry) -> DpEntry:
    touch = bit_i | bit_j
    inside, fused_in = _fuse(e.inside, bit_i, bit_j)
    outside, fused_out = _fuse(e.outside, bit_i, bit_j)

    items: list[tuple[PairKey, tuple[int, int, int]]] = []
    # carry over existing adjacencies; a fused side re-values to the fused
    # component's size, and the gap is then recomputed from the new sizes
    for (q1, q2), (a, b, d) in e.pairs.items():
        # the fused mask can coincide with q1 or q2, so track the fusion
        # itself, not a key change
        revalued = False
        if fused_in is not None and q1 & touch:
            q1, a, revalued = fused_in, inside[fused_in][0], True
        if fused_out is not None and q2 & touch:
            q2, b, revalued = fused_out, outside[fused_out][0], True
        if revalued:
            d = a - b
        items.append(((q1, q2), (a, b, d)))
    # new adjacencies: every selected component holding an i-vertex now
    # touches every unselected component holding a j-vertex, and vice versa
    for m1, (_, mn) in inside.items():
        if not m1 & touch:
            continue
        for m2, (_, mx) in outside.items():
            if (m1 & bit_i and m2 & bit_j) or (m1 & bit_j and m2 & bit_i):
                items.append(((m1, m2), (mn, mx, mn - mx)))
    return DpEntry(inside, outside, _pool_into({}, items, _pool_pair), e.witness)


def dp_join(first: int, second: int, child: list[DpEntry]) -> list[DpEntry]:
    """Connect two label classes completely; assumes no such edge exists yet."""
    if first == second:
        raise InputError("join needs two distinct labels")
    bit_i = 1 << (first - 1)
    bit_j = 1 << (second - 1)
    return _dedup(_join_entry(bit_i, bit_j, e) for e in child)


def dp_evaluate(expr: CExpression) -> dict[Node, list[DpEntry]]:
    """Run the program bottom-up; returns the summary family at every node.

    Leaves come out of the post-order walk left to right, so counting them
    numbers the vertices as ``eval_graph`` does.
    """
    tables: dict[Node, list[DpEntry]] = {}
    vertex = 0
    for node in iter_nodes(expr.root):
        if isinstance(node, Leaf):
            tables[node] = dp_leaf(node.label, vertex)
            vertex += 1
        elif isinstance(node, DisjointUnion):
            tables[node] = dp_union(tables[node.left], tables[node.right])
        elif isinstance(node, Relabel):
            tables[node] = dp_relabel(node.source, node.target, tables[node.child])
        else:
            tables[node] = dp_join(node.first, node.second, tables[node.child])
    return tables


# ---------------------------------------------------------------------------
# solving


def solve_cw(expr: CExpression, connected: bool = False) -> SolveResult:
    """Minimum safe set of the expression's graph, via the tree program.

    A summary is acceptable when something is selected and every adjacent
    selected/unselected pair has gap >= 0.  For connected solutions, a
    summary qualifies when its selection is one component: a single label
    set whose smallest component is as large as its total.
    """
    t0 = time.perf_counter()
    check_expression(expr)
    labels, edges, offender = _build(expr)
    if offender is not None:
        where = f" at line {offender.pos[0]}, col {offender.pos[1]}" if offender.pos else ""
        raise InputError(
            f"join of labels {offender.first}, {offender.second}{where} "
            "re-adds an existing edge"
        )
    g = Graph(len(labels), edges)
    root_entries = dp_evaluate(expr)[expr.root]

    candidates = []
    for e in root_entries:
        if e.selected_total() < 1:
            continue
        if any(d < 0 for _, _, d in e.pairs.values()):
            continue
        if connected and (len(e.inside) != 1 or any(t != s for t, s in e.inside.values())):
            continue
        candidates.append(e)
    best = min(candidates, key=lambda e: (e.selected_total(), sorted(e.witness)), default=None)
    return verified_result(g, None if best is None else best.witness, "cw", connected, t0)
