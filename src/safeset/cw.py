"""Safe-set solver running over construction trees.

The state kept per tree node is a family of summaries, one for each
achievable way to select vertices inside the node's graph.  A summary
records, per exact label set, the combined and extremal sizes of the
selected and unselected components carrying that label set, plus extremal
sizes over adjacent selected/unselected component pairs.  Distinct
selections often collapse to the same summary, which keeps the families
far smaller than the number of selections; each summary retains its
least witness selection (first by sorted vertex ids), so the answer is the
least minimum set and can be verified directly.
"""

from __future__ import annotations

import time
from operator import add
from typing import Iterable, NamedTuple

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
from .graph import Graph, InputError, vertices_of
from .oracle import SolveResult, verified_result

Column = tuple[tuple, ...]


class DpEntry(NamedTuple):
    """Summary of one selection within a subtree's graph.

    ``key`` holds seven columns, each a tuple of ``(label set, value)``
    items sorted by label set (a bitmask, bit k standing for label k+1);
    only label sets that actually have components appear:

    0. inside totals: combined size of the selected components carrying
       exactly that label set;
    1. outside totals: the same for the unselected components;
    2. inside minima: the smallest such selected component;
    3. outside maxima: the largest such unselected component;
    4.-6. over adjacent component pairs, keyed by (selected label set,
       unselected label set): the smallest selected component, the largest
       unselected one, and the smallest selected-minus-unselected gap.

    ``witness`` is the least selection realizing the summary (see
    ``_dedup``), as a vertex bitmask (bit v stands for vertex v).
    """

    key: tuple[Column, ...]
    witness: int


# How two values under the same label set pool, one rule per column.
_RULES = (add, add, min, max, min, max, min)


def _pooled(col: Column, items: Iterable[tuple], rule) -> Column:
    """The column ``col`` with (label set, value) items pooled in by ``rule``."""
    d = dict(col)
    for k, v in items:
        old = d.get(k)
        d[k] = v if old is None else rule(old, v)
    return tuple(sorted(d.items()))


def _dedup(entries: Iterable[tuple[tuple, int]]) -> list[DpEntry]:
    """Collapse equal summaries, each keeping its least witness.

    Equal keys select equally many vertices (column 0 sums to the count),
    so the least witness is the one holding the lowest differing vertex.
    Equal keys have identical futures and witnesses of disjoint subtrees
    combine by union, which leaves that vertex in place, so the root keeps
    every summary's least selection.
    """
    seen: dict[tuple, int] = {}
    for key, witness in entries:
        old = seen.get(key)
        if old is None or (d := old ^ witness) & -d & witness:
            seen[key] = witness
    return [DpEntry(key, witness) for key, witness in seen.items()]


# ---------------------------------------------------------------------------
# transitions


def dp_leaf(label: int, vertex: int = 0) -> list[DpEntry]:
    """Summaries for a single created vertex: left out, or selected."""
    if label < 1:
        raise InputError("labels are positive")
    one = ((1 << (label - 1), 1),)
    skipped = ((), one, (), one, (), (), ())
    taken = (one, (), one, (), (), (), ())
    return _dedup([(skipped, 0), (taken, 1 << vertex)])


def dp_union(left: list[DpEntry], right: list[DpEntry]) -> list[DpEntry]:
    """Side-by-side placement: aggregates combine pointwise, nothing merges."""

    def combined(a: DpEntry, b: DpEntry) -> tuple[tuple, int]:
        key = tuple(
            _pooled(x, y, rule) if x and y else x or y
            for x, y, rule in zip(a.key, b.key, _RULES)
        )
        return key, a.witness | b.witness

    return _dedup(combined(a, b) for a in left for b in right)


def dp_relabel(source: int, target: int, child: list[DpEntry]) -> list[DpEntry]:
    """Rename a label: buckets whose label sets now coincide fuse."""
    if source == target:
        raise InputError("relabel needs two distinct labels")
    sbit = 1 << (source - 1)
    tbit = 1 << (target - 1)

    def remap(mask: int) -> int:
        return (mask & ~sbit) | tbit if mask & sbit else mask

    def renamed(cols: tuple[Column, ...], rules: tuple, new: list) -> tuple[Column, ...]:
        """Columns sharing one list of label sets, moved to the ``new`` ones
        and pooled where those coincide."""
        return tuple(
            _pooled((), zip(new, [v for _, v in col]), rule) for col, rule in zip(cols, rules)
        )

    def relabelled(e: DpEntry) -> tuple[tuple, int]:
        it, ot, imin, omax, sel, unsel, gap = e.key
        if any(m & sbit for m, _ in it):
            it, imin = renamed((it, imin), (add, min), [remap(m) for m, _ in it])
        if any(m & sbit for m, _ in ot):
            ot, omax = renamed((ot, omax), (add, max), [remap(m) for m, _ in ot])
        if any((p | q) & sbit for (p, q), _ in sel):
            sel, unsel, gap = renamed(
                (sel, unsel, gap), (min, max, min), [(remap(p), remap(q)) for (p, q), _ in sel]
            )
        return (it, ot, imin, omax, sel, unsel, gap), e.witness

    return _dedup(relabelled(e) for e in child)


def _fuse(
    totals: Column, extremes: Column, bit_i: int, bit_j: int
) -> tuple[Column, Column, int | None, int]:
    """One side of a join: its two columns after the join, the fused label
    set and the fused component's size.

    Components whose label set meets {i, j} fuse into one on a side exactly
    when that side holds both an i-vertex and a j-vertex; the fused
    component is then the only one in its bucket, so its total is also its
    extreme.  Without fusion the columns are returned unchanged with None.
    """
    touch = bit_i | bit_j
    fused = total = 0
    for m, t in totals:
        if m & touch:
            fused |= m
            total += t
    if fused & touch != touch:
        return totals, extremes, None, 0
    top = [(fused, total)]
    return (
        tuple(sorted([i for i in totals if not i[0] & touch] + top)),
        tuple(sorted([i for i in extremes if not i[0] & touch] + top)),
        fused,
        total,
    )


def _join_entry(bit_i: int, bit_j: int, e: DpEntry) -> tuple[tuple, int]:
    touch = bit_i | bit_j
    it, ot, imin, omax, sel, unsel, gap = e.key
    it, imin, fused_in, size_in = _fuse(it, imin, bit_i, bit_j)
    ot, omax, fused_out, size_out = _fuse(ot, omax, bit_i, bit_j)

    items: list[tuple[tuple[int, int], int, int, int]] = []
    if fused_in is not None or fused_out is not None:
        # carry over existing adjacencies; a fused side re-values to the
        # fused component's size, and the gap is then recomputed from the
        # new sizes
        for ((q1, q2), a), (_, b), (_, d) in zip(sel, unsel, gap):
            # the fused mask can coincide with q1 or q2, so track the fusion
            # itself, not a key change
            revalued = False
            if fused_in is not None and q1 & touch:
                q1, a, revalued = fused_in, size_in, True
            if fused_out is not None and q2 & touch:
                q2, b, revalued = fused_out, size_out, True
            if revalued:
                d = a - b
            items.append(((q1, q2), a, b, d))
        sel = unsel = gap = ()
    # new adjacencies: every selected component holding an i-vertex now
    # touches every unselected component holding a j-vertex, and vice versa
    for m1, mn in imin:
        if not m1 & touch:
            continue
        for m2, mx in omax:
            if (m1 & bit_i and m2 & bit_j) or (m1 & bit_j and m2 & bit_i):
                items.append(((m1, m2), mn, mx, mn - mx))
    if items:
        sel = _pooled(sel, [(p, a) for p, a, _, _ in items], min)
        unsel = _pooled(unsel, [(p, b) for p, _, b, _ in items], max)
        gap = _pooled(gap, [(p, d) for p, _, _, d in items], min)
    return (it, ot, imin, omax, sel, unsel, gap), e.witness


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
        inside, _, minima, _, _, _, gaps = e.key
        if not inside:
            continue
        if any(d < 0 for _, d in gaps):
            continue
        if connected and (len(inside) != 1 or inside[0][1] != minima[0][1]):
            continue
        candidates.append(e.witness)
    # by (size, sorted ids), the rule each summary's witness is kept by, so
    # the answer is the least minimum (connected) safe set
    size = min((w.bit_count() for w in candidates), default=0)
    witness = min((vertices_of(w) for w in candidates if w.bit_count() == size), default=None)
    return verified_result(g, witness, "cw", connected, t0)
