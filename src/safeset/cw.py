"""Safe-set solver running over construction trees.

The state kept per tree node is a family of summaries, one for each
achievable way to select vertices inside the node's graph.  A summary
records, per label set, the combined and extremal sizes of the selected
and unselected components carrying that label set, plus extremal sizes
over adjacent selected/unselected component pairs.

Each summary is projected onto the labels still *live* at its node: those
that some join above the node can still see, following relabels upward.  A
component whose label set holds no live label never fuses and never gains
a neighbour again, so little of it matters later: an unselected one stays
only in its pairs, selected ones leave only a mark under label set 0, and
a pair of two such components is either safe for good or makes the whole
selection unsafe for good.  In connected mode such a selected component
next to any other selected one can never join it.  At the root nothing is
live, so the root family holds only safe selections and tells apart only
whether one is empty.

Distinct selections collapse to the same summary, which keeps the families
far smaller than the number of selections; each summary retains its least
witness selection (by size, then by sorted vertex ids), so the answer is
the least minimum set and can be verified directly.
"""

from __future__ import annotations

import time
from operator import add
from typing import Iterable, NamedTuple

from .cexpr import (
    CExpression,
    DisjointUnion,
    Join,
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
    items sorted by label set (a bitmask, bit k standing for label k+1); a
    component is filed under its label set's live labels, and only label
    sets that actually have components appear:

    0. inside totals: combined size of the selected components carrying
       exactly that label set;
    1. outside totals: the same for the unselected components;
    2. inside minima: the smallest such selected component;
    3. outside maxima: the largest such unselected component;
    4.-6. over adjacent component pairs, keyed by (selected label set,
       unselected label set): the smallest selected component, the largest
       unselected one, and the smallest selected-minus-unselected gap.

    Label set 0 marks that the selection has components with no live
    label, which no later step reads again: its total and minimum are both
    1, however many there are, so column 0 need not sum to the number of
    selected vertices.  Outside columns have no label set 0, and pairs
    none with both sides 0.

    ``witness`` is the least selection realizing the summary (see
    ``_dedup``), as a vertex bitmask (bit v stands for vertex v).
    """

    key: tuple[Column, ...]
    witness: int


# How two values under the same label set pool, one rule per column.
_RULES = (add, add, min, max, min, max, min)

# Label set 0 of the inside columns (see ``DpEntry``).
_DEAD = ((0, 1),)


def _pooled(col: Column, items: Iterable[tuple], rule) -> Column:
    """The column ``col`` with (label set, value) items pooled in by ``rule``."""
    d = dict(col)
    for k, v in items:
        old = d.get(k)
        d[k] = v if old is None else rule(old, v)
    return tuple(sorted(d.items()))


def _renamed(cols: tuple[Column, ...], rules: tuple, new: list) -> tuple[Column, ...]:
    """Columns sharing one list of label sets, moved to the ``new`` ones and
    pooled by ``rules`` where those coincide."""
    return tuple(
        _pooled((), zip(new, [v for _, v in col]), rule) for col, rule in zip(cols, rules)
    )


def _dedup(entries: Iterable[tuple[tuple, int] | None]) -> list[DpEntry]:
    """Collapse equal summaries, each keeping its least witness; a None
    entry is a dropped summary.

    The least witness is the one with fewer vertices and, among equally
    many, the one holding the lowest differing vertex: the order of (size,
    sorted ids).  Equal keys have identical futures, and witnesses of
    disjoint subtrees combine by union with one fixed set, which keeps that
    order, so the root keeps every summary's least selection.
    """
    seen: dict[tuple, int] = {}
    for entry in entries:
        if entry is None:
            continue
        key, witness = entry
        old = seen.get(key)
        if (
            old is None
            or (c := witness.bit_count() - old.bit_count()) < 0
            or not c and (d := old ^ witness) & -d & witness
        ):
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

    def relabelled(e: DpEntry) -> tuple[tuple, int]:
        it, ot, imin, omax, sel, unsel, gap = e.key
        if any(m & sbit for m, _ in it):
            it, imin = _renamed((it, imin), (add, min), [remap(m) for m, _ in it])
        if any(m & sbit for m, _ in ot):
            ot, omax = _renamed((ot, omax), (add, max), [remap(m) for m, _ in ot])
        if any((p | q) & sbit for (p, q), _ in sel):
            sel, unsel, gap = _renamed(
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


# ---------------------------------------------------------------------------
# forgetting dead labels


def _live_labels(order: list[Node]) -> dict[Node, int]:
    """The labels, as a bitmask, that a join above each node can still see
    in the node's output; ``order`` is the post-order walk, so it ends at
    the root, which has none.

    A join adds its two labels for its child.  ``Relabel(s, t)`` gives its
    child s exactly when t is live above it, and leaves t and the other
    labels as they are.  A union passes its own set to both children.
    """
    live = {order[-1]: 0}
    for node in reversed(order):
        mask = live[node]
        if isinstance(node, Join):
            live[node.child] = mask | 1 << (node.first - 1) | 1 << (node.second - 1)
        elif isinstance(node, Relabel):
            sbit = 1 << (node.source - 1)
            live[node.child] = mask & ~sbit | (sbit if mask >> (node.target - 1) & 1 else 0)
        elif isinstance(node, DisjointUnion):
            live[node.left] = live[node.right] = mask
    return live


def _forgotten(entries: list[DpEntry], dying: int, live: int, connected: bool) -> list[DpEntry]:
    """The family with the labels ``dying`` removed from every label set,
    which leaves only ``live`` ones; summaries that coincide then collapse,
    and a summary no later step can make acceptable is dropped.

    Buckets that end up on one label set pool by their columns' rules.  An
    outside bucket left with no label, and a pair left with none on either
    side and a gap >= 0, are dropped; such a pair with a negative gap stays
    unsafe for good, and so does its selection.  Label set 0 of the inside
    columns becomes the marker of ``DpEntry``.  In connected mode, a dead
    selected component next to any other selected component can never join
    it, so its selection is dropped too; a label set holds one component
    exactly when its total equals its minimum.
    """
    if not live:
        # every label set becomes 0, which leaves only whether a summary
        # is safe and what it selects; the same keys as the general
        # projection below, without pooling each column only to drop it
        # (cw-trees ops_per_s 67.7 -> 71.1 over 10 pairs, BENCH_21.json)
        def settled(e: DpEntry) -> tuple[tuple, int] | None:
            it, _, imin, _, _, _, gap = e.key
            if any(d < 0 for _, d in gap):
                return None
            if not it:
                return ((),) * 7, e.witness
            if connected and (len(it) > 1 or it[0][1] != imin[0][1]):
                return None
            return (_DEAD, (), _DEAD, (), (), (), ()), e.witness

        return _dedup(settled(e) for e in entries)

    keep = ~dying
    # many summaries share a column group, so each group is projected once
    memo: dict[tuple, tuple | None] = {}

    def inside(cols: tuple[Column, Column]) -> tuple | None:
        it, imin = cols
        if any(m & dying for m, _ in it):
            it, imin = _renamed(cols, (add, min), [m & keep for m, _ in it])
        if it and not it[0][0]:
            if connected and (len(it) > 1 or it[0][1] != imin[0][1]):
                return None
            it, imin = _DEAD + it[1:], _DEAD + imin[1:]
        return it, imin

    def outside(cols: tuple[Column, Column]) -> tuple:
        ot, omax = cols
        if not any(m & dying for m, _ in ot):
            return cols
        ot, omax = _renamed(cols, (add, max), [m & keep for m, _ in ot])
        return (ot[1:], omax[1:]) if not ot[0][0] else (ot, omax)

    def pairs(cols: tuple[Column, Column, Column]) -> tuple | None:
        if not any((p | q) & dying for (p, q), _ in cols[0]):
            return cols
        sel, unsel, gap = _renamed(
            cols, (min, max, min), [(p & keep, q & keep) for (p, q), _ in cols[0]]
        )
        if sel[0][0] != (0, 0):
            return sel, unsel, gap
        return None if gap[0][1] < 0 else (sel[1:], unsel[1:], gap[1:])

    def projected(cols: tuple, group) -> tuple | None:
        key = (group, cols)
        if key not in memo:
            memo[key] = group(cols)
        return memo[key]

    def forget(e: DpEntry) -> tuple[tuple, int] | None:
        it, ot, imin, omax, sel, unsel, gap = e.key
        if (ins := projected((it, imin), inside)) is None:
            return None
        if (adj := projected((sel, unsel, gap), pairs)) is None:
            return None
        ot, omax = projected((ot, omax), outside)
        return (ins[0], ot, ins[1], omax, *adj), e.witness

    return _dedup(forget(e) for e in entries)


def _recapped(entries: list[DpEntry], connected: bool) -> list[DpEntry]:
    """A union's family with label set 0 back at the marker of ``DpEntry``,
    where the union added two of them up; in connected mode, a selection
    with a dead component next to any other selected component is dropped
    instead."""
    kept: list[DpEntry] = []
    capped = False
    for e in entries:
        it = e.key[0]
        if it and not it[0][0] and (it[0][1] > 1 or connected and len(it) > 1):
            if connected:
                continue
            e = DpEntry((_DEAD + it[1:],) + e.key[1:], e.witness)
            capped = True
        kept.append(e)
    return _dedup(kept) if capped else kept


def dp_evaluate(expr: CExpression, connected: bool = False) -> dict[Node, list[DpEntry]]:
    """Run the program bottom-up; returns the summary family at every node,
    projected onto the node's live labels (``_live_labels``).

    Labels die only at leaves and joins: a relabel maps live labels to
    live ones, and a union's children share its live set, so there only
    label set 0 is re-capped.  ``connected`` drops the selections that can
    no longer become one component.  Leaves come out of the post-order walk
    left to right, so counting them numbers the vertices as ``eval_graph``
    does.
    """
    order = list(iter_nodes(expr.root))
    live = _live_labels(order)
    tables: dict[Node, list[DpEntry]] = {}
    vertex = 0
    for node in order:
        if isinstance(node, Leaf):
            table = dp_leaf(node.label, vertex)
            vertex += 1
            if dying := 1 << (node.label - 1) & ~live[node]:
                table = _forgotten(table, dying, live[node], connected)
        elif isinstance(node, DisjointUnion):
            table = _recapped(dp_union(tables[node.left], tables[node.right]), connected)
        elif isinstance(node, Relabel):
            table = dp_relabel(node.source, node.target, tables[node.child])
        else:
            table = dp_join(node.first, node.second, tables[node.child])
            if dying := (1 << (node.first - 1) | 1 << (node.second - 1)) & ~live[node]:
                table = _forgotten(table, dying, live[node], connected)
        tables[node] = table
    return tables


# ---------------------------------------------------------------------------
# solving


def solve_cw(expr: CExpression, connected: bool = False, limit: int | None = None) -> SolveResult:
    """Minimum safe set of the expression's graph, via the tree program.

    No label is live at the root, so ``_forgotten`` left only summaries of
    safe selections there, in connected mode only of those that are one
    component; the summary of the empty selection does not count.  With
    ``limit`` set, a minimum larger than it is reported as infeasible.
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
    candidates = [e.witness for e in dp_evaluate(expr, connected)[expr.root] if e.key[0]]
    # by (size, sorted ids), the rule each summary's witness is kept by, so
    # the answer is the least minimum (connected) safe set
    size = min((w.bit_count() for w in candidates), default=0)
    witness = None
    if limit is None or size <= limit:
        witness = min((vertices_of(w) for w in candidates if w.bit_count() == size), default=None)
    return verified_result(g, witness, "cw", connected, t0)
