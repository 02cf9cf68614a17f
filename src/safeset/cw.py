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
from typing import Iterable, Iterator

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
from .graph import Graph, InputError, precedes, vertices_of
from .oracle import SolveResult, verified_result

Column = tuple[tuple, ...]


# A table maps each summary of one selection within a subtree's graph to
# the least selection realizing it (see ``_dedup``), as a vertex bitmask
# (bit v stands for vertex v).  A summary holds seven columns, each a tuple
# of ``(label set, value)`` items sorted by label set (a bitmask, bit k
# standing for label k+1); a component is filed under its label set's live
# labels, and only label sets that actually have components appear:
#
# 0. inside totals: combined size of the selected components carrying
#    exactly that label set;
# 1. outside totals: the same for the unselected components;
# 2. inside minima: the smallest such selected component;
# 3. outside maxima: the largest such unselected component;
# 4.-6. over adjacent component pairs, keyed by (selected label set,
#    unselected label set): the smallest selected component, the largest
#    unselected one, and the smallest selected-minus-unselected gap.
#
# Label set 0 marks that the selection has components with no live label,
# which no later step reads again: its total and minimum are both 1,
# however many there are, so column 0 need not sum to the number of
# selected vertices.  Outside columns have no label set 0, and pairs none
# with both sides 0.
Table = dict[tuple[Column, ...], int]

# How two values under the same label set pool, one rule per column.
_RULES = (add, add, min, max, min, max, min)

# Label set 0 of the inside columns (see ``Table``).
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
    pooled by ``rules`` where those coincide, else only re-sorted."""
    if len(set(new)) == len(new):
        return tuple(tuple(sorted(zip(new, [v for _, v in col]))) for col in cols)
    return tuple(
        _pooled((), zip(new, [v for _, v in col]), rule) for col, rule in zip(cols, rules)
    )


def _dedup(entries: Iterable[tuple[tuple, int] | None]) -> Table:
    """Collapse equal summaries, each keeping its least witness; a None
    entry is a dropped summary.

    The least witness is the least by ``precedes``, the order of (size,
    sorted ids).  Equal keys have identical futures, and witnesses of
    disjoint subtrees combine by union with one fixed set, which keeps that
    order, so the root keeps every summary's least selection.
    """
    seen: Table = {}
    for entry in entries:
        if entry is None:
            continue
        key, witness = entry
        old = seen.get(key)
        if old is None or precedes(witness, old):
            seen[key] = witness
    return seen


def _projected(table: Table, moved: int, target: int, connected: bool) -> Table:
    """The table with every label set m that meets ``moved`` renamed to
    m & ~moved | target; summaries that coincide then collapse, and a
    summary no later step can make acceptable is dropped.

    Buckets that end up on one label set pool by their columns' rules.
    Label set 0 of the inside columns becomes its marker (see ``Table``).
    In connected mode, a dead selected component next to any other selected
    component can never join it, so its selection is dropped instead; a
    label set holds one component exactly when its total equals its
    minimum.  An outside bucket on label set 0, and a pair with label set 0
    on both sides and a gap >= 0, are dropped; such a pair with a negative
    gap stays unsafe for good, and so does its selection.
    """

    def to(m: int) -> int:
        return m & ~moved | target if m & moved else m

    out: Table = {}
    for key, witness in table.items():
        it, ot, imin, omax, sel, unsel, gap = key
        if moved:
            if any(m & moved for m, _ in it):
                it, imin = _renamed((it, imin), (add, min), [to(m) for m, _ in it])
            if any(m & moved for m, _ in ot):
                ot, omax = _renamed((ot, omax), (add, max), [to(m) for m, _ in ot])
            if any((p | q) & moved for (p, q), _ in sel):
                new = [(to(p), to(q)) for (p, q), _ in sel]
                sel, unsel, gap = _renamed((sel, unsel, gap), (min, max, min), new)
        if it and not it[0][0]:
            if connected and (len(it) > 1 or it[0][1] != imin[0][1]):
                continue
            it, imin = _DEAD + it[1:], _DEAD + imin[1:]
        if ot and not ot[0][0]:
            ot, omax = ot[1:], omax[1:]
        if sel and sel[0][0] == (0, 0):
            if gap[0][1] < 0:
                continue
            sel, unsel, gap = sel[1:], unsel[1:], gap[1:]
        key = (it, ot, imin, omax, sel, unsel, gap)
        old = out.get(key)
        if old is None or precedes(witness, old):
            out[key] = witness
    return out


# ---------------------------------------------------------------------------
# transitions


def dp_leaf(label: int, vertex: int = 0) -> Table:
    """Summaries for a single created vertex: left out, or selected."""
    if label < 1:
        raise InputError("labels are positive")
    one = ((1 << (label - 1), 1),)
    skipped = ((), one, (), one, (), (), ())
    taken = (one, (), one, (), (), (), ())
    return _dedup([(skipped, 0), (taken, 1 << vertex)])


def dp_union(left: Table, right: Table) -> Table:
    """Side-by-side placement: aggregates combine pointwise, nothing merges."""

    def combined(a: tuple[Column, ...], b: tuple[Column, ...]) -> tuple:
        return tuple(
            _pooled(x, y, rule) if x and y else x or y for x, y, rule in zip(a, b, _RULES)
        )

    return _dedup(
        (combined(a, b), wa | wb) for a, wa in left.items() for b, wb in right.items()
    )


def dp_relabel(source: int, target: int, child: Table) -> Table:
    """Rename a label: buckets whose label sets now coincide fuse."""
    if source == target:
        raise InputError("relabel needs two distinct labels")
    return _projected(child, 1 << (source - 1), 1 << (target - 1), False)


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


def _join_entry(bit_i: int, bit_j: int, key: tuple[Column, ...]) -> tuple:
    touch = bit_i | bit_j
    it, ot, imin, omax, sel, unsel, gap = key
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
    return it, ot, imin, omax, sel, unsel, gap


def dp_join(first: int, second: int, child: Table) -> Table:
    """Connect two label classes completely; assumes no such edge exists yet."""
    if first == second:
        raise InputError("join needs two distinct labels")
    bit_i = 1 << (first - 1)
    bit_j = 1 << (second - 1)
    return _dedup((_join_entry(bit_i, bit_j, key), w) for key, w in child.items())


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


def _forgotten(table: Table, dying: int, live: int, connected: bool) -> Table:
    """The table with the labels ``dying`` removed from every label set,
    which leaves only ``live`` ones (``_projected``)."""
    if not live:
        # every label set becomes 0, which leaves only whether a summary
        # is safe and what it selects; the same keys as the general
        # projection below, without pooling each column only to drop it
        # (cw-trees ops_per_s 67.7 -> 71.1 over 10 pairs, BENCH_21.json)
        def settled(key: tuple[Column, ...], witness: int) -> tuple[tuple, int] | None:
            it, _, imin, _, _, _, gap = key
            if any(d < 0 for _, d in gap):
                return None
            if not it:
                return ((),) * 7, witness
            if connected and (len(it) > 1 or it[0][1] != imin[0][1]):
                return None
            return (_DEAD, (), _DEAD, (), (), (), ()), witness

        return _dedup(settled(key, w) for key, w in table.items())

    return _projected(table, dying, 0, connected)


def _walk(expr: CExpression, connected: bool) -> Iterator[tuple[Node, Table]]:
    """The summary table at every node, in post-order, projected onto the
    node's live labels (``_live_labels``).

    Each table is read once, by its parent, so the walk keeps a table only
    until then: what stays alive is the tables still waiting for a parent,
    not all of them.  Labels die only at leaves and joins: a relabel maps
    live labels to live ones, and a union's children share its live set, so
    there ``_projected`` moves no label and only puts label set 0, which the
    union added up, back at its marker.  ``connected`` drops the selections
    that can no longer become one component.  Leaves come out of the
    post-order walk left to right, so counting them numbers the vertices as
    ``eval_graph`` does.
    """
    order = list(iter_nodes(expr.root))
    live = _live_labels(order)
    waiting: dict[Node, Table] = {}
    vertex = 0
    for node in order:
        if isinstance(node, Leaf):
            table = dp_leaf(node.label, vertex)
            vertex += 1
            if dying := 1 << (node.label - 1) & ~live[node]:
                table = _forgotten(table, dying, live[node], connected)
        elif isinstance(node, DisjointUnion):
            table = dp_union(waiting.pop(node.left), waiting.pop(node.right))
            table = _projected(table, 0, 0, connected)
        elif isinstance(node, Relabel):
            table = dp_relabel(node.source, node.target, waiting.pop(node.child))
        else:
            table = dp_join(node.first, node.second, waiting.pop(node.child))
            if dying := (1 << (node.first - 1) | 1 << (node.second - 1)) & ~live[node]:
                table = _forgotten(table, dying, live[node], connected)
        waiting[node] = table
        yield node, table


def dp_evaluate(expr: CExpression, connected: bool = False) -> dict[Node, Table]:
    """Run the program bottom-up; returns the summary table at every node
    (``_walk``), in post-order."""
    return dict(_walk(expr, connected))


# ---------------------------------------------------------------------------
# solving


def solve_cw(expr: CExpression, connected: bool = False, limit: int | None = None) -> SolveResult:
    """Minimum safe set of the expression's graph, via the tree program.

    No label is live at the root, so ``_forgotten`` left only summaries of
    safe selections there, in connected mode only of those that are one
    component; the summary of the empty selection does not count.  With
    ``limit`` set, a minimum larger than it is reported as infeasible.
    The result's ``stats`` count the tables, their summed entries and the
    largest one.
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
    tables = entries_sum = entries_max = 0
    for _, table in _walk(expr, connected):
        tables += 1
        entries_sum += len(table)
        entries_max = max(entries_max, len(table))
    # the walk ends at the root; ``precedes`` is the rule each summary's
    # witness is kept by, so the answer is the least minimum (connected) safe set
    best = None
    for key, w in table.items():
        if key[0] and (best is None or precedes(w, best)):
            best = w
    witness = None
    if best is not None and (limit is None or best.bit_count() <= limit):
        witness = vertices_of(best)
    stats = {"tables": tables, "table_entries_sum": entries_sum, "table_entries_max": entries_max}
    return verified_result(g, witness, "cw", connected, t0, stats)
