"""Safe-set solver running over construction trees.

The state kept per tree node is a family of summaries, one for each
achievable way to select vertices inside the node's graph.  A summary
holds one item per label set with the combined and extremal sizes of the
selected, and of the unselected, components carrying it, and one per pair
of label sets with extremal sizes over adjacent such components.

Each summary is projected onto the labels still *live* at its node: those
that some join above the node can still see, following relabels upward.  A
component whose label set holds no live label never fuses and never gains
a neighbour again, so little of it matters later: an unselected one stays
only in its pairs, and selected ones leave only a mark under label set 0.
Such a selected component never grows, and an unselected one next to it
never shrinks, so when it is the smaller of the two the whole selection is
unsafe for good and is dropped, whether the other is live or not; a safe
pair of two dead components drops out.  In connected mode a dead selected
component next to any other selected one can never join it.  At the root
nothing is live, so the root family holds only safe selections and tells
apart only whether one is empty.  A relabel onto a dead label finds
neither of its labels in its child's table and is passed through.  A
relabel and a forget rename each distinct column of a table once, and a
union pools each distinct pair of columns once and applies the label set 0
rules itself; nothing is kept from one transition call to the next.

Distinct selections collapse to the same summary, which keeps the families
far smaller than the number of selections; each summary retains its least
witness selection (by size, then by sorted vertex ids), so the answer is
the least minimum set and can be verified directly.  A selection only grows
towards the root, so ``solve_cw`` also drops every summary whose witness
has more vertices than a bound on the optimum, the size of approx's set;
every table then holds exactly the summaries of the full program whose
witnesses fit under that bound (``_walk``).
"""

from __future__ import annotations

import time
from functools import cache
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
)
from .graph import Graph, InputError, precedes, vertices_of
from .oracle import SolveResult, verified_result
from .preprocess import approx_safe_set

Column = tuple[tuple, ...]


# A table maps each summary of one selection within a subtree's graph to
# the least selection realizing it (see ``_dedup``), as a vertex bitmask
# (bit v stands for vertex v).  A summary is three columns of items, each
# sorted by its first field, a label set (a bitmask, bit k standing for
# label k+1) or a pair of them, with no repeats; a component is filed under
# its label set's live labels, and only label sets that have components
# appear:
#
# - inside, (label set, total, minimum): the combined size of the selected
#   components carrying exactly that label set, and the smallest one;
# - outside, (label set, total, maximum): the same over unselected ones;
# - pairs, ((selected set, unselected set), smallest selected, largest
#   unselected, smallest selected-minus-unselected gap) over adjacent pairs.
#
# Label set 0 marks that the selection has components with no live label,
# which no later step reads again: its total and minimum are both 1,
# however many there are, so inside totals need not sum to the number of
# selected vertices.  Outside has no label set 0, and pairs none with both
# sides 0.
Table = dict[tuple[Column, Column, Column], int]

# How two items under one label set pool, value by value, per column.
_RULES = ((add, min), (add, max), (min, max, min))

# Label set 0 of the inside column (see ``Table``).
_DEAD = ((0, 1, 1),)


def _pooled(col: Column, items: Iterable[tuple], rules: tuple) -> Column:
    """The column ``col`` with ``items`` pooled in: all sorted, and items
    under one label set pooled value by value by ``rules``."""
    out: list[tuple] = []
    for item in sorted([*col, *items]):
        if out and out[-1][0] == item[0]:
            out[-1] = (item[0], *[r(a, b) for r, a, b in zip(rules, out[-1][1:], item[1:])])
        else:
            out.append(item)
    return tuple(out)


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


def _marked(inside: Column, connected: bool) -> Column | None:
    """The inside column with label set 0 back at its marker (see
    ``Table``), or None where connected mode drops the selection: a dead
    selected component next to any other selected component can never join
    it, and a label set holds one component exactly when its total equals
    its minimum."""
    if not inside or inside[0][0]:
        return inside
    if connected and (len(inside) > 1 or inside[0][1] != inside[0][2]):
        return None
    return _DEAD + inside[1:]


def _projected(table: Table, moved: int, target: int, connected: bool) -> Table:
    """The table with every label set m that meets ``moved`` renamed to
    m & ~moved | target; summaries that coincide then collapse, and a
    summary no later step can make acceptable is dropped.

    Items that end up on one label set pool by their column's rules.
    Label set 0 of the inside column becomes its marker (``_marked``).  An
    outside item on label set 0, and a pair with label set 0 on both sides
    and a gap >= 0, are dropped.  A pair with label set 0 on its selected
    side and a negative gap stays unsafe for good, whatever its unselected
    side: the selected components never grow again, and the unselected one
    never shrinks.  So its selection is dropped.  Each distinct column is
    mapped once, and a column that drops its summary maps to None.
    """

    def to(m: int) -> int:
        return m & ~moved | target if m & moved else m

    def inside_of(col: Column) -> Column | None:
        if any(m & moved for m, _, _ in col):
            col = _pooled((), [(to(m), t, x) for m, t, x in col], _RULES[0])
        return _marked(col, connected)

    def outside_of(col: Column) -> Column:
        if any(m & moved for m, _, _ in col):
            col = _pooled((), [(to(m), t, x) for m, t, x in col], _RULES[1])
        return col[1:] if col and not col[0][0] else col

    def pairs_of(col: Column) -> Column | None:
        if any((p | q) & moved for (p, q), _, _, _ in col):
            col = _pooled((), [((to(p), to(q)), a, b, d) for (p, q), a, b, d in col], _RULES[2])
        if col and not col[0][0][0]:
            if any(d < 0 for (p, _), _, _, d in col if not p):
                return None
            if col[0][0] == (0, 0):
                col = col[1:]
        return col

    inside, outside, pairs = cache(inside_of), cache(outside_of), cache(pairs_of)
    return _dedup(
        ((i, outside(o), q), witness)
        for (col, o, p), witness in table.items()
        if (i := inside(col)) is not None and (q := pairs(p)) is not None
    )


# ---------------------------------------------------------------------------
# transitions


def dp_leaf(label: int, vertex: int = 0) -> Table:
    """Summaries for a single created vertex: left out, or selected."""
    if label < 1:
        raise InputError("labels are positive")
    one = ((1 << (label - 1), 1, 1),)
    skipped = ((), one, ())
    taken = (one, (), ())
    return _dedup([(skipped, 0), (taken, 1 << vertex)])


def dp_union(
    left: Table, right: Table, cap: int | None = None, connected: bool = False
) -> Table:
    """Side-by-side placement: aggregates combine pointwise, nothing merges.
    Label set 0 of the inside column, which both sides may hold, goes back
    to its marker, and in connected mode a dead selected component beside
    any other selected one drops its selection (``_marked``).  Each distinct
    pair of columns is pooled once.  With ``cap`` set, selections of more
    than ``cap`` vertices are left out."""

    inside, outside, pairs = (cache(lambda a, b, r=r: _pooled(a, b, r)) for r in _RULES)
    rights = [(*key, wb, wb.bit_count()) for key, wb in right.items()]

    def entries() -> Iterator[tuple[tuple, int]]:
        for (ia, oa, pa), wa in left.items():
            room = None if cap is None else cap - wa.bit_count()
            for ib, ob, pb, wb, nb in rights:
                if room is not None and nb > room:
                    continue
                # a column with an empty side needs no pooling, nor a lookup
                i = _marked(inside(ia, ib) if ia and ib else ia or ib, connected)
                if i is not None:
                    o = outside(oa, ob) if oa and ob else oa or ob
                    yield (i, o, pairs(pa, pb) if pa and pb else pa or pb), wa | wb

    return _dedup(entries())


def dp_relabel(source: int, target: int, child: Table) -> Table:
    """Rename a label: items whose label sets now coincide fuse."""
    if source == target:
        raise InputError("relabel needs two distinct labels")
    return _projected(child, 1 << (source - 1), 1 << (target - 1), False)


def _fuse(col: Column, bit_i: int, bit_j: int) -> tuple[Column, int | None, int]:
    """One side of a join: its column after the join, the fused label set
    and the fused component's size.

    Components whose label set meets {i, j} fuse into one on a side exactly
    when that side holds both an i-vertex and a j-vertex; the fused
    component is then alone under its label set, so its total is also its
    extreme.  Without fusion the column comes back unchanged with None.
    """
    touch = bit_i | bit_j
    fused = total = 0
    for m, t, _ in col:
        if m & touch:
            fused |= m
            total += t
    if fused & touch != touch:
        return col, None, 0
    kept = [item for item in col if not item[0] & touch]
    return tuple(sorted(kept + [(fused, total, total)])), fused, total


def _join_entry(bit_i: int, bit_j: int, key: tuple[Column, ...], witness: int) -> tuple | None:
    """One summary after the join, with its witness, or None when the join
    grows an unselected component past a dead selected one next to it,
    which makes the selection unsafe for good (see ``_projected``)."""
    touch = bit_i | bit_j
    inside, outside, pairs = key
    inside, fused_in, size_in = _fuse(inside, bit_i, bit_j)
    outside, fused_out, size_out = _fuse(outside, bit_i, bit_j)

    items: list[tuple[tuple[int, int], int, int, int]] = []
    if fused_in is not None or fused_out is not None:
        # carry over existing adjacencies; a fused side re-values to the
        # fused component's size, and the gap is then recomputed from the
        # new sizes
        for (q1, q2), a, b, d in pairs:
            # the fused mask can coincide with q1 or q2, so track the fusion
            # itself, not a key change
            revalued = False
            if fused_in is not None and q1 & touch:
                q1, a, revalued = fused_in, size_in, True
            if fused_out is not None and q2 & touch:
                q2, b, revalued = fused_out, size_out, True
            if revalued:
                d = a - b
                if d < 0 and not q1:
                    return None
            items.append(((q1, q2), a, b, d))
        pairs = ()
    # new adjacencies: every selected component holding an i-vertex now
    # touches every unselected component holding a j-vertex, and vice versa
    for m1, _, mn in inside:
        if not m1 & touch:
            continue
        for m2, _, mx in outside:
            if (m1 & bit_i and m2 & bit_j) or (m1 & bit_j and m2 & bit_i):
                items.append(((m1, m2), mn, mx, mn - mx))
    if items:
        pairs = _pooled(pairs, items, _RULES[2])
    return (inside, outside, pairs), witness


def dp_join(first: int, second: int, child: Table) -> Table:
    """Connect two label classes completely; assumes no such edge exists yet."""
    if first == second:
        raise InputError("join needs two distinct labels")
    bit_i = 1 << (first - 1)
    bit_j = 1 << (second - 1)
    return _dedup(_join_entry(bit_i, bit_j, key, w) for key, w in child.items())


# ---------------------------------------------------------------------------
# forgetting dead labels


def _live_labels(root: Node) -> list[tuple[Node, int]]:
    """Every node in post-order, once per place, with the labels (a
    bitmask) that a join above it can still see in its output; the root,
    last, has none.

    A join adds its two labels for its child.  ``Relabel(s, t)`` gives its
    child s exactly when t is live above it, and leaves t and the other
    labels as they are.  A union passes its own set to both children.
    """
    order: list[tuple[Node, int]] = []
    stack = [(root, 0)]
    while stack:
        node, mask = stack.pop()
        order.append((node, mask))
        if isinstance(node, Join):
            stack.append((node.child, mask | 1 << (node.first - 1) | 1 << (node.second - 1)))
        elif isinstance(node, Relabel):
            sbit = 1 << (node.source - 1)
            kept = sbit if mask >> (node.target - 1) & 1 else 0
            stack.append((node.child, mask & ~sbit | kept))
        elif isinstance(node, DisjointUnion):
            stack += ((node.left, mask), (node.right, mask))
    order.reverse()  # listed parent first, right child before left
    return order


def _forgotten(table: Table, dying: int, live: int, connected: bool) -> Table:
    """The table with the labels ``dying`` removed from every label set,
    which leaves only ``live`` ones (``_projected``)."""
    if not live:
        # every label set becomes 0, which leaves only whether a summary
        # is safe and what it selects; the same keys as the general
        # projection below, without pooling each column only to drop it
        # (cw-trees ops_per_s 67.7 -> 71.1 over 10 pairs, BENCH_21.json)
        def settled(key: tuple[Column, ...], witness: int) -> tuple[tuple, int] | None:
            inside, _, pairs = key
            if any(item[3] < 0 for item in pairs):
                return None
            if not inside:
                return ((), (), ()), witness
            if connected and (len(inside) > 1 or inside[0][1] != inside[0][2]):
                return None
            return (_DEAD, (), ()), witness

        return _dedup(settled(key, w) for key, w in table.items())

    return _projected(table, dying, 0, connected)


def _walk(
    expr: CExpression, connected: bool, cap: int | None = None
) -> Iterator[tuple[Node, Table]]:
    """The summary table at every node, in post-order, projected onto the
    node's live labels (``_live_labels``).

    Each table waits on a stack until its parent pops it, so what stays
    alive is the tables still waiting for a parent, and a node placed at
    several places is evaluated at each.  Labels die only at leaves and joins: a relabel maps
    live labels to live ones, and a union's children share its live set, so
    a union moves no label, and ``dp_union`` itself puts label set 0, which
    it adds up, back at its marker.  A relabel whose target is dead has a
    dead source below it too, so its child's table holds neither label and
    is passed through.  ``connected`` drops the selections that can no
    longer become one component.  With ``cap`` set, every selection of more
    than ``cap`` vertices is dropped too; a selection grows only at leaves
    and unions.  Leaves come out of the post-order walk left to right, so
    counting them numbers the vertices as ``eval_graph`` does.
    """
    stack: list[Table] = []
    vertex = 0
    for node, live in _live_labels(expr.root):
        if isinstance(node, Leaf):
            table = dp_leaf(node.label, vertex)
            vertex += 1
            if cap is not None and cap < 1:
                table = {key: w for key, w in table.items() if not w}
            if dying := 1 << (node.label - 1) & ~live:
                table = _forgotten(table, dying, live, connected)
        elif isinstance(node, DisjointUnion):
            right = stack.pop()
            table = dp_union(stack.pop(), right, cap, connected)
        elif isinstance(node, Relabel):
            table = stack.pop()
            if live >> (node.target - 1) & 1:
                table = dp_relabel(node.source, node.target, table)
        else:
            table = dp_join(node.first, node.second, stack.pop())
            if dying := (1 << (node.first - 1) | 1 << (node.second - 1)) & ~live:
                table = _forgotten(table, dying, live, connected)
        stack.append(table)
        yield node, table


def dp_evaluate(expr: CExpression, connected: bool = False) -> dict[Node, Table]:
    """Run the program bottom-up; returns the summary table at every node
    (``_walk``), in post-order; a node object placed at several places keeps
    the table of its last one."""
    return dict(_walk(expr, connected))


# ---------------------------------------------------------------------------
# solving


def solve_cw(expr: CExpression, connected: bool = False, limit: int | None = None) -> SolveResult:
    """Minimum safe set of the expression's graph, via the tree program.

    No label is live at the root, so its table holds at most two
    summaries: the empty selection's, with three empty columns, and the
    marker summary ``(_DEAD, (), ())`` of the safe selections, in connected
    mode of those that are one component, whose witness is the answer.  The
    walk drops every selection of more vertices than a cap: the size of
    ``approx_safe_set``'s set, a connected safe set, so no optimum is
    larger, or ``limit`` when that is smaller.  A minimum larger than
    ``limit`` is then reported as infeasible.  A selection of exactly the
    cap stays, since it may be the least.  The result's ``stats`` give the
    cap and count the tables, their summed entries and the largest one.
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
    cap = approx_safe_set(g).size
    if limit is not None:
        cap = min(cap, limit)
    tables = entries_sum = entries_max = 0
    for _, table in _walk(expr, connected, cap):
        tables += 1
        entries_sum += len(table)
        entries_max = max(entries_max, len(table))
    # the walk ends at the root, and ``_dedup`` kept the marker summary's
    # least witness, the least minimum (connected) safe set
    best = table.get((_DEAD, (), ()))
    stats = {
        "cap": cap,
        "tables": tables,
        "table_entries_sum": entries_sum,
        "table_entries_max": entries_max,
    }
    witness = None if best is None else vertices_of(best)
    return verified_result(g, witness, "cw", connected, t0, stats)
