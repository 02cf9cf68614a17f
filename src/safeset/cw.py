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
    """The column ``col`` with ``items`` pooled in, value by value, by ``rules``."""
    d = {item[0]: item for item in col}
    for item in items:
        k = item[0]
        old = d.get(k)
        d[k] = item if old is None else (k, *[r(a, b) for r, a, b in zip(rules, old[1:], item[1:])])
    return tuple(sorted(d.values()))


def _renamed(col: Column, new: list, rules: tuple) -> Column:
    """The column ``col`` with its label sets moved to the ``new`` ones and
    pooled by ``rules`` where those coincide, else only re-sorted."""
    items = [(k, *item[1:]) for k, item in zip(new, col)]
    if len(set(new)) == len(new):
        return tuple(sorted(items))
    return _pooled((), items, rules)


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

    Items that end up on one label set pool by their column's rules.
    Label set 0 of the inside column becomes its marker (see ``Table``).
    In connected mode, a dead selected component next to any other selected
    component can never join it, so its selection is dropped instead; a
    label set holds one component exactly when its total equals its
    minimum.  An outside item on label set 0, and a pair with label set 0
    on both sides and a gap >= 0, are dropped; such a pair with a negative
    gap stays unsafe for good, and so does its selection.
    """

    def to(m: int) -> int:
        return m & ~moved | target if m & moved else m

    out: Table = {}
    for key, witness in table.items():
        inside, outside, pairs = key
        if moved:
            if any(item[0] & moved for item in inside):
                inside = _renamed(inside, [to(item[0]) for item in inside], _RULES[0])
            if any(item[0] & moved for item in outside):
                outside = _renamed(outside, [to(item[0]) for item in outside], _RULES[1])
            if any((p | q) & moved for (p, q), *_ in pairs):
                pairs = _renamed(pairs, [(to(p), to(q)) for (p, q), *_ in pairs], _RULES[2])
        if inside and not inside[0][0]:
            if connected and (len(inside) > 1 or inside[0][1] != inside[0][2]):
                continue
            inside = _DEAD + inside[1:]
        if outside and not outside[0][0]:
            outside = outside[1:]
        if pairs and pairs[0][0] == (0, 0):
            if pairs[0][3] < 0:
                continue
            pairs = pairs[1:]
        key = (inside, outside, pairs)
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
    one = ((1 << (label - 1), 1, 1),)
    skipped = ((), one, ())
    taken = (one, (), ())
    return _dedup([(skipped, 0), (taken, 1 << vertex)])


def dp_union(left: Table, right: Table) -> Table:
    """Side-by-side placement: aggregates combine pointwise, nothing merges."""

    def combined(a: tuple[Column, ...], b: tuple[Column, ...]) -> tuple:
        return tuple(
            _pooled(x, y, rules) if x and y else x or y for x, y, rules in zip(a, b, _RULES)
        )

    return _dedup(
        (combined(a, b), wa | wb) for a, wa in left.items() for b, wb in right.items()
    )


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


def _join_entry(bit_i: int, bit_j: int, key: tuple[Column, ...]) -> tuple:
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
    return inside, outside, pairs


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
