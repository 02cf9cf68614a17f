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

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .cexpr import (
    CExpression,
    DisjointUnion,
    Join,
    Leaf,
    Node,
    Relabel,
    check_expression,
    eval_graph,
    iter_nodes,
    leaf_spans,
    validate_irredundant,
)
from .graph import (
    Graph,
    InputError,
    check_vertex_set,
    components_mask,
    mask_of,
    neighborhood_mask,
)
from .oracle import SolveResult, verified_result

PairKey = tuple[int, int]


@dataclass(frozen=True, eq=False)
class DpEntry:
    """Summary of one selection within a subtree's graph.

    Maps are keyed by label-set bitmask (bit k stands for label k+1) and
    store only label sets that actually have components; a missing key
    reads as the empty aggregate, 0 for totals, +inf for minima and -inf
    for maxima.  ``witness`` is one selection realizing the summary and is
    ignored by equality and hashing.
    """

    inside_size: dict[int, int]
    outside_size: dict[int, int]
    inside_min: dict[int, int]
    outside_max: dict[int, int]
    adj_inside_min: dict[PairKey, int]
    adj_outside_max: dict[PairKey, int]
    adj_diff_min: dict[PairKey, int]
    witness: frozenset[int]

    @cached_property
    def signature(self) -> tuple:
        return (
            tuple(sorted(self.inside_size.items())),
            tuple(sorted(self.outside_size.items())),
            tuple(sorted(self.inside_min.items())),
            tuple(sorted(self.outside_max.items())),
            tuple(sorted(self.adj_inside_min.items())),
            tuple(sorted(self.adj_outside_max.items())),
            tuple(sorted(self.adj_diff_min.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DpEntry):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    # Sentinel-returning accessors; absence in the sparse maps means the
    # aggregate ranges over nothing.
    def inside_total(self, label_mask: int) -> int:
        return self.inside_size.get(label_mask, 0)

    def outside_total(self, label_mask: int) -> int:
        return self.outside_size.get(label_mask, 0)

    def smallest_inside(self, label_mask: int) -> float:
        return self.inside_min.get(label_mask, math.inf)

    def largest_outside(self, label_mask: int) -> float:
        return self.outside_max.get(label_mask, -math.inf)

    def smallest_adjacent_inside(self, pair: PairKey) -> float:
        return self.adj_inside_min.get(pair, math.inf)

    def largest_adjacent_outside(self, pair: PairKey) -> float:
        return self.adj_outside_max.get(pair, -math.inf)

    def smallest_adjacent_gap(self, pair: PairKey) -> float:
        return self.adj_diff_min.get(pair, math.inf)

    def selected_total(self) -> int:
        return sum(self.inside_size.values())

    def assert_coherent(self) -> None:
        # totals and minima exist for exactly the same label sets, and the
        # three pair aggregates always appear together
        assert set(self.inside_size) == set(self.inside_min)
        assert set(self.outside_size) == set(self.outside_max)
        assert set(self.adj_inside_min) == set(self.adj_outside_max) == set(self.adj_diff_min)
        assert all(v > 0 for v in self.inside_size.values())
        assert all(v > 0 for v in self.outside_size.values())


def _build_entry(
    inside: dict[int, tuple[int, int]],
    outside: dict[int, tuple[int, int]],
    pairs: dict[PairKey, tuple[int, int, int]],
    witness: frozenset[int],
) -> DpEntry:
    """Split (total, extreme) and (min, max, gap) buckets into an entry."""
    return DpEntry(
        inside_size={m: t for m, (t, _) in inside.items()},
        outside_size={m: t for m, (t, _) in outside.items()},
        inside_min={m: s for m, (_, s) in inside.items()},
        outside_max={m: s for m, (_, s) in outside.items()},
        adj_inside_min={p: a for p, (a, _, _) in pairs.items()},
        adj_outside_max={p: b for p, (_, b, _) in pairs.items()},
        adj_diff_min={p: d for p, (_, _, d) in pairs.items()},
        witness=witness,
    )


def _dedup(entries: Iterable[DpEntry]) -> list[DpEntry]:
    """Collapse equal summaries keeping the first witness, sort for output."""
    seen: dict[tuple, DpEntry] = {}
    for entry in entries:
        seen.setdefault(entry.signature, entry)
    return [seen[sig] for sig in sorted(seen)]


def definitional_entry(
    g: Graph, labels: Sequence[int], subset: Iterable[int], label_count: int
) -> DpEntry:
    """Recompute a selection's summary directly from the graph.

    This is the meaning the solver's transitions are tested against: list
    the components on both sides, bucket them by exact label set, and scan
    adjacent selected/unselected component pairs for the extremal sizes.
    """
    if len(labels) != g.n:
        raise InputError("one label per vertex required")
    for lab in labels:
        if not (1 <= lab <= label_count):
            raise InputError(f"label {lab} outside 1..{label_count}")
    selected = check_vertex_set(g, subset)
    smask = mask_of(selected)

    def label_mask(comp_mask: int) -> int:
        out = 0
        v = 0
        while comp_mask:
            if comp_mask & 1:
                out |= 1 << (labels[v] - 1)
            comp_mask >>= 1
            v += 1
        return out

    inside_comps = [(c, label_mask(c)) for c in components_mask(g, smask)]
    outside_comps = [(d, label_mask(d)) for d in components_mask(g, g.full_mask() & ~smask)]

    inside: dict[int, tuple[int, int]] = {}
    for cmask, lmask in inside_comps:
        size = cmask.bit_count()
        total, mn = inside.get(lmask, (0, size))
        inside[lmask] = (total + size, min(mn, size))
    outside: dict[int, tuple[int, int]] = {}
    for dmask, lmask in outside_comps:
        size = dmask.bit_count()
        total, mx = outside.get(lmask, (0, size))
        outside[lmask] = (total + size, max(mx, size))

    pairs: dict[PairKey, tuple[int, int, int]] = {}
    for cmask, clab in inside_comps:
        reach = neighborhood_mask(g, cmask)
        csize = cmask.bit_count()
        for dmask, dlab in outside_comps:
            if not reach & dmask:
                continue
            dsize = dmask.bit_count()
            key = (clab, dlab)
            if key in pairs:
                a, b, d = pairs[key]
                pairs[key] = (min(a, csize), max(b, dsize), min(d, csize - dsize))
            else:
                pairs[key] = (csize, dsize, csize - dsize)
    return _build_entry(inside, outside, pairs, frozenset(selected))


# ---------------------------------------------------------------------------
# transitions


def dp_leaf(label: int, vertex: int = 0) -> list[DpEntry]:
    """Summaries for a single created vertex: left out, or selected."""
    if label < 1:
        raise InputError("labels are positive")
    m = 1 << (label - 1)
    skipped = _build_entry({}, {m: (1, 1)}, {}, frozenset())
    taken = _build_entry({m: (1, 1)}, {}, {}, frozenset({vertex}))
    return _dedup([skipped, taken])


def dp_union(left: list[DpEntry], right: list[DpEntry]) -> list[DpEntry]:
    """Side-by-side placement: aggregates combine pointwise, nothing merges."""

    def combined(a: DpEntry, b: DpEntry) -> DpEntry:
        inside_size = dict(a.inside_size)
        for m, t in b.inside_size.items():
            inside_size[m] = inside_size.get(m, 0) + t
        outside_size = dict(a.outside_size)
        for m, t in b.outside_size.items():
            outside_size[m] = outside_size.get(m, 0) + t
        inside_min = dict(a.inside_min)
        for m, s in b.inside_min.items():
            inside_min[m] = min(inside_min.get(m, s), s)
        outside_max = dict(a.outside_max)
        for m, s in b.outside_max.items():
            outside_max[m] = max(outside_max.get(m, s), s)
        adj_inside_min = dict(a.adj_inside_min)
        for p, s in b.adj_inside_min.items():
            adj_inside_min[p] = min(adj_inside_min.get(p, s), s)
        adj_outside_max = dict(a.adj_outside_max)
        for p, s in b.adj_outside_max.items():
            adj_outside_max[p] = max(adj_outside_max.get(p, s), s)
        adj_diff_min = dict(a.adj_diff_min)
        for p, s in b.adj_diff_min.items():
            adj_diff_min[p] = min(adj_diff_min.get(p, s), s)
        return DpEntry(
            inside_size,
            outside_size,
            inside_min,
            outside_max,
            adj_inside_min,
            adj_outside_max,
            adj_diff_min,
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
        inside: dict[int, tuple[int, int]] = {}
        for m, t in e.inside_size.items():
            key = remap(m)
            total, mn = inside.get(key, (0, e.inside_min[m]))
            inside[key] = (total + t, min(mn, e.inside_min[m]))
        outside: dict[int, tuple[int, int]] = {}
        for m, t in e.outside_size.items():
            key = remap(m)
            total, mx = outside.get(key, (0, e.outside_max[m]))
            outside[key] = (total + t, max(mx, e.outside_max[m]))
        pairs: dict[PairKey, tuple[int, int, int]] = {}
        for p, a in e.adj_inside_min.items():
            key = (remap(p[0]), remap(p[1]))
            b, d = e.adj_outside_max[p], e.adj_diff_min[p]
            if key in pairs:
                pa, pb, pd = pairs[key]
                pairs[key] = (min(pa, a), max(pb, b), min(pd, d))
            else:
                pairs[key] = (a, b, d)
        out.append(_build_entry(inside, outside, pairs, e.witness))
    return _dedup(out)


def _join_entry(bit_i: int, bit_j: int, e: DpEntry) -> DpEntry:
    touch = bit_i | bit_j
    # Components whose label set meets {i, j} fuse into one on a side
    # exactly when that side holds both an i-vertex and a j-vertex.
    sel_touched = [m for m in e.inside_size if m & touch]
    merge_sel = any(m & bit_i for m in sel_touched) and any(m & bit_j for m in sel_touched)
    out_touched = [m for m in e.outside_size if m & touch]
    merge_out = any(m & bit_i for m in out_touched) and any(m & bit_j for m in out_touched)

    inside: dict[int, tuple[int, int]] = {
        m: (t, e.inside_min[m]) for m, t in e.inside_size.items() if not m & touch
    }
    if merge_sel:
        fused_sel = 0
        total = 0
        for m in sel_touched:
            fused_sel |= m
            total += e.inside_size[m]
        assert fused_sel & bit_i and fused_sel & bit_j
        inside[fused_sel] = (total, total)
    else:
        fused_sel = -1
        for m in sel_touched:
            inside[m] = (e.inside_size[m], e.inside_min[m])

    outside: dict[int, tuple[int, int]] = {
        m: (t, e.outside_max[m]) for m, t in e.outside_size.items() if not m & touch
    }
    if merge_out:
        fused_out = 0
        total = 0
        for m in out_touched:
            fused_out |= m
            total += e.outside_size[m]
        assert fused_out & bit_i and fused_out & bit_j
        outside[fused_out] = (total, total)
    else:
        fused_out = -1
        for m in out_touched:
            outside[m] = (e.outside_size[m], e.outside_max[m])

    def put(pairs, key, a, b, d):
        if key in pairs:
            pa, pb, pd = pairs[key]
            pairs[key] = (min(pa, a), max(pb, b), min(pd, d))
        else:
            pairs[key] = (a, b, d)

    pairs: dict[PairKey, tuple[int, int, int]] = {}
    # carry over existing adjacencies; a fused side re-values to the fused
    # component's size, and the gap is then recomputed from the new sizes
    for (q1, q2), a in e.adj_inside_min.items():
        b, d = e.adj_outside_max[(q1, q2)], e.adj_diff_min[(q1, q2)]
        n1, n2 = q1, q2
        revalued = False
        if merge_sel and q1 & touch:
            # the fused mask can coincide with q1, so track the fusion
            # itself, not a key change
            n1, a, revalued = fused_sel, inside[fused_sel][0], True
        if merge_out and q2 & touch:
            n2, b, revalued = fused_out, outside[fused_out][0], True
        if revalued:
            d = a - b
        put(pairs, (n1, n2), a, b, d)
    # new adjacencies: every selected component holding an i-vertex now
    # touches every unselected component holding a j-vertex, and vice versa
    for m1, (_, mn) in inside.items():
        if not m1 & touch:
            continue
        for m2, (_, mx) in outside.items():
            if (m1 & bit_i and m2 & bit_j) or (m1 & bit_j and m2 & bit_i):
                put(pairs, (m1, m2), mn, mx, mn - mx)

    return _build_entry(inside, outside, pairs, e.witness)


def dp_join(first: int, second: int, child: list[DpEntry]) -> list[DpEntry]:
    """Connect two label classes completely; assumes no such edge exists yet."""
    if first == second:
        raise InputError("join needs two distinct labels")
    bit_i = 1 << (first - 1)
    bit_j = 1 << (second - 1)
    return _dedup(_join_entry(bit_i, bit_j, e) for e in child)


def dp_evaluate(expr: CExpression) -> dict[Node, list[DpEntry]]:
    """Run the program bottom-up; returns the summary family at every node."""
    spans = leaf_spans(expr)
    tables: dict[Node, list[DpEntry]] = {}
    for node in iter_nodes(expr.root):
        if isinstance(node, Leaf):
            tables[node] = dp_leaf(node.label, spans[node][0])
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
    offender = validate_irredundant(expr)
    if offender is not None:
        where = f" at line {offender.pos[0]}, col {offender.pos[1]}" if offender.pos else ""
        raise InputError(
            f"join of labels {offender.first}, {offender.second}{where} "
            "re-adds an existing edge"
        )
    g, _ = eval_graph(expr)
    root_entries = dp_evaluate(expr)[expr.root]

    candidates = []
    for e in root_entries:
        if e.selected_total() < 1:
            continue
        if any(d < 0 for d in e.adj_diff_min.values()):
            continue
        if connected and (len(e.inside_size) != 1 or e.inside_min != e.inside_size):
            continue
        candidates.append(e)
    best = min(candidates, key=lambda e: (e.selected_total(), sorted(e.witness)), default=None)
    return verified_result(g, None if best is None else best.witness, "cw", connected, t0)
