"""The tree-based safe-set solver, checked against direct recomputation."""

import importlib.util
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import expression_corpus, random_expression
from bruteforce import ref_least_safe_set, ref_live_labels, ref_summary
from safeset.cexpr import (
    CExpression,
    Leaf,
    cycle_expression,
    eval_graph,
    iter_nodes,
    leaf_spans,
    parse_cexpression,
)
from safeset.cw import (
    _DEAD,
    _live_labels,
    _walk,
    dp_evaluate,
    dp_join,
    dp_leaf,
    dp_relabel,
    dp_union,
    solve_cw,
)
from safeset.generators import complete_graph, cycle_graph, path_graph
from safeset.graph import (
    Graph,
    InputError,
    is_connected_safe_set,
    is_safe_set,
    mask_of,
    vertices_of,
)
from safeset.oracle import connected_safe_number_bf, safe_number_bf
from safeset.preprocess import approx_safe_set

K2_TEXT = "(e 1 2 (u (v 1) (v 2)))"
PATH4_TEXT = "(e 2 3 (u (r 3 2 (r 2 1 (e 2 3 (u (e 1 2 (u (v 1) (v 2))) (v 3))))) (v 3)))"
NESTED_JOIN_TEXT = (
    "(e 1 2 (u (v 1) (r 1 2 (e 1 2 (u (v 1) (r 1 2 (e 1 2 (u (v 1) (v 2)))))))))"
)
# A tree with a join that grows an unselected component past a dead
# selected one next to it while no label dies there, so only the join
# itself can drop those selections as unsafe for good.
JOIN_DOOMS_TEXT = (
    "c 3 (e 1 2 (u (r 1 2 (e 1 3 (r 2 3 (u (r 3 2 (r 2 3 (v 1)))"
    " (u (r 1 2 (r 3 1 (v 1))) (v 3)))))) (u (v 1) (r 2 1 (e 1 2 (u (r 2 1 (v 2))"
    " (u (e 2 3 (r 1 2 (u (u (r 2 1 (r 1 2 (v 1))) (v 2)) (r 2 3 (r 1 3 (v 2))))))"
    " (r 3 1 (v 2)))))))))"
)


def by_witness(table, witness):
    """The (key, witness) pair of ``table`` whose witness is ``witness``."""
    matches = [e for e in table.items() if e[1] == mask_of(witness)]
    assert len(matches) == 1, f"no unique entry with witness {witness}"
    return matches[0]


def by_summary(table, summary):
    matches = [e for e in table.items() if maps(e) == summary]
    assert len(matches) == 1, f"no unique entry with summary {summary}"
    return matches[0]


def maps(entry):
    """A (key, witness) pair's three key columns decoded into its three
    maps, the form ``ref_summary`` returns.  Each column must be sorted by
    its items' label sets and free of repeats."""
    (inside, outside, pairs), _ = entry

    def decoded(col):
        keys = [item[0] for item in col]
        assert keys == sorted(set(keys))
        return {item[0]: item[1:] for item in col}

    return decoded(inside), decoded(outside), decoded(pairs)


def frozen(summary):
    """Hashable form of three summary maps, equal exactly when they are."""
    return tuple(frozenset(m.items()) for m in summary)


# ---------------------------------------------------------------------------
# single transitions against frozen values


def test_leaf_summaries():
    entries = dp_leaf(1)
    assert len(entries) == 2
    inside, outside, _ = maps(by_witness(entries, ()))
    assert inside == {}
    assert outside == {1: (1, 1)}
    inside, outside, _ = maps(by_witness(entries, (0,)))
    assert inside == {1: (1, 1)}
    assert outside == {}
    for e in entries.items():
        assert maps(e)[2] == {}


def test_union_with_skipped_leaf_only_grows_outside():
    base = by_witness(dp_leaf(1, vertex=0), (0,))
    pad = by_witness(dp_leaf(2, vertex=1), ())
    combined = dp_union(dict([base]), dict([pad]))
    assert len(combined) == 1
    [entry] = combined.items()
    assert maps(entry)[0] == maps(base)[0]
    assert maps(entry)[1] == {2: (1, 1)}
    assert vertices_of(entry[1]) == [0]


def test_union_of_two_taken_leaves_same_label():
    a = by_witness(dp_leaf(1, vertex=0), (0,))
    b = by_witness(dp_leaf(1, vertex=1), (1,))
    [entry] = dp_union(dict([a]), dict([b])).items()
    assert maps(entry)[0] == {1: (2, 1)}
    assert maps(entry) == ref_summary(Graph(2), [1, 1], {0, 1})


def test_union_size_is_at_most_product():
    left = dp_leaf(1, 0)
    right = dp_leaf(2, 1)
    combined = dp_union(left, right)
    assert len(combined) <= len(left) * len(right)
    assert len(combined) == 4


def test_relabel_renames_single_class():
    entry = by_witness(dp_leaf(1), (0,))
    [out] = dp_relabel(1, 2, dict([entry])).items()
    assert maps(out)[0] == {2: (1, 1)}


def test_relabel_fuses_outside_buckets():
    # two skipped leaves with labels 1 and 2; renaming 1 to 2 must pool them
    child = dp_union(dp_leaf(1, 0), dp_leaf(2, 1))
    both_out = by_witness(child, ())
    assert maps(both_out)[1] == {1: (1, 1), 2: (1, 1)}
    [fused] = dp_relabel(1, 2, dict([both_out])).items()
    assert maps(fused)[1] == {2: (2, 1)}
    assert maps(fused) == ref_summary(Graph(2), [2, 2], set())


def test_relabel_without_occurrences_changes_nothing():
    child = dp_union(dp_leaf(1, 0), dp_leaf(2, 1))
    out = dp_relabel(3, 1, child)
    assert list(out) == list(child)


def test_join_merges_selected_components():
    child = dp_union(dp_leaf(1, 0), dp_leaf(2, 1))
    joined = dp_join(1, 2, child)
    inside, _, pairs = maps(by_witness(joined, (0, 1)))
    assert inside == {3: (2, 2)}
    assert pairs == {}


def test_join_merges_unselected_components():
    child = dp_union(dp_leaf(1, 0), dp_leaf(2, 1))
    joined = dp_join(1, 2, child)
    neither = by_witness(joined, ())
    assert maps(neither)[1] == {3: (2, 2)}


def test_join_records_new_adjacency():
    child = dp_union(dp_leaf(1, 0), dp_leaf(2, 1))
    joined = dp_join(1, 2, child)
    first_only = by_witness(joined, (0,))
    assert maps(first_only)[2] == {(1, 2): (1, 1, 0)}
    assert maps(first_only) == ref_summary(Graph(2, [(0, 1)]), [1, 2], {0})


def test_join_without_both_classes_is_identity():
    child = dp_union(dp_leaf(1, 0), dp_leaf(1, 1))
    out = dp_join(2, 3, child)
    assert list(out) == list(child)


def test_join_revalues_gap_when_fused_mask_equals_old_key():
    # Below the root join only labels 2 and 3 are live.  Selecting vertices
    # 0, 2, 3 and 4 there leaves two selected components, {0, 3, 4} with
    # label set {2,3} next to the unselected vertex 1, and {2} with label
    # set {2}; the join fuses them, and the fused set is again {2,3}.  The
    # adjacency key stays put while the component behind it grows from 3
    # to 4 vertices, so the stored gap must still be recomputed.  Nothing
    # is live at the root, so the join runs on the child's table here.
    text = (
        "(e 2 3 (e 1 3 (u (r 2 3 (u (v 3) (v 3))) (r 3 2 (u (v 2)"
        " (e 1 3 (r 2 1 (u (v 1) (r 1 3 (v 1))))))))))"
    )
    expr = parse_cexpression(text)
    g, labels = eval_graph(expr)
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)]
    assert g.edges == Graph(5, edges).edges
    child = dp_evaluate(expr)[expr.root.child]
    assert maps(by_witness(child, (0, 2, 3, 4)))[2] == {(6, 4): (3, 1, 2)}
    summary = ref_summary(g, labels, {0, 2, 3, 4}, live=0b110)
    inside, _, pairs = maps(by_summary(dp_join(2, 3, child), summary))
    assert inside == {6: (4, 4)}
    assert pairs == {(6, 4): (4, 1, 3)}


def test_projection_drops_summaries_when_no_key_changes():
    # Vertex 0's label dies at its leaf, so at the union below the root a
    # selection of it and another vertex holds a dead component next to
    # another selected one: connected mode drops those three selections
    # there, though no other summary changes
    expr = parse_cexpression("(e 2 3 (u (v 1) (u (v 2) (v 3))))")
    every = [[], [2], [1], [1, 2], [0], [0, 2], [0, 1], [0, 1, 2]]
    for connected, want in ((False, every), (True, every[:5])):
        table = dp_evaluate(expr, connected)[expr.root.child]
        assert [vertices_of(w) for w in table.values()] == want
    # a pair of two dead components with a negative gap is unsafe for good,
    # so a relabel that renames nothing still drops its selection
    dead_pair = (_DEAD, (), (((0, 0), 1, 2, -1),))
    assert dp_relabel(3, 1, {dead_pair: 0b1}) == {}


def test_transitions_reject_equal_labels():
    with pytest.raises(InputError):
        dp_relabel(2, 2, dp_leaf(2))
    with pytest.raises(InputError):
        dp_join(1, 1, dp_leaf(1))


# ---------------------------------------------------------------------------
# the master property: every summary means what direct recomputation says


def assert_tables_definitional(expr):
    """Every node's table, in both modes, is exactly the set of projected
    summaries of the node's selections (``ref_summary`` on the node's live
    labels, ``ref_live_labels``), each with its least selection."""
    live = ref_live_labels(expr)
    spans = leaf_spans(expr)
    for connected in (False, True):
        tables = dp_evaluate(expr, connected)
        for node in iter_nodes(expr.root):
            base, end = spans[node]
            size = end - base
            sub = CExpression(node, expr.label_count)
            g, labels = eval_graph(sub)
            assert g.n == size
            entries = tables[node]
            assert len(entries) <= 2 ** size

            def summary(subset):
                return ref_summary(g, labels, subset, live[node], connected)

            # every kept selection's summary, with the least selection
            # reaching it: sizes ascending, each in sorted-tuple order, the
            # first one kept
            least = {}
            for k in range(size + 1):
                for subset in itertools.combinations(range(size), k):
                    if (got := summary(subset)) is not None:
                        least.setdefault(frozen(got), list(subset))
            summaries = set()
            for entry in entries.items():
                inside, outside, _ = maps(entry)
                assert all(t > 0 for t, _ in inside.values())
                assert all(t > 0 for t, _ in outside.values())
                local = {v - base for v in vertices_of(entry[1])}
                assert all(0 <= v < size for v in local)
                assert maps(entry) == summary(local)
                assert sorted(local) == least[frozen(maps(entry))]
                # live selected components hold exactly the witness's
                # vertices when none is dead, and never more
                in_live = sum(t for m, (t, _) in inside.items() if m)
                assert in_live == entry[1].bit_count() or (
                    0 in inside and in_live < entry[1].bit_count()
                )
                summaries.add(frozen(maps(entry)))
            assert len(summaries) == len(entries)
            assert summaries == set(least)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_live_labels_match_walking_up(seed):
    rng = random.Random(seed)
    expr = random_expression(rng, label_count=rng.randint(2, 4), max_leaves=9)
    assert _live_labels(list(iter_nodes(expr.root))) == ref_live_labels(expr)


def test_cycle_parks_vertices_on_a_dead_label():
    # label 3 only parks interior path vertices, so it is dead everywhere;
    # every leaf sits below a join of 2 and 4 and the closing join of 1
    # and 2
    expr = cycle_expression(5)
    live = _live_labels(list(iter_nodes(expr.root)))
    assert live[expr.root] == 0
    assert live[expr.root.child] == 0b0011
    assert all(not mask & 0b0100 for mask in live.values())
    assert {live[n] for n in iter_nodes(expr.root) if isinstance(n, Leaf)} == {0b1011}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
# fixed seeds, so that every run checks the label set 0 rules and the
# collapse after a rename: 0 collapses summaries after a rename, 9 re-caps
# after a union and drops a dead outside bucket, and 84 drops a dead bucket
# of two components in connected mode
@example(0)
@example(9)
@example(84)
def test_summaries_match_direct_recomputation(seed):
    expr = random_expression(random.Random(seed), label_count=3, max_leaves=6)
    assert_tables_definitional(expr)


def test_summaries_match_on_fixed_trees():
    for text in [K2_TEXT, PATH4_TEXT, NESTED_JOIN_TEXT, JOIN_DOOMS_TEXT]:
        assert_tables_definitional(parse_cexpression(text))
    assert_tables_definitional(cycle_expression(6))
    # two trees whose tables go wrong when pairs that meet keep their
    # largest gap instead of the smallest
    assert_tables_definitional(random_expression(random.Random(64), label_count=3, max_leaves=8))
    assert_tables_definitional(random_expression(random.Random(2), label_count=4, max_leaves=7))


# ---------------------------------------------------------------------------
# solving


def test_solve_single_vertex():
    res = solve_cw(parse_cexpression("(v 1)"))
    assert res.feasible and res.size == 1 and res.witness == frozenset({0})


def test_solve_two_vertex_graph():
    res = solve_cw(parse_cexpression(K2_TEXT))
    assert res.size == 1


def test_solve_path_matches_reference():
    expr = parse_cexpression(PATH4_TEXT)
    g, _ = eval_graph(expr)
    assert g == path_graph(4)
    assert solve_cw(expr).size == safe_number_bf(g).size == 2
    assert solve_cw(expr, connected=True).size == connected_safe_number_bf(g).size == 2


def test_solve_complete_graph_expression():
    expr = parse_cexpression(NESTED_JOIN_TEXT)
    g, _ = eval_graph(expr)
    assert g == complete_graph(4)
    assert solve_cw(expr).size == 2
    assert solve_cw(expr, connected=True).size == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_solve_cycles_both_modes(n):
    expr = cycle_expression(n)
    g, _ = eval_graph(expr)
    assert g == cycle_graph(n)
    plain = solve_cw(expr)
    linked = solve_cw(expr, connected=True)
    assert plain.size == safe_number_bf(g).size
    assert linked.size == connected_safe_number_bf(g).size
    assert is_safe_set(g, plain.witness)
    assert is_connected_safe_set(g, linked.witness)


def test_solve_eight_cycle_needs_four():
    expr = cycle_expression(8)
    assert solve_cw(expr).size == 4
    assert solve_cw(expr, connected=True).size == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_solve_agrees_with_reference_search(seed):
    expr = random_expression(random.Random(seed), label_count=3, max_leaves=8)
    g, _ = eval_graph(expr)
    plain = solve_cw(expr)
    linked = solve_cw(expr, connected=True)
    assert plain.size == safe_number_bf(g).size
    assert linked.size == connected_safe_number_bf(g).size
    assert is_safe_set(g, plain.witness)
    assert is_connected_safe_set(g, linked.witness)


def test_solve_is_deterministic():
    expr = cycle_expression(7)
    first = solve_cw(expr, connected=True)
    second = solve_cw(expr, connected=True)
    assert first.witness == second.witness and first.size == second.size


# Frozen witnesses, plain and connected, on cycles and on seeded random
# trees (3 labels, <= 10 leaves): each is the least minimum set by sorted
# ids, which the definition test below recomputes by brute force.
CYCLE_WITNESSES = {
    5: ([0, 1, 2], [0, 1, 2]),
    6: ([0, 1, 2], [0, 1, 2]),
    7: ([0, 1, 2, 3], [0, 1, 2, 3]),
    8: ([0, 1, 2, 3], [0, 1, 2, 3]),
    9: ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
    10: ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
    11: ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]),
}
RANDOM_TREE_WITNESSES = [
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
    ([0, 1], [0, 2]),
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
    ([0, 1, 2, 3], [0, 1, 2, 3]),
    ([0], [0]),
    ([0], [0]),
    ([1], [1]),
    ([0], [0]),
    ([0], [0]),
    ([4], [4]),
    ([0], [0]),
    ([0], [0]),
    ([0], [0]),
]


def solved_witnesses(expr):
    return tuple(sorted(solve_cw(expr, connected=c).witness) for c in (False, True))


def test_solve_is_the_least_minimum_safe_set():
    # the criterion-3 corpus, then 150 trees with 3 labels and <= 10 leaves
    # and 150 with 4 labels and <= 8 leaves
    rng = random.Random(20)
    exprs = expression_corpus(200) + [
        random_expression(rng, label_count, max_leaves)
        for label_count, max_leaves in [(3, 10)] * 150 + [(4, 8)] * 150
    ]
    for idx, expr in enumerate(exprs):
        g, _ = eval_graph(expr)
        for connected in (False, True):
            got = solve_cw(expr, connected=connected).witness
            assert got == ref_least_safe_set(g, connected), (idx, connected)


@pytest.mark.parametrize("n", sorted(CYCLE_WITNESSES))
def test_cycle_witnesses_are_pinned(n):
    assert solved_witnesses(cycle_expression(n)) == CYCLE_WITNESSES[n]


def test_random_tree_witnesses_are_pinned():
    got = [
        solved_witnesses(random_expression(random.Random(seed), label_count=3, max_leaves=10))
        for seed in range(len(RANDOM_TREE_WITNESSES))
    ]
    assert got == RANDOM_TREE_WITNESSES


# Whole root families, the same in both modes here: each summary's three
# maps and the least witness it keeps.  No label is live at the root, so a
# summary only tells an empty selection from a safe one, and in connected
# mode a safe one is a single component.
NOTHING = ({}, {}, {})
SELECTED = ({0: (1, 1)}, {}, {})
CYCLE4_ROOT = [(NOTHING, []), (SELECTED, [0, 1])]
RANDOM0_ROOT = [(NOTHING, []), (SELECTED, [3])]


def test_root_family_is_pinned():
    cases = [
        (cycle_expression(4), CYCLE4_ROOT),
        (random_expression(random.Random(0), label_count=3, max_leaves=6), RANDOM0_ROOT),
    ]
    for expr, family in cases:
        for connected in (False, True):
            root = dp_evaluate(expr, connected)[expr.root]
            assert len(root) == len(family)
            got = {(frozen(maps(e)), tuple(vertices_of(e[1]))) for e in root.items()}
            assert got == {(frozen(m), tuple(w)) for m, w in family}


# Upper bounds on the table sizes of the 12-cycle's tree without a cap,
# (summed, largest), plain and connected.  Before a dead selected component
# next to a larger unselected live one dropped its selection they read
# 11,865 and 1,350 (2,559 and 179), and before dead labels were forgotten
# both modes read 30,798 and 3,546.
CYCLE12_TABLES = {False: (8_012, 882), True: (2_050, 151)}


# The counts ``solve_cw`` reports for the 12-cycle's tree, plain and
# connected, under approx's cap of 7 vertices; without the cap they met
# the bounds above exactly.
CYCLE12_STATS = {
    False: {"cap": 7, "tables": 55, "table_entries_sum": 5_777, "table_entries_max": 465},
    True: {"cap": 7, "tables": 55, "table_entries_sum": 1_544, "table_entries_max": 78},
}

# Bounds on the tracemalloc peak of ``solve_cw`` on the 12-cycle's tree, in
# bytes, plain and connected.  The walk keeps a table only until its parent
# is built, each table is one dict, each summary three columns of whole
# items, and every selection that can no longer win is dropped, which peaks
# at about 0.57 and 0.10 MB.  Keeping those selections peaked at about 1.7
# and 0.23 MB, seven parallel columns of (label set, value) items at about
# 3.6 and 0.56 MB, tables as lists of records at about 4.0 and 0.4 MB, and
# keeping every such table until the walk ended at about 8.3 and 1.3 MB.
CYCLE12_PEAK = {False: 900_000, True: 150_000}


@pytest.mark.parametrize("connected", [False, True])
def test_cycle_tables_stay_small(connected):
    sizes = [len(t) for t in dp_evaluate(cycle_expression(12), connected).values()]
    total, largest = CYCLE12_TABLES[connected]
    assert sum(sizes) <= total
    assert max(sizes) <= largest


def approx_cap(expr):
    """The cap ``solve_cw`` walks with when no limit is set."""
    return approx_safe_set(eval_graph(expr)[0]).size


def capped(table, cap):
    return {key: w for key, w in table.items() if w.bit_count() <= cap}


def table_counts(expr, connected, cap):
    """``solve_cw``'s stats recounted on ``dp_evaluate``'s tables cut to
    witnesses of at most ``cap`` vertices."""
    sizes = [len(capped(t, cap)) for t in dp_evaluate(expr, connected).values()]
    return {
        "cap": cap,
        "tables": len(sizes),
        "table_entries_sum": sum(sizes),
        "table_entries_max": max(sizes),
    }


def cap_corpus():
    rng = random.Random(26)
    return [cycle_expression(n) for n in range(9, 13)] + [
        random_expression(rng, label_count=rng.randint(2, 4), max_leaves=10) for _ in range(20)
    ]


@pytest.mark.parametrize("connected", [False, True])
def test_stats_count_the_tables(connected):
    exprs = cap_corpus()
    got = [solve_cw(expr, connected).stats for expr in exprs]
    assert got == [table_counts(expr, connected, approx_cap(expr)) for expr in exprs]
    assert got[3] == CYCLE12_STATS[connected]
    # an answer over the limit is infeasible, and the limit caps the tables
    res = solve_cw(exprs[3], connected, limit=1)
    assert not res.feasible and res.stats == table_counts(exprs[3], connected, 1)


@pytest.mark.parametrize("connected", [False, True])
def test_capped_walk_is_the_filtered_evaluation(connected):
    # a selection only grows towards the root and a kept summary keeps its
    # least witness, so cutting every table at the cap loses nothing that
    # the full tables would have kept under it
    for expr in cap_corpus():
        cap = approx_cap(expr)
        full = dp_evaluate(expr, connected)
        walked = dict(_walk(expr, connected, cap))
        assert list(walked) == list(full)
        for node, table in full.items():
            assert walked[node] == capped(table, cap)


def test_capped_solve_is_the_least_set_under_every_limit():
    rng = random.Random(34)
    refused = 0
    for idx in range(150):
        expr = random_expression(rng, label_count=rng.randint(2, 4), max_leaves=11)
        g, _ = eval_graph(expr)
        for connected in (False, True):
            least = ref_least_safe_set(g, connected)
            for limit in (None, 0, 1, 2, 3):
                want = least if limit is None or len(least) <= limit else None
                refused += want is None
                assert solve_cw(expr, connected, limit).witness == want, (idx, connected, limit)
    # 356 of the 1,500 solves have a limit below the optimum
    assert refused >= 350


@pytest.mark.parametrize("connected", [False, True])
def test_walk_keeps_a_table_only_until_its_parent_reads_it(connected):
    expr = cycle_expression(12)
    tracemalloc.start()
    try:
        solve_cw(expr, connected)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CYCLE12_PEAK[connected]


CW_TABLES = Path(__file__).resolve().parent.parent / "scripts" / "cw_tables.py"


@pytest.mark.parametrize("connected", [False, True])
def test_cw_tables_script_reports_the_solver_stats(connected):
    spec = importlib.util.spec_from_file_location("cw_tables", CW_TABLES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for n in (6, 8):
        stats, peak = script.measure(n, connected)
        assert stats == solve_cw(cycle_expression(n), connected).stats
        assert peak > 0


def test_solve_rejects_repeated_join():
    expr = parse_cexpression("(e 1 2 (e 1 2 (u (v 1) (v 2))))")
    with pytest.raises(InputError, match="re-adds"):
        solve_cw(expr)


def test_solve_rejects_out_of_range_labels():
    with pytest.raises(InputError):
        solve_cw(CExpression(Leaf(2), 1))


# a 4-cycle laid out so the two ends of a *non*-edge get the smallest ids:
# vertex 0 (label 3) and vertex 1 (label 4) sit opposite each other
CROSSED_RING_TEXT = (
    "(r 4 1 (r 3 1 (r 2 1 (e 2 3 (e 4 2 (e 1 4 (e 3 1"
    " (u (u (v 3) (v 4)) (u (v 1) (v 2))))))))))"
)


def test_connected_scan_skips_disconnected_summary():
    expr = parse_cexpression(CROSSED_RING_TEXT)
    g, labels = eval_graph(expr)
    assert g == Graph(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
    assert labels == [1, 1, 1, 1]
    res = solve_cw(expr, connected=True)
    assert res.size == 2
    assert is_connected_safe_set(g, res.witness)


def test_plain_scan_accepts_disconnected_optimum():
    expr = parse_cexpression(CROSSED_RING_TEXT)
    res = solve_cw(expr)
    assert res.size == 2
    assert res.witness == frozenset({0, 1})
