"""Parsing, evaluation, and edge-accounting of construction trees."""

import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeset.cexpr import (
    _TOKEN,
    CExpression,
    DisjointUnion,
    Join,
    Leaf,
    Relabel,
    check_expression,
    cycle_expression,
    eval_graph,
    format_cexpression,
    iter_nodes,
    leaf_spans,
    parse_cexpression,
    validate_irredundant,
    _tokenize,
)
from safeset.cw import solve_cw
from safeset.generators import cycle_graph, path_graph
from safeset.graph import Graph, InputError
from safeset.io import MAX_VERTICES, FormatError, load_graph

K2_TEXT = "(e 1 2 (u (v 1) (v 2)))"

# evaluates to the complete graph on 4 vertices: each outer join connects a
# fresh label-1 vertex to everything built so far
NESTED_JOIN_TEXT = (
    "(e 1 2 (u (v 1) (r 1 2 (e 1 2 (u (v 1) (r 1 2 (e 1 2 (u (v 1) (v 2)))))))))"
)

PATH4_TEXT = "(e 2 3 (u (r 3 2 (r 2 1 (e 2 3 (u (e 1 2 (u (v 1) (v 2))) (v 3))))) (v 3)))"

# a single vertex under 1,200 relabels alternating 1 -> 2 and 2 -> 1, deeper
# than the interpreter's default recursion limit
DEEP_CHAIN_DEPTH = 1200
DEEP_CHAIN_TEXT = (
    "c 2\n"
    + "".join("(r 1 2 " if k % 2 == 0 else "(r 2 1 " for k in range(DEEP_CHAIN_DEPTH))
    + "(v 1)"
    + ")" * DEEP_CHAIN_DEPTH
    + "\n"
)

# arbitrary text, and token soups of the format's own words and integers
EXPR_TEXTS = st.one_of(
    st.text(max_size=200),
    st.lists(
        st.one_of(st.sampled_from("()vurec"), st.integers().map(str)), max_size=40
    ).map(" ".join),
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_cycle_expression.py"


def test_parse_single_leaf():
    expr = parse_cexpression("(v 1)")
    assert isinstance(expr.root, Leaf)
    assert expr.root.label == 1
    assert expr.label_count == 1


def test_parse_two_vertex_join_structure():
    expr = parse_cexpression(K2_TEXT)
    root = expr.root
    assert isinstance(root, Join)
    assert (root.first, root.second) == (1, 2)
    assert isinstance(root.child, DisjointUnion)
    assert isinstance(root.child.left, Leaf)
    assert isinstance(root.child.right, Leaf)
    assert expr.label_count == 2


def test_parse_header_comments_whitespace():
    text = """
    # a two-vertex complete graph
    c 4
    (e 1 2
       (u (v 1)   # first vertex
          (v 2)))
    """
    expr = parse_cexpression(text)
    assert expr.label_count == 4
    g, labels = eval_graph(expr)
    assert g == Graph(2, [(0, 1)])
    assert labels == [1, 2]


def test_tokens_split_on_every_space_and_at_parentheses():
    # a tab, a no-break space, an em space and an ideographic space each
    # separate tokens, and a parenthesis ends a word with no space before it
    text = "c\t3\n(e 1\u00a02(u(v 1)\u2003(r 3 2(v\u30003))))# (v 9)"
    assert _tokenize(text) == [
        ("c", 1, 1), ("3", 1, 3),
        ("(", 2, 1), ("e", 2, 2), ("1", 2, 4), ("2", 2, 6),
        ("(", 2, 7), ("u", 2, 8), ("(", 2, 9), ("v", 2, 10), ("1", 2, 12), (")", 2, 13),
        ("(", 2, 15), ("r", 2, 16), ("3", 2, 18), ("2", 2, 20),
        ("(", 2, 21), ("v", 2, 22), ("3", 2, 24),
        (")", 2, 25), (")", 2, 26), (")", 2, 27), (")", 2, 28),
    ]
    g, labels = eval_graph(parse_cexpression(text))
    assert g == Graph(2, [(0, 1)]) and labels == [1, 2]
    with pytest.raises(FormatError, match=r"^line 1, col 13: expected a label, got 'a'$"):
        parse_cexpression("(u (v 1)\u2003(v a))")
    # over every code point, the tokens hold exactly what str.isspace rejects
    every = "".join(map(chr, range(0x110000)))
    assert "".join(_TOKEN.findall(every)) == "".join(c for c in every if not c.isspace())


def test_parse_rejects_label_beyond_header():
    with pytest.raises(FormatError, match="exceeds the declared count") as info:
        parse_cexpression("c 2\n(v 3)")
    # the message names the position of the first label over the count
    assert str(info.value) == "line 2, col 4: label 3 exceeds the declared count 2"
    with pytest.raises(FormatError) as info:
        parse_cexpression("c 2\n(u (v 1)\n  (r 4 1 (v 3)))")
    assert str(info.value) == "line 3, col 6: label 4 exceeds the declared count 2"


@pytest.mark.parametrize(
    "text",
    [
        "(r 1 1 (v 1))",
        "(e 2 2 (u (v 1) (v 2)))",
        "(v 0)",
        "(v -3)",
        "(v)",
        "(v 1 2)",
        "(x 1)",
        "(v 1",
        "(v 1)) ",
        "(v 1) (v 2)",
        "(v a)",
        "",
        "c 0 (v 1)",
        "(u (v 1))",
        f"(v {MAX_VERTICES + 1})",
        f"(r 1 {MAX_VERTICES + 1} (v 1))",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(FormatError):
        parse_cexpression(text)


# one input for each message the parser gives
PARSE_MESSAGES = [
    ("  # only a comment\n", "line 1, col 1: empty input"),
    ("(u (v 1)\n", "line 1, col 8: unexpected end of input"),
    ("v 1", "line 1, col 1: expected '(', got 'v'"),
    ("(v 1 2)", "line 1, col 6: expected ')', got '2'"),
    ("(v a)", "line 1, col 4: expected a label, got 'a'"),
    ("c x\n(v 1)", "line 1, col 3: expected the label count, got 'x'"),
    ("(v 0)", "line 1, col 4: labels are positive, got 0"),
    (
        f"(r 1 {MAX_VERTICES + 1} (v 1))",
        f"line 1, col 6: label {MAX_VERTICES + 1} exceeds {MAX_VERTICES}",
    ),
    ("c 2\n(e 1 3 (v 1))", "line 2, col 6: label 3 exceeds the declared count 2"),
    ("(r 1 1 (v 1))", "line 1, col 4: 'r' needs two distinct labels"),
    ("(u (v 2)\n (e 2 2 (v 1)))", "line 2, col 5: 'e' needs two distinct labels"),
    ("(x 1)", "line 1, col 2: unknown operator 'x' (expected v, u, r, e)"),
    ("c -2\n(v 1)", "line 1, col 3: label count must be positive"),
    ("(v 1)\n(v 2)", "line 2, col 1: trailing input after the expression"),
]


@pytest.mark.parametrize("text, message", PARSE_MESSAGES)
def test_parse_messages_are_exact(text, message):
    with pytest.raises(FormatError) as info:
        parse_cexpression(text)
    assert str(info.value) == message


def test_parse_accepts_largest_label():
    expr = parse_cexpression(f"(r {MAX_VERTICES} 1 (v {MAX_VERTICES}))")
    assert expr.label_count == MAX_VERTICES
    assert eval_graph(expr)[1] == [1]


@settings(max_examples=300, deadline=None)
@given(EXPR_TEXTS)
def test_parse_fuzz_returns_or_raises_input_errors(text):
    try:
        expr = parse_cexpression(text)
    except FormatError as err:
        # every message names a line of the text (line 1 of an empty one)
        where = re.match(r"line (\d+), col \d+: ", str(err))
        assert where is not None
        assert 1 <= int(where[1]) <= max(1, len(text.splitlines()))
        return
    rendered = format_cexpression(expr)
    assert format_cexpression(parse_cexpression(rendered)) == rendered


def test_parse_errors_carry_positions():
    with pytest.raises(FormatError, match=r"line 2, col 9"):
        parse_cexpression("c 2\n(u (v 1 2) (v 2))")


def test_eval_single_leaf():
    g, labels = eval_graph(parse_cexpression("(v 1)"))
    assert g == Graph(1)
    assert labels == [1]


def test_eval_vertex_ids_follow_leaf_order():
    g, labels = eval_graph(parse_cexpression("(u (v 2) (v 1))"))
    assert g.n == 2 and g.m == 0
    assert labels == [2, 1]


def test_eval_relabel_changes_labels_only():
    g, labels = eval_graph(parse_cexpression("(r 1 2 (v 1))"))
    assert g == Graph(1)
    assert labels == [2]


def test_eval_join_with_empty_side_adds_nothing():
    expr = parse_cexpression("(e 1 2 (u (v 1) (v 1)))")
    g, labels = eval_graph(expr)
    assert g.m == 0
    assert labels == [1, 1]
    assert validate_irredundant(expr) is None


def test_eval_nested_join_chain_builds_complete_graph():
    # the inner relabels funnel every finished vertex into class 2, so each
    # successive join connects the new class-1 vertex to all of them
    g, labels = eval_graph(parse_cexpression(NESTED_JOIN_TEXT))
    assert g.n == 4
    assert g.m == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))
    assert labels == [1, 2, 2, 2]


def test_eval_three_label_path():
    expr = parse_cexpression(PATH4_TEXT)
    g, _ = eval_graph(expr)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert validate_irredundant(expr) is None


def test_irredundant_ok_for_join_free_tree():
    expr = parse_cexpression("(r 1 2 (u (v 1) (v 1)))")
    assert validate_irredundant(expr) is None


def test_irredundant_flags_repeated_join():
    expr = parse_cexpression("(e 1 2 (e 1 2 (u (v 1) (v 2))))")
    bad = validate_irredundant(expr)
    assert bad is expr.root


def test_irredundant_flags_partial_overlap():
    # the outer join re-adds the inner 0-1 edge besides new ones
    expr = parse_cexpression("(e 1 2 (u (e 1 2 (u (v 1) (v 2))) (v 1)))")
    bad = validate_irredundant(expr)
    assert bad is expr.root


@pytest.mark.parametrize("text", [K2_TEXT, NESTED_JOIN_TEXT, PATH4_TEXT])
def test_format_round_trip(text):
    expr = parse_cexpression(text)
    rendered = format_cexpression(expr)
    again = parse_cexpression(rendered)
    assert format_cexpression(again) == rendered
    assert eval_graph(again)[0] == eval_graph(expr)[0]


def test_deep_relabel_chain_parses_and_evaluates():
    expr = parse_cexpression(DEEP_CHAIN_TEXT)
    assert expr.label_count == 2
    assert len(list(iter_nodes(expr.root))) == DEEP_CHAIN_DEPTH + 1
    check_expression(expr)
    assert validate_irredundant(expr) is None
    assert eval_graph(expr) == (Graph(1), [2])
    assert format_cexpression(expr) == DEEP_CHAIN_TEXT


def test_format_round_trip_of_deep_cycle():
    expr = cycle_expression(400)
    again = parse_cexpression(format_cexpression(expr))
    assert eval_graph(again)[0] == eval_graph(expr)[0] == cycle_graph(400)


def test_leaf_spans_cover_contiguous_ranges():
    expr = parse_cexpression(PATH4_TEXT)
    spans = leaf_spans(expr)
    assert [node for node, _, _ in spans] == list(iter_nodes(expr.root))
    assert spans[-1] == (expr.root, 0, 4)
    leaf_starts = sorted(s for node, s, e in spans if isinstance(node, Leaf))
    assert leaf_starts == [0, 1, 2, 3]
    for node, s, e in spans:
        assert 0 <= s < e <= 4


def test_leaf_spans_give_a_shared_node_one_span_per_place():
    leaf = Leaf(1)
    spans = leaf_spans(CExpression(DisjointUnion(leaf, leaf), 1))
    assert [(s, e) for _, s, e in spans] == [(0, 1), (1, 2), (0, 2)]


def test_iter_nodes_is_post_order():
    expr = parse_cexpression(K2_TEXT)
    nodes = list(iter_nodes(expr.root))
    assert nodes[-1] is expr.root
    seen = set()
    for node in nodes:
        if isinstance(node, DisjointUnion):
            assert node.left in seen and node.right in seen
        elif isinstance(node, (Relabel, Join)):
            assert node.child in seen
        seen.add(node)
    assert len(nodes) == 4


def test_check_expression_rejects_out_of_range_label():
    with pytest.raises(InputError, match="^label 2 exceeds the declared count 1$"):
        check_expression(CExpression(Leaf(2), 1))
    with pytest.raises(InputError, match="^labels are positive, got 0$"):
        check_expression(CExpression(Relabel(0, 1, Leaf(1)), 1))


def test_check_expression_caps_labels_like_the_parser():
    big = 8 << 20
    expr = CExpression(Join(1, big, DisjointUnion(Leaf(1), Leaf(big))), big)
    reason = f"label {big} exceeds {MAX_VERTICES}"
    with pytest.raises(FormatError, match=reason):
        parse_cexpression(format_cexpression(expr))
    with pytest.raises(InputError, match=reason):
        check_expression(expr)
    with pytest.raises(InputError, match=reason):
        solve_cw(expr)
    check_expression(CExpression(Relabel(MAX_VERTICES, 1, Leaf(MAX_VERTICES)), MAX_VERTICES))


def test_check_expression_rejects_equal_labels():
    with pytest.raises(InputError, match="distinct"):
        check_expression(CExpression(Relabel(1, 1, Leaf(1)), 2))
    with pytest.raises(InputError, match="distinct"):
        check_expression(CExpression(Join(2, 2, Leaf(1)), 2))


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_expression_builds_cycles(n):
    expr = cycle_expression(n)
    check_expression(expr)
    assert validate_irredundant(expr) is None
    g, _ = eval_graph(expr)
    ring = [(i, (i + 1) % n) for i in range(n)]
    assert g == Graph(n, ring)
    assert expr.label_count == 4


def test_cycle_expression_rejects_tiny_cycles():
    with pytest.raises(InputError):
        cycle_expression(2)


def load_script():
    spec = importlib.util.spec_from_file_location("make_cycle_expression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cycle_script_writes_deep_cycle(tmp_path):
    expr_path, graph_path = tmp_path / "c400.expr", tmp_path / "c400.gr"
    code = load_script().main(["-n", "400", "-o", str(expr_path), "--graph-out", str(graph_path)])
    assert code == 0
    assert load_graph(str(graph_path)) == cycle_graph(400)
    assert eval_graph(parse_cexpression(expr_path.read_text()))[0] == cycle_graph(400)


def test_cycle_script_refuses_wrong_graph(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "cycle_graph", path_graph)
    expr_path = tmp_path / "c5.expr"
    assert script.main(["-n", "5", "-o", str(expr_path)]) == 1
    assert not expr_path.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not build the 5-cycle" in err


@pytest.mark.parametrize("n", [-1, 0, 2])
def test_cycle_script_refuses_short_cycles(tmp_path, capsys, n):
    expr_path = tmp_path / "short.expr"
    assert load_script().main(["-n", str(n), "-o", str(expr_path)]) == 1
    assert not expr_path.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "at least 3" in err
