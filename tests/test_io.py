"""Text format round trips and error reporting."""

from __future__ import annotations

import pytest

from safeset.generators import cycle_graph, random_connected_graph
from safeset.io import (
    MAX_VERTICES,
    FormatError,
    decomposition_from_json,
    decomposition_to_json,
    format_bigraph,
    format_graph,
    parse_bigraph,
    parse_graph,
    vertex_set_from_text,
)
from safeset.graph import PathDecomposition
from safeset.reductions import Bigraph

import random


def test_parse_simple():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_comments_and_blanks():
    text = "# a path\n\n3 2\n# edges follow\n0 1\n\n1 2\n"
    g = parse_graph(text)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 3: duplicate edge"):
        parse_graph("2 2\n0 1\n1 0")
    with pytest.raises(FormatError, match="line 3: vertex out of range"):
        parse_graph("2 2\n0 1\n0 5")
    with pytest.raises(FormatError, match="line 2: self-loop"):
        parse_graph("2 1\n1 1")
    with pytest.raises(FormatError, match="promises 2 edges"):
        parse_graph("3 2\n0 1")
    with pytest.raises(FormatError, match="expected 2 integers"):
        parse_graph("3 1\n0 1 2")
    with pytest.raises(FormatError, match="missing"):
        parse_graph("# nothing here\n")


def test_graph_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(1, 9))
        assert parse_graph(format_graph(g)) == g
    g = cycle_graph(5)
    assert parse_graph(format_graph(g)) == g


def test_bigraph_round_trip_and_errors():
    bg = Bigraph(2, 3, frozenset({(0, 0), (1, 2)}))
    assert parse_bigraph(format_bigraph(bg)) == bg
    with pytest.raises(FormatError, match="red index"):
        parse_bigraph("1 1 1\n1 0")
    with pytest.raises(FormatError, match="blue index"):
        parse_bigraph("1 1 1\n0 1")
    with pytest.raises(FormatError, match="duplicate pair"):
        parse_bigraph("1 1 2\n0 0\n0 0")


def test_decomposition_json_round_trip():
    pd = PathDecomposition([{0, 1}, {1, 2}])
    assert decomposition_from_json(decomposition_to_json(pd)) == pd


def test_decomposition_json_rejects_non_integer_members():
    for text in ['[[0, 1.5]]', '[[0, "1"]]', '[[true, 1]]', '[[0, null]]', '[[[0]]]']:
        with pytest.raises(FormatError, match="lists of integers"):
            decomposition_from_json(text)
    with pytest.raises(FormatError, match="line 2: bad decomposition JSON"):
        decomposition_from_json("[[0],\n[1,]]")


def test_headers_above_vertex_cap_are_refused():
    with pytest.raises(FormatError, match="line 1: header announces 1000000000 vertices"):
        parse_graph("1000000000 0\n")
    with pytest.raises(FormatError, match="more than"):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    with pytest.raises(FormatError, match="line 2: header announces"):
        parse_bigraph("# big\n600000000 600000000 0\n")
    with pytest.raises(FormatError, match="more than"):
        parse_bigraph(f"{MAX_VERTICES} 1 0\n")
    assert parse_bigraph(f"{MAX_VERTICES - 1} 1 0\n").r == MAX_VERTICES - 1


def test_vertex_set_from_text():
    assert vertex_set_from_text("0,1,4,5") == frozenset({0, 1, 4, 5})
    with pytest.raises(FormatError):
        vertex_set_from_text("0,x")
    with pytest.raises(FormatError):
        vertex_set_from_text("  ")
