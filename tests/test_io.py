"""Text format round trips and error reporting."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import ref_parse_graph, ref_sidecar_text
from safeset.generators import complete_graph, cycle_graph, path_graph, random_connected_graph
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
    write_sidecar,
)
from safeset.graph import PathDecomposition
from safeset.reductions import Bigraph, ds_to_ss, rbds_to_ss


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


# every bigraph FormatError, with its full message
BIGRAPH_ERRORS = [
    ("", "line 1: missing 'r b m' header"),
    ("# only a comment\n", "line 1: missing 'r b m' header"),
    ("1 x 0\n", "line 1: expected integers, got '1 x 0'"),
    ("1 1\n", "line 1: expected 3 integers, got '1 1'"),
    ("\n2 -1 0\n", "line 2: negative counts in header"),
    ("-1 2 0\n", "line 1: negative counts in header"),
    ("1 1 -1\n", "line 1: negative counts in header"),
    (f"{MAX_VERTICES} 1 0\n", "line 1: header announces 1048577 vertices, more than 1048576"),
    ("2 2 2\n0 1\n", "line 1: header promises 2 edges, file has 1 edge lines"),
    ("2 2 0\n0 1\n", "line 1: header promises 0 edges, file has 1 edge lines"),
    ("2 2 1\n# c\n2 0\n", "line 3: red index 2 out of range [0, 2)"),
    ("2 2 1\n-1 0\n", "line 2: red index -1 out of range [0, 2)"),
    ("2 2 1\n0 2\n", "line 2: blue index 2 out of range [0, 2)"),
    ("2 2 1\n0 -1\n", "line 2: blue index -1 out of range [0, 2)"),
    ("2 2 2\n0 1\n\n0 1\n", "line 4: duplicate pair (0, 1)"),
    ("2 2 1\n0 1 1\n", "line 2: expected 2 integers, got '0 1 1'"),
    ("2 2 1\n0 y\n", "line 2: expected integers, got '0 y'"),
]


@pytest.mark.parametrize("text,message", BIGRAPH_ERRORS)
def test_bigraph_error_messages_are_pinned(text, message):
    assert MAX_VERTICES == 1048576
    with pytest.raises(FormatError) as info:
        parse_bigraph(text)
    assert str(info.value) == message


def test_decomposition_json_round_trip():
    pd = PathDecomposition([{0, 1}, {1, 2}])
    assert decomposition_from_json(decomposition_to_json(pd)) == pd
    read = decomposition_from_json("[[3, 1, 3], [], [1]]")
    assert read.bags == ((1, 3), (), (1,))
    assert decomposition_to_json(read) == "[[1, 3], [], [1]]"


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


def _read(parse, text: str):
    """What a reader makes of the text: the graph's masks, or the error."""
    try:
        g = parse(text)
    except FormatError as exc:
        return ("error", str(exc))
    return ("graph", g.n, g._masks, g.edges)


READER_CASES = [
    "3 2\n0 1\n1 2\n",
    "3 2\n0 1\n1 2",
    "3 2\n2 1\n1 0\n",
    "01 1\n00 001\n",
    "# a path\n3 2\n# edges\n0 1\n\n1 2\n# end\n",
    "3 2\n0 1\n1 2\n\n",
    "\n3 2\n0 1\n1 2\n",
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\r0 1\r1 2",
    "3\t2\n0\t1\n1 2  \n",
    "  3 2\n 0  1\n1 2 \n",
    "3 1\n+1 0\n",
    "3 1\n-1 0\n",
    "3 -1\n",
    "3 1\n\u0661 0\n",
    "\uff13 1\n0 1\n",
    "3 2\x0b0 1\x0c1 2\n",
    "3 2\x1c0 1\x1c1 2",
    "3 2\x850 1\n1 2\n",
    "3 2\u20280 1\u20291 2",
    "3 0\n",
    "3 0",
    "0 0\n",
    f"{MAX_VERTICES} 0\n",
    f"{MAX_VERTICES + 1} 0\n",
    f"{MAX_VERTICES + 1} 1\n0 1\n",
    "9" * 5000 + " 0\n",
    "2 2\n0 1\n1 0\n",
    "3 3\n0 1\n1 2\n2 1\n",
    "2 1\n1 1\n",
    "2 1\n0 2\n",
    "3 2\n0 1\n",
    "3 1\n0 1\n1 2\n",
    "3 1\n0 1 2\n",
    "3 2\n0\n1 2 1\n",
    "3 1 0\n",
    "3\n",
    "",
    "\n",
    "# nothing here\n",
]


@pytest.mark.parametrize("text", READER_CASES)
def test_reader_matches_the_line_walk(text):
    assert _read(parse_graph, text) == _read(ref_parse_graph, text)


_PIECES = st.sampled_from(
    ["0", "1", "2", "3", "9", " ", "  ", "\t", "\n", "\r\n", "\r", "#", "+", "-",
     "\u0661", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
)


@st.composite
def _graph_texts(draw):
    """Mostly well-formed files, some with a few pieces of the alphabet
    inserted; numbers stay small so edges repeat and leave the range."""
    n = draw(st.integers(0, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    text = "\n".join([f"{n} {m}"] + [f"{u} {v}" for u, v in edges])
    text += draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_PIECES) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(_graph_texts(), st.lists(_PIECES, max_size=12).map("".join)))
def test_reader_matches_the_line_walk_fuzzed(text):
    assert _read(parse_graph, text) == _read(ref_parse_graph, text)


SIDECAR_BUILDS = [
    *(lambda k=k: ds_to_ss(path_graph(2), k) for k in (1, 2, 3)),
    lambda: ds_to_ss(complete_graph(3), 2),
    lambda: ds_to_ss(cycle_graph(5), 1),
    lambda: ds_to_ss(random_connected_graph(random.Random(7), 4), 3),
    lambda: rbds_to_ss(Bigraph(1, 1, frozenset({(0, 0)})), 1),
    lambda: rbds_to_ss(Bigraph(3, 2, frozenset({(0, 0), (1, 1), (2, 1)})), 2),
    lambda: rbds_to_ss(Bigraph(4, 3, frozenset({(0, 0), (1, 2), (2, 1), (3, 2)})), 3),
]


@pytest.mark.parametrize("build", SIDECAR_BUILDS)
def test_sidecar_bytes_match_json_dumps(tmp_path, build):
    out = build()
    path = tmp_path / "out.gr.json"
    write_sidecar(path, out.target, out.role_map, out.source)
    expected = ref_sidecar_text(out.target, out.role_map, out.source)
    text = path.read_text(encoding="utf-8")
    assert path.read_bytes() == expected.encode()
    # the same object as the indented text the format had before
    indented = {
        "target": out.target,
        "role_map": {str(v): role for v, role in out.role_map.items()},
        "source": out.source,
    }
    assert json.loads(text) == json.loads(json.dumps(indented, indent=2, sort_keys=True))
    # keys in vertex order ("9" before "10") and a record with no fields
    assert out.graph.n > 10
    assert text.index('"9": {') < text.index('"10": {')
    assert any(len(role) == 1 for role in out.role_map.values())


def test_sidecar_odd_records(tmp_path):
    path = tmp_path / "odd.json"
    role_maps = [
        {},
        {0: {}},
        {12: {"role": "caf\u00e9 \"q\"", "a%s": -3}, 3: {"idx": 10**30, "role": "x"}},
    ]
    for role_map in role_maps:
        write_sidecar(path, 5, role_map, {"kind": "t", "edges": [[0, 1]]})
        assert path.read_text(encoding="utf-8") == ref_sidecar_text(
            5, role_map, {"kind": "t", "edges": [[0, 1]]}
        )
    assert json.loads(path.read_text(encoding="utf-8"))["role_map"]["12"]["a%s"] == -3
    # a bool reads back as JSON true
    write_sidecar(path, 1, {0: {"role": "x", "flag": True}}, {})
    assert '"flag": true' in path.read_text(encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["role_map"]["0"]["flag"] is True
