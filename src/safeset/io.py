"""Text formats for graphs and bipartite instances.

Graph format: a header line ``n m`` followed by exactly m lines ``u v``,
one per edge, 0-indexed, u != v, each edge listed once.  Blank lines and
lines starting with ``#`` are ignored anywhere.  Bipartite instances use a
``r b m`` header followed by m lines ``i j`` meaning red vertex i is
adjacent to blue vertex j.  Headers above ``MAX_VERTICES`` vertices are
refused before anything is built for them.  ``gen`` also writes a JSON
sidecar (``write_sidecar``): ``json.dumps(payload, sort_keys=True)`` and a
final newline, ASCII-escaped, no indent, with the role map's keys in
ascending vertex order.  Every file is read and written as UTF-8, whatever
the locale.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from pathlib import Path

from .graph import MAX_VERTICES, Graph, PathDecomposition
from .reductions import Bigraph


class FormatError(ValueError):
    """Malformed input text; the message carries a 1-based line number."""


def _ints(lineno: int, line: str, count: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"line {lineno}: expected {count} integers, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integers, got {line!r}") from None


def _header_and_body(
    text: str, header_names: str
) -> tuple[list[int], Iterator[tuple[int, int, int]]]:
    """Read a ``.gr`` header ``n m`` or a ``.bg`` header ``r b m``
    (``header_names``) and check it; return the vertex counts and the body
    as (line number, first, second) entries, each line read only when the
    caller reaches it, so the first bad line is the one reported."""
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines:
        raise FormatError(f"line 1: missing '{header_names}' header")
    lineno, header = lines[0]
    *sizes, m = _ints(lineno, header, len(header_names.split()))
    if min(*sizes, m) < 0:
        raise FormatError(f"line {lineno}: negative counts in header")
    if sum(sizes) > MAX_VERTICES:
        raise FormatError(
            f"line {lineno}: header announces {sum(sizes)} vertices, more than {MAX_VERTICES}"
        )
    if len(lines) - 1 != m:
        raise FormatError(
            f"line {lineno}: header promises {m} edges, file has {len(lines) - 1} edge lines"
        )
    return sizes, ((lineno, *_ints(lineno, line, 2)) for lineno, line in lines[1:])


# Text that is only "u v" lines of ASCII digits, each ended by one newline
# (the last one may lack it): every line is then content, so one split reads
# the numbers the line walk would, and Graph makes the range, self-loop and
# duplicate checks.
_PLAIN_GRAPH = re.compile(r"[0-9]+ [0-9]+(?:\n[0-9]+ [0-9]+)*\n?")


def parse_graph(text: str) -> Graph:
    if _PLAIN_GRAPH.fullmatch(text):
        numbers = text.split()
        try:
            n, m = int(numbers[0]), int(numbers[1])
            if n <= MAX_VERTICES and len(numbers) == 2 * m + 2:
                ends = map(int, numbers[2:])
                return Graph(n, zip(ends, ends))
        except ValueError:
            pass  # the line walk raises the error, naming the line
    return _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> Graph:
    (n,), body = _header_and_body(text, "n m")
    edges = []
    seen = set()
    for lineno, u, v in body:
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex out of range [0, {n})")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for (u, v) in sorted(g.edges))
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


def parse_bigraph(text: str) -> Bigraph:
    (r, b), body = _header_and_body(text, "r b m")
    edges = set()
    for lineno, i, j in body:
        if not (0 <= i < r):
            raise FormatError(f"line {lineno}: red index {i} out of range [0, {r})")
        if not (0 <= j < b):
            raise FormatError(f"line {lineno}: blue index {j} out of range [0, {b})")
        if (i, j) in edges:
            raise FormatError(f"line {lineno}: duplicate pair ({i}, {j})")
        edges.add((i, j))
    return Bigraph(r, b, frozenset(edges))


def format_bigraph(bg: Bigraph) -> str:
    lines = [f"{bg.r} {bg.b} {len(bg.edges)}"]
    lines.extend(f"{i} {j}" for (i, j) in sorted(bg.edges))
    return "\n".join(lines) + "\n"


def load_bigraph(path: str | Path) -> Bigraph:
    return parse_bigraph(Path(path).read_text(encoding="utf-8"))


def decomposition_to_json(pd: PathDecomposition) -> str:
    return json.dumps(pd.bags)


def decomposition_from_json(text: str) -> PathDecomposition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: bad decomposition JSON: {exc.msg}") from None
    if not isinstance(data, list) or not all(
        isinstance(b, list) and all(type(v) is int for v in b) for b in data
    ):
        raise FormatError("decomposition JSON must be a list of lists of integers")
    return PathDecomposition(data)


def vertex_set_from_text(text: str) -> frozenset[int]:
    """Parse a comma-separated vertex list such as '0,1,4,5'."""
    text = text.strip()
    if not text:
        raise FormatError("empty vertex list")
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise FormatError(f"bad vertex list {text!r}") from None


def write_sidecar(path: str | Path, target: int, role_map: dict, source: dict) -> None:
    """Write ``{"role_map", "source", "target"}`` as ``json.dumps(...,
    sort_keys=True)`` and a newline: ASCII-escaped, no indent, the role
    map's int vertex keys as strings in ascending vertex order."""
    payload = {"role_map": role_map, "source": source, "target": target}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
