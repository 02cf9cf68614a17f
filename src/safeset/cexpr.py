"""Construction trees for labeled graphs.

A tree of the four primitives below builds a graph bottom-up: create a
labeled vertex, lay two graphs side by side, rename one label to another,
or connect every vertex of one label with every vertex of another.  Dense
but regular graphs (cliques, cographs, cycles) have small trees of this
kind, and the solver in cw.py runs over the tree instead of the graph.

Text format: s-expressions ``(v i)``, ``(u A B)``, ``(r i j A)`` renaming
label i to j, and ``(e i j A)`` connecting labels i and j, with an optional
header line ``c <int>`` declaring the number of available labels.  ``#``
starts a comment; whitespace is free-form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .graph import MAX_VERTICES, Graph, InputError
from .io import FormatError

# Node classes compare by identity: the same subexpression written twice
# denotes two different parts of the built graph.


@dataclass(frozen=True, eq=False)
class Leaf:
    """Creates one vertex carrying ``label``."""

    label: int
    pos: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class DisjointUnion:
    """Places the two child graphs side by side, adding no edges."""

    left: "Node"
    right: "Node"
    pos: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class Relabel:
    """Turns every ``source``-labeled vertex of the child into ``target``."""

    source: int
    target: int
    child: "Node"
    pos: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class Join:
    """Adds all edges between ``first``- and ``second``-labeled vertices."""

    first: int
    second: int
    child: "Node"
    pos: tuple[int, int] | None = None


Node = Union[Leaf, DisjointUnion, Relabel, Join]


@dataclass(frozen=True, eq=False)
class CExpression:
    """A construction tree together with its label budget."""

    root: Node
    label_count: int


def _labels_of(node: Node) -> tuple[int, ...]:
    """The labels one node names, excluding those of its children."""
    if isinstance(node, Leaf):
        return (node.label,)
    if isinstance(node, Relabel):
        return (node.source, node.target)
    if isinstance(node, Join):
        return (node.first, node.second)
    return ()


def iter_nodes(node: Node) -> Iterator[Node]:
    """Post-order walk; children are yielded before their parent.

    The walk keeps its own stack, so trees of any depth are fine: it lists
    the nodes parent first, right child before left, and yields that list
    backwards.
    """
    order: list[Node] = []
    stack = [node]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, DisjointUnion):
            stack += (node.left, node.right)
        elif not isinstance(node, Leaf):
            stack.append(node.child)
    yield from reversed(order)


def leaf_spans(expr: CExpression) -> dict[Node, tuple[int, int]]:
    """Vertex id range [start, end) owned by each node, leftmost leaf = 0."""
    spans: dict[Node, tuple[int, int]] = {}
    leaves = 0
    for node in iter_nodes(expr.root):
        if isinstance(node, Leaf):
            spans[node] = (leaves, leaves + 1)
            leaves += 1
        elif isinstance(node, DisjointUnion):
            spans[node] = (spans[node.left][0], spans[node.right][1])
        else:
            spans[node] = spans[node.child]
    return spans


def check_expression(expr: CExpression) -> None:
    """Validate label ranges and operator shape; raises InputError."""
    if expr.label_count < 1:
        raise InputError("label count must be at least 1")
    for node in iter_nodes(expr.root):
        used = _labels_of(node)
        if len(used) == 2 and used[0] == used[1]:
            kind = "relabel" if isinstance(node, Relabel) else "join"
            raise InputError(f"{kind} needs two distinct labels")
        for lab in used:
            if lab > MAX_VERTICES:
                raise InputError(f"label {lab} exceeds {MAX_VERTICES}")
            if not (1 <= lab <= expr.label_count):
                raise InputError(
                    f"label {lab} outside the declared range 1..{expr.label_count}"
                )


# ---------------------------------------------------------------------------
# parsing


# A parenthesis, or a run of anything else up to whitespace or a
# parenthesis; ``\s`` matches exactly the characters ``str.isspace`` accepts.
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, line, col) triples, 1-based, with ``#`` comments cut off."""
    return [
        (m.group(), lineno, m.start() + 1)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        for m in _TOKEN.finditer(raw.split("#", 1)[0])
    ]


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> tuple[str, int, int] | None:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self, expect: str | None = None) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise FormatError(f"line {last[1]}, col {last[2]}: unexpected end of input")
        self.idx += 1
        if expect is not None and tok[0] != expect:
            raise FormatError(
                f"line {tok[1]}, col {tok[2]}: expected {expect!r}, got {tok[0]!r}"
            )
        return tok

    def next_int(self, what: str) -> tuple[int, int, int]:
        tok = self.next()
        try:
            value = int(tok[0])
        except ValueError:
            raise FormatError(
                f"line {tok[1]}, col {tok[2]}: expected {what}, got {tok[0]!r}"
            ) from None
        return value, tok[1], tok[2]


def _parse_label(stream: _TokenStream, declared: int | None) -> tuple[int, int, int]:
    value, line, col = stream.next_int("a label")
    if value < 1:
        raise FormatError(f"line {line}, col {col}: labels are positive, got {value}")
    # a label is one bit of every summary mask the tree solver builds, and
    # no graph needs more labels than vertices, so labels share the cap
    if value > MAX_VERTICES:
        raise FormatError(f"line {line}, col {col}: label {value} exceeds {MAX_VERTICES}")
    if declared is not None and value > declared:
        raise FormatError(
            f"line {line}, col {col}: label {value} exceeds the declared count {declared}"
        )
    return value, line, col


# operator word -> (node class, number of child nodes); every node class
# takes its labels, then its children, then its position
_OPERATORS = {"v": (Leaf, 0), "u": (DisjointUnion, 2), "r": (Relabel, 1), "e": (Join, 1)}


def _parse_node(stream: _TokenStream, declared: int | None) -> Node:
    """One parenthesised node with everything below it, its labels checked
    against the ``declared`` count when there is one.

    Open nodes wait on an explicit stack as (kind, position, labels,
    children parsed so far), so nesting depth is not limited by recursion.
    """
    stack: list[tuple[str, tuple[int, int], tuple[int, ...], list[Node]]] = []
    while True:
        stream.next("(")
        kind, line, col = stream.next()
        if kind == "v":
            labels: tuple[int, ...] = (_parse_label(stream, declared)[0],)
        elif kind == "u":
            labels = ()
        elif kind in ("r", "e"):
            i, iline, icol = _parse_label(stream, declared)
            j, _, _ = _parse_label(stream, declared)
            if i == j:
                raise FormatError(
                    f"line {iline}, col {icol}: '{kind}' needs two distinct labels"
                )
            labels = (i, j)
        else:
            raise FormatError(
                f"line {line}, col {col}: unknown operator {kind!r} (expected v, u, r, e)"
            )
        stack.append((kind, (line, col), labels, []))
        # close every node whose children are all parsed
        while len(stack[-1][3]) == _OPERATORS[stack[-1][0]][1]:
            kind, pos, labels, children = stack.pop()
            stream.next(")")
            node = _OPERATORS[kind][0](*labels, *children, pos)
            if not stack:
                return node
            stack[-1][3].append(node)


def parse_cexpression(text: str) -> CExpression:
    """Parse the s-expression format; see the module docstring.

    Without a ``c`` header the label budget is the largest label mentioned.
    """
    stream = _TokenStream(_tokenize(text))
    if not stream.tokens:
        raise FormatError("line 1, col 1: empty input")
    declared: int | None = None
    first = stream.peek()
    if first is not None and first[0] == "c":
        stream.next()
        declared, line, col = stream.next_int("the label count")
        if declared < 1:
            raise FormatError(f"line {line}, col {col}: label count must be positive")
    root = _parse_node(stream, declared)
    trailing = stream.peek()
    if trailing is not None:
        raise FormatError(
            f"line {trailing[1]}, col {trailing[2]}: trailing input after the expression"
        )
    if declared is None:
        declared = max(lab for node in iter_nodes(root) for lab in _labels_of(node))
    return CExpression(root, declared)


def format_cexpression(expr: CExpression) -> str:
    """Canonical one-line rendering with a ``c`` header; round-trips."""
    parts: list[str] = []
    # pending nodes and closing text, rendered from the top of the stack
    stack: list[Node | str] = [expr.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"(v {item.label})")
        elif isinstance(item, DisjointUnion):
            parts.append("(u ")
            stack.extend((")", item.right, " ", item.left))
        else:
            op = "r" if isinstance(item, Relabel) else "e"
            i, j = _labels_of(item)
            parts.append(f"({op} {i} {j} ")
            stack.extend((")", item.child))
    return f"c {expr.label_count}\n{''.join(parts)}\n"


# ---------------------------------------------------------------------------
# evaluation


def _build(expr: CExpression) -> tuple[list[int], set[tuple[int, int]], Join | None]:
    """Final labels, edges, and the first join that re-adds an edge.

    Vertices are numbered by leaf position, leftmost leaf first.  One label
    array is updated in place: a relabel or join only touches the vertex
    span of its own subtree.  The offender is the first such join in
    evaluation order, or None when every edge is introduced exactly once.
    """
    labels: list[int] = []
    edges: set[tuple[int, int]] = set()
    offender: Join | None = None
    # first vertex of each finished subtree not yet under a union; the walk
    # is post-order, so the subtree just finished ends at the last vertex
    starts: list[int] = []
    for node in iter_nodes(expr.root):
        if isinstance(node, Leaf):
            starts.append(len(labels))
            labels.append(node.label)
        elif isinstance(node, DisjointUnion):
            starts.pop()  # the union starts where its left child does
        elif isinstance(node, Relabel):
            for v in range(starts[-1], len(labels)):
                if labels[v] == node.source:
                    labels[v] = node.target
        else:
            span = range(starts[-1], len(labels))
            firsts = [v for v in span if labels[v] == node.first]
            seconds = [v for v in span if labels[v] == node.second]
            for u in firsts:
                for v in seconds:
                    e = (u, v) if u < v else (v, u)
                    if offender is None and e in edges:
                        offender = node
                    edges.add(e)
    return labels, edges, offender


def eval_graph(expr: CExpression) -> tuple[Graph, list[int]]:
    """Build the graph the expression describes.

    Vertices are numbered by leaf position, leftmost leaf first; the second
    component is the final label of each vertex.
    """
    labels, edges, _ = _build(expr)
    return Graph(len(labels), edges), labels


def validate_irredundant(expr: CExpression) -> Join | None:
    """Check that no join re-adds an edge an earlier join already created.

    Returns the first offending join in evaluation order, or None when
    every edge of the built graph is introduced exactly once.
    """
    return _build(expr)[2]


def cycle_expression(n: int) -> CExpression:
    """A four-label construction tree for the n-cycle, n >= 3.

    Grows a path whose endpoints keep labels 1 and 2 while interior
    vertices are parked on label 3, then closes the cycle.  Handy as a
    bounded-width input family for the tree-based solver.
    """
    if n < 3:
        raise InputError("cycles need at least 3 vertices")
    node: Node = Join(1, 2, DisjointUnion(Leaf(1), Leaf(2)))
    for _ in range(n - 2):
        grown = Join(2, 4, DisjointUnion(node, Leaf(4)))
        node = Relabel(4, 2, Relabel(2, 3, grown))
    return CExpression(Join(1, 2, node), 4)
