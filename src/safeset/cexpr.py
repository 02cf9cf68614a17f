"""Construction trees for labeled graphs.

A tree of the four primitives below builds a graph bottom-up: create a
labeled vertex, lay two graphs side by side, rename one label to another,
or connect every vertex of one label with every vertex of another.  Dense
but regular graphs (cliques, cographs, cycles) have small trees of this
kind, and the solver in cw.py runs over the tree instead of the graph.
One node object may sit at several places of a tree; each place builds a
separate part of the graph, as if the subexpression were written out there.

Text format: s-expressions ``(v i)``, ``(u A B)``, ``(r i j A)`` renaming
label i to j, and ``(e i j A)`` connecting labels i and j, with an optional
header line ``c <int>`` declaring the number of available labels.  ``#``
starts a comment; whitespace is free-form.  The reader is one function,
``parse_cexpression``; ``check_expression`` holds trees to the same label rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .graph import MAX_VERTICES, Graph, InputError
from .io import FormatError

# Node classes compare by identity: the same subexpression written twice
# denotes two different parts of the built graph, and so does one node
# object placed twice.


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


def leaf_spans(expr: CExpression) -> list[tuple[Node, int, int]]:
    """(node, start, end) for each place in the tree, in ``iter_nodes`` order:
    the vertex ids [start, end) it builds, leftmost leaf = 0."""
    spans: list[tuple[Node, int, int]] = []
    # first vertex of each finished subtree not yet under a union, as in _build
    starts: list[int] = []
    leaves = 0
    for node in iter_nodes(expr.root):
        if isinstance(node, Leaf):
            starts.append(leaves)
            leaves += 1
        elif isinstance(node, DisjointUnion):
            starts.pop()  # the union starts where its left child does
        spans.append((node, starts[-1], leaves))
    return spans


def _label_error(label: int, count: int | None) -> str | None:
    """Why ``label`` is invalid under ``count`` labels (if any), or None."""
    if label < 1:
        return f"labels are positive, got {label}"
    # a label is one bit of every summary mask the tree solver builds, and
    # no graph needs more labels than vertices, so labels share the cap
    if label > MAX_VERTICES:
        return f"label {label} exceeds {MAX_VERTICES}"
    if count is not None and label > count:
        return f"label {label} exceeds the declared count {count}"
    return None


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
            if (reason := _label_error(lab, expr.label_count)) is not None:
                raise InputError(reason)


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


# operator word -> (node class, number of labels, number of children); every
# node class takes its labels, then its children, then its position
_OPERATORS = {
    "v": (Leaf, 1, 0), "u": (DisjointUnion, 0, 2), "r": (Relabel, 2, 1), "e": (Join, 2, 1)
}


def parse_cexpression(text: str) -> CExpression:
    """Parse the s-expression format; see the module docstring.

    Without a ``c`` header the label budget is the largest label read.
    Open nodes wait on an explicit stack as (class, arguments wanted,
    position, arguments read), so depth is not limited by recursion.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormatError("line 1, col 1: empty input")
    idx = 0

    def take(expect: str | None = None) -> tuple[str, int, int]:
        nonlocal idx
        if idx == len(tokens):
            _, line, col = tokens[-1]
            raise FormatError(f"line {line}, col {col}: unexpected end of input")
        tok = tokens[idx]
        idx += 1
        if expect is not None and tok[0] != expect:
            raise FormatError(f"line {tok[1]}, col {tok[2]}: expected {expect!r}, got {tok[0]!r}")
        return tok

    def take_int(what: str) -> tuple[int, int, int]:
        word, line, col = take()
        try:
            return int(word), line, col
        except ValueError:
            raise FormatError(f"line {line}, col {col}: expected {what}, got {word!r}") from None

    declared: int | None = None
    if tokens[0][0] == "c":
        idx = 1
        declared, line, col = take_int("the label count")
        if declared < 1:
            raise FormatError(f"line {line}, col {col}: label count must be positive")
    largest = 0
    stack: list[tuple[type, int, tuple[int, int], list]] = []
    while True:
        take("(")
        word, line, col = take()
        if word not in _OPERATORS:
            raise FormatError(
                f"line {line}, col {col}: unknown operator {word!r} (expected v, u, r, e)"
            )
        cls, n_labels, n_children = _OPERATORS[word]
        args: list = []  # the labels, then the children
        for _ in range(n_labels):
            label, lline, lcol = take_int("a label")
            if (reason := _label_error(label, declared)) is not None:
                raise FormatError(f"line {lline}, col {lcol}: {reason}")
            args.append(label)
            largest = max(largest, label)
        if n_labels == 2 and args[0] == args[1]:
            _, lline, lcol = tokens[idx - 2]
            raise FormatError(f"line {lline}, col {lcol}: {word!r} needs two distinct labels")
        stack.append((cls, n_labels + n_children, (line, col), args))
        # close every node whose arguments are all read
        while len(stack[-1][3]) == stack[-1][1]:
            cls, _, pos, args = stack.pop()
            take(")")
            node = cls(*args, pos)
            if stack:
                stack[-1][3].append(node)
            elif idx < len(tokens):
                _, line, col = tokens[idx]
                raise FormatError(f"line {line}, col {col}: trailing input after the expression")
            else:
                return CExpression(node, largest if declared is None else declared)


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
