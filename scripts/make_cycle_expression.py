#!/usr/bin/env python3
"""Emit a four-label construction tree for the n-cycle, plus the graph itself.

The pair of files feeds the tree-based solver directly:

    python3 scripts/make_cycle_expression.py -n 8 -o c8.expr --graph-out c8.gr
    safeset solve --algo cw --expr c8.expr c8.gr
"""

import argparse
import sys

from safeset.cexpr import cycle_expression, eval_graph, format_cexpression
from safeset.generators import cycle_graph
from safeset.graph import InputError
from safeset.io import format_graph


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, required=True, help="cycle length (>= 3)")
    parser.add_argument("-o", "--out", required=True, help="expression file to write")
    parser.add_argument("--graph-out", help="also write the cycle in graph format")
    args = parser.parse_args(argv)

    try:
        expr = cycle_expression(args.n)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    built, _ = eval_graph(expr)
    if built.edges != cycle_graph(args.n).edges:
        print(f"error: the expression does not build the {args.n}-cycle", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_cexpression(expr))
    print(f"wrote {args.out} ({expr.label_count} labels, {args.n} leaves)")
    if args.graph_out:
        with open(args.graph_out, "w", encoding="utf-8") as fh:
            fh.write(format_graph(built))
        print(f"wrote {args.graph_out} (n={built.n}, m={built.m})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
