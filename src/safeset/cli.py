"""Command-line front end.

Three subcommands: ``solve`` dispatches a solver and prints a JSON report,
``verify`` checks a candidate set, ``gen`` writes hard instances produced
by the reductions.  JSON goes to stdout only; errors go to stderr so output
can be piped.  Exit codes: 0 solved/verified, 1 infeasible or failed
verification, 2 usage or input errors, 3 internal error (a crash, or a
solver witness that fails verification).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from .branching import branch_solve
from .cexpr import eval_graph, parse_cexpression
from .cw import solve_cw
from .graph import Graph, InputError, explain_safety, max_degree
from .io import (
    FormatError,
    decomposition_to_json,
    load_bigraph,
    load_graph,
    save_graph,
    vertex_set_from_text,
    write_sidecar,
)
from .nd import solve_nd
from .oracle import (
    DEFAULT_SUBSET_CAP,
    SolveResult,
    connected_safe_number_bf,
    dominating_set_bf,
    safe_number_bf,
)
from .preprocess import approx_safe_set
from .reductions import (
    ds_forward_certificate,
    ds_path_decomposition,
    ds_to_ss,
    rbds_forward_certificate,
    rbds_has_dominating_set,
    rbds_to_ss,
)

ALGORITHMS = ("oracle", "nd", "cw", "branch", "approx")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _report(args, g: Graph, res: SolveResult, label_count: int | None) -> dict:
    stats = {"n": g.n, "m": g.m, "max_degree": max_degree(g)}
    if res.algorithm == "nd":
        stats["nd"] = res.stats["width"]
    if label_count is not None:
        stats["c"] = label_count
    report = {
        "algorithm": res.algorithm,
        "problem": "css" if args.connected else "ss",
        "feasible": res.feasible,
        "size": res.size,
        "witness": sorted(res.witness) if res.witness is not None else None,
        "stats": stats,
        "elapsed_ms": round(res.elapsed * 1000.0, 3),
        "input_sha256": _sha256(args.graph),
    }
    if args.expr is not None:
        report["expr_sha256"] = _sha256(args.expr)
    return report


def cmd_solve(args) -> int:
    if args.k is not None and args.k < 1:
        raise InputError("k must be at least 1")
    if args.expr is not None and args.algo != "cw":
        raise InputError("--expr applies to --algo cw only")
    g = load_graph(args.graph)
    label_count: int | None = None

    if args.algo == "oracle":
        fn = connected_safe_number_bf if args.connected else safe_number_bf
        res = fn(g, cap=args.bf_cap, max_size=args.k)
    elif args.algo == "branch":
        k = max(g.n, 1) if args.k is None else args.k
        res = branch_solve(g, k, connected=args.connected)
    elif args.algo == "nd":
        res = solve_nd(g, connected=args.connected, limit=args.k)
    elif args.algo == "approx":
        if args.connected:
            raise InputError("the approximation covers the plain problem only")
        res = approx_safe_set(g, limit=args.k)
    else:
        if args.expr is None:
            raise InputError("--algo cw needs --expr")
        expr = parse_cexpression(Path(args.expr).read_text(encoding="utf-8"))
        label_count = expr.label_count
        built, _ = eval_graph(expr)
        if built != g:
            raise InputError(
                "the expression builds a different graph than the input "
                f"(n={built.n}, m={built.m} versus n={g.n}, m={g.m})"
            )
        res = solve_cw(expr, connected=args.connected, limit=args.k)

    _emit(_report(args, g, res, label_count))
    return 0 if res.feasible else 1


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    candidate = vertex_set_from_text(args.set)
    violation = explain_safety(g, candidate, connected=args.connected)
    if violation is None:
        _emit(
            {
                "ok": True,
                "problem": "css" if args.connected else "ss",
                "size": len(candidate),
                "input_sha256": _sha256(args.graph),
            }
        )
        return 0
    _emit(
        {
            "ok": False,
            "problem": "css" if args.connected else "ss",
            "violation": {
                "kind": violation.kind,
                "component": list(violation.component),
                "neighbor": list(violation.neighbor),
                "message": violation.describe(),
            },
            "input_sha256": _sha256(args.graph),
        }
    )
    return 1


def _vertex_set_text(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices)) + "\n"


def cmd_gen(args) -> int:
    # every check that can fail runs before the first file is written
    extras: list[tuple[str, str]] = []  # (path, text), written after the instance
    if args.family == "ds":
        g = load_graph(args.source)
        output = ds_to_ss(g, args.k)
        if args.cert:
            dom = dominating_set_bf(g, args.k, cap=args.bf_cap)
            if dom is None:
                raise InputError(
                    f"no dominating set of size at most {args.k}; nothing to certify"
                )
            cert = ds_forward_certificate(g, dom, output)
            extras.append((args.cert, _vertex_set_text(cert)))
        if args.decomp:
            decomp_text = decomposition_to_json(ds_path_decomposition(output)) + "\n"
            extras.append((args.decomp, decomp_text))
    else:
        if args.decomp:
            raise InputError("--decomp applies to the ds family only")
        bg = load_bigraph(args.source)
        output = rbds_to_ss(bg, args.k)
        if args.cert:
            dom = rbds_has_dominating_set(bg, args.k, args.bf_cap)
            if dom is None:
                raise InputError(
                    f"no red-blue dominating set of size at most {args.k}; "
                    "nothing to certify"
                )
            cert = rbds_forward_certificate(bg, dom, output)
            extras.append((args.cert, _vertex_set_text(cert)))
    sidecar = args.out + ".json"
    written: list[str] = []  # each file from the moment its write starts
    try:
        written.append(args.out)
        save_graph(output.graph, args.out)
        for path, text in extras:
            written.append(path)
            Path(path).write_text(text, encoding="utf-8")
        written.append(sidecar)
        write_sidecar(sidecar, output.target, output.role_map, output.source)
    except OSError as exc:
        # one failed write fails the whole call: leave no partial output.  An
        # error that names its file came from opening it: that file is as it was.
        if exc.filename is not None:
            written.pop()
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    _emit(
        {
            "family": args.family,
            "target": output.target,
            "n": output.graph.n,
            "m": output.graph.m,
            "written": [args.out, *(path for path, _ in extras), sidecar],
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing does not change it, and each
    new one would leave a few hundred objects in reference cycles behind."""
    parser = argparse.ArgumentParser(
        prog="safeset",
        description="Exact and approximate solvers for safe sets in graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on a graph file")
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    solve.add_argument("--connected", action="store_true")
    solve.add_argument("-k", type=int, default=None, help="solution size bound")
    solve.add_argument("--expr", default=None, help="construction tree file (cw)")
    solve.add_argument("--bf-cap", type=int, default=DEFAULT_SUBSET_CAP, dest="bf_cap")
    solve.add_argument("graph")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a candidate vertex set")
    verify.add_argument("--connected", action="store_true")
    verify.add_argument("--set", required=True, help="comma-separated vertices")
    verify.add_argument("graph")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="write a reduction instance")
    gen.add_argument("family", choices=("ds", "rbds"))
    gen.add_argument("-k", type=int, required=True)
    gen.add_argument("source", help="graph file (ds) or bigraph file (rbds)")
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--cert", default=None, help="also write a witness set")
    gen.add_argument("--decomp", default=None, help="also write a path decomposition")
    gen.add_argument("--bf-cap", type=int, default=DEFAULT_SUBSET_CAP, dest="bf_cap")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
