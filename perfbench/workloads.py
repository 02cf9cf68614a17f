"""The four workloads: seeded instance files plus the operations run on them.

``setup`` draws a workload's instance pool from the seed and writes its
files; it is what ``setup_s`` times.  ``plan`` computes the reference
answers (untimed) and returns the operations of one pass over the pool.
Every operation is one ``safeset`` command line with an independent check
of its answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("exact-random", "cw-trees", "approx-sparse", "reductions")

# Each workload's pool is ROUNDS[name] draws of its strata; a run cycles
# through the pool's operations.  Strata fix the properties that drive the
# cost (size, optimum, labels, leaves), so seeds change the instances but not
# the mix of cheap and slow calls; several rounds average what is left.
ROUNDS = {"exact-random": 4, "cw-trees": 12, "approx-sparse": 2, "reductions": 7}

# exact-random: (n, plain optimum, edge density); graphs are drawn at the
# density until one has the stratum's optimum.  The nd calls at n=14 are the
# slow tail; there are enough of them that the tail percentile falls inside
# that group rather than on its few slowest members.  branch runs where the
# optimum is small enough to keep each call well under a second: its cost
# grows with the optimum, and at n=12 an optimum of 5 already spreads
# 0.2-1.2 s from graph to graph.
EXACT_STRATA = (
    (10, 3, 0.1), (10, 4, 0.3), (10, 5, 0.6),
    (11, 4, 0.2), (11, 5, 0.6),
    (12, 4, 0.1), (12, 5, 0.3), (12, 6, 0.6),
    (14, 5, 0.3), (14, 6, 0.45), (14, 7, 0.6),
)
BRANCH_MAX_OPT = {10: 5, 11: 5, 12: 4}
# cw-trees: the cycles in CW_CYCLE_ROUNDS rounds, random trees as (labels,
# leaf counts) in every round.  The cycles are the slow tail and cost the
# same for every seed; 3-label trees stop at 12 leaves because table sizes
# grow so steeply that a single 16-leaf tree can outweigh fifty others; the
# caps keep every tree below the cycles, so the tail percentile is a cycle.
CW_CYCLES = (9, 10, 11, 12)
CW_CYCLE_ROUNDS = 2
CW_TREES = ((3, tuple(range(8, 13))), (4, tuple(range(6, 12))))
# approx-sparse: vertex counts; each graph is a random tree plus n edges
SPARSE_SIZES = tuple(range(200, 350, 5))
# reductions: ds bases as (n, domination number, edges), which fix the size
# of the generated instance; rbds bases as (reds, blues, red-blue domination
# number).  rbds calls take 1-6 ms, ds calls 13-460 ms; twice as many rbds
# bases put the median call inside the rbds cluster, not in the gap between
# the two, where it would jump from seed to seed.
DS_STRATA = (
    (5, 2, 5), (6, 2, 6), (7, 2, 7), (8, 2, 8),
    (6, 3, 5), (7, 3, 6), (8, 3, 7), (8, 3, 8),
)
RBDS_STRATA = (
    (3, 3, 2), (3, 4, 2), (4, 3, 2), (4, 4, 2),
    (4, 4, 3), (5, 4, 3), (5, 5, 2), (5, 5, 3),
) * 2


@dataclass
class Op:
    """One command line and how to judge what it printed.

    ``argv`` is called right before the timed call, so an operation may read
    a file an earlier operation of the same pass wrote.  ``answer`` and
    ``check`` get the argument list, exit code and stdout.  ``answer`` is
    cheap and gives the tuple that goes into the digest; ``check`` runs the
    independent verification, so the runner calls it only for answers it
    has not checked before.
    """

    op_id: str
    route: str
    argv: Callable[[], list[str]]
    answer: Callable[[list[str], int | None, str], tuple]
    check: Callable[[list[str], int | None, str], bool]


@dataclass
class Instance:
    key: str
    path: str
    adj: list[set[int]]
    extra: dict = field(default_factory=dict)


def _payload(out: str) -> dict | None:
    try:
        return json.loads(out)
    except ValueError:
        return None


def _solve_answer(argv, code, out) -> tuple:
    p = _payload(out) or {}
    witness = p.get("witness")
    return (code, p.get("size"), tuple(witness) if witness is not None else None)


def _solve_check(adj, connected: bool, optimum: int | None, bound: int | None = None):
    """Exit 0 and a verified witness of the reference size (or within bound)."""

    def check(argv, code, out):
        p = _payload(out)
        if code != 0 or not p or not p.get("feasible") or p.get("witness") is None:
            return False
        size, witness = p["size"], p["witness"]
        return (
            size == len(set(witness))
            and ref.is_safe(adj, witness, connected)
            and (optimum is None or size == optimum)
            and (bound is None or size <= bound)
        )

    return check


def _solve_op(inst: Instance, algo: str, connected: bool, optimum, extra_args=(), bound=None):
    mode = "css" if connected else "ss"
    argv = ["solve", "--algo", algo, *extra_args]
    if connected:
        argv.append("--connected")
    argv.append(inst.path)
    return Op(
        f"{inst.key}/{algo}/{mode}",
        algo,
        lambda: list(argv),
        _solve_answer,
        _solve_check(inst.adj, connected, optimum, bound),
    )


# ---------------------------------------------------------------------------
# set-up: generate and write


def _write_graph(pkg, g, path: Path) -> list[set[int]]:
    pkg.io.save_graph(g, path)
    return ref.adjacency(g.n, g.edges)


def _setup_exact(rng, workdir: Path, pkg, oracle: ref.Reference) -> list[Instance]:
    out = []
    for r in range(ROUNDS["exact-random"]):
        for n, s, extra in EXACT_STRATA:
            while True:
                g = pkg.generators.random_connected_graph(rng, n, extra)
                adj = ref.adjacency(n, g.edges)
                if oracle.min_safe_size(adj) == s:
                    break
            path = workdir / f"er{r}-{n}-{s}.gr"
            pkg.io.save_graph(g, path)
            out.append(Instance(f"er{r}n{n}s{s}", str(path), adj))
    return out


def _random_tree(rng, pkg, labels: int, leaves: int):
    """A random irredundant construction tree with ``leaves`` leaves.

    Built bottom-up from a pool of subtrees; each merge may relabel, and
    may join two label classes when that adds edges none of which exist.
    """
    cx = pkg.cexpr
    pool = []
    for _ in range(leaves):
        lab = rng.randint(1, labels)
        pool.append((cx.Leaf(lab), [lab], set()))
    while len(pool) > 1:
        (ln, ll, le), (rn, rl, re_) = (pool.pop(rng.randrange(len(pool))) for _ in range(2))
        off = len(ll)
        node, labs = cx.DisjointUnion(ln, rn), ll + rl
        edges = le | {(u + off, v + off) for u, v in re_}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(1, labels + 1), 2)
            if rng.random() < 0.3:
                node = cx.Relabel(a, b, node)
                labs = [b if x == a else x for x in labs]
                continue
            side_a = [i for i, x in enumerate(labs) if x == a]
            side_b = [i for i, x in enumerate(labs) if x == b]
            fresh = {(min(u, v), max(u, v)) for u in side_a for v in side_b}
            if fresh and not fresh & edges:
                node = cx.Join(a, b, node)
                edges |= fresh
        pool.append((node, labs, edges))
    return pool[0][0]


def _write_cw(pkg, key: str, expr, workdir: Path) -> Instance:
    g, _ = pkg.cexpr.eval_graph(expr)
    gpath, epath = workdir / f"{key}.gr", workdir / f"{key}.cx"
    epath.write_text(pkg.cexpr.format_cexpression(expr))
    return Instance(key, str(gpath), _write_graph(pkg, g, gpath), {"expr": str(epath)})


def _setup_cw(rng, workdir: Path, pkg, oracle: ref.Reference) -> list[Instance]:
    out = [
        _write_cw(pkg, f"c{r}cyc{n}", pkg.cexpr.cycle_expression(n), workdir)
        for r in range(CW_CYCLE_ROUNDS)
        for n in CW_CYCLES
    ]
    for r in range(ROUNDS["cw-trees"]):
        for labels, leaf_counts in CW_TREES:
            for leaves in leaf_counts:
                while True:
                    expr = pkg.cexpr.CExpression(_random_tree(rng, pkg, labels, leaves), labels)
                    g, _ = pkg.cexpr.eval_graph(expr)
                    if len(ref.components(ref.adjacency(g.n, g.edges), set(range(g.n)))) == 1:
                        break
                out.append(_write_cw(pkg, f"t{r}c{labels}x{leaves}", expr, workdir))
    return out


def _sparse_edges(rng, n: int) -> set[tuple[int, int]]:
    """A uniform random recursive tree plus n further distinct edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n - 1:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def _setup_sparse(rng, workdir: Path, pkg, oracle: ref.Reference) -> list[Instance]:
    out = []
    for r in range(ROUNDS["approx-sparse"]):
        for n in SPARSE_SIZES:
            g = pkg.graph.Graph(n, sorted(_sparse_edges(rng, n)))
            path = workdir / f"sp{r}-{n}.gr"
            pkg.io.save_graph(g, path)
            out.append(Instance(f"sp{r}n{n}", str(path), ref.adjacency(n, g.edges)))
    return out


def _setup_reductions(rng, workdir: Path, pkg, oracle: ref.Reference) -> list[Instance]:
    out = []
    for r in range(ROUNDS["reductions"]):
        for i, (n, k, m) in enumerate(DS_STRATA):
            while True:
                g = pkg.generators.random_connected_graph(rng, n, 0.05)
                adj = ref.adjacency(n, g.edges)
                if g.m == m and ref.domination_number(adj) == k:
                    break
            path = workdir / f"ds{r}-{i}.gr"
            pkg.io.save_graph(g, path)
            extra = {"family": "ds", "k": k, "m": g.m}
            out.append(Instance(f"ds{r}i{i}n{n}k{k}", str(path), adj, extra))
        for i, (reds, blues, k) in enumerate(RBDS_STRATA):
            while True:
                edges = {(x, y) for x in range(reds) for y in range(blues) if rng.random() < 0.35}
                nbrs = [{y for (x, y) in edges if x == red} for red in range(reds)]
                if ref.red_blue_domination_number(nbrs, blues) == k:
                    break
            bg = pkg.reductions.Bigraph(reds, blues, frozenset(edges))
            path = workdir / f"rb{r}-{i}.bg"
            path.write_text(pkg.io.format_bigraph(bg))
            extra = {"family": "rbds", "k": k, "r": reds}
            out.append(Instance(f"rb{r}i{i}r{reds}b{blues}k{k}", str(path), [], extra))
    return out


SETUP = {
    "exact-random": _setup_exact,
    "cw-trees": _setup_cw,
    "approx-sparse": _setup_sparse,
    "reductions": _setup_reductions,
}


def setup(name: str, seed: int, workdir: Path, pkg, oracle: ref.Reference) -> list[Instance]:
    """Draw the pool from ``seed`` and write its files; ``oracle`` answers
    (and times) the optimum queries that stratification needs."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return SETUP[name](rng, workdir, pkg, oracle)


# ---------------------------------------------------------------------------
# reference answers and operations


def _plan_exact(instances: list[Instance], workdir: Path, oracle: ref.Reference) -> list[Op]:
    ops = []
    for inst in instances:
        s = oracle.min_safe_size(inst.adj)
        cs = oracle.min_safe_size(inst.adj, connected=True)
        n = str(len(inst.adj))
        for connected, opt in ((False, s), (True, cs)):
            ops.append(_solve_op(inst, "oracle", connected, opt))
            ops.append(_solve_op(inst, "nd", connected, opt))
            if s <= BRANCH_MAX_OPT.get(len(inst.adj), 0):
                ops.append(_solve_op(inst, "branch", connected, opt, ("-k", n)))
        ops.append(_solve_op(inst, "approx", False, None, bound=s * (s + 1)))
    return ops


def _plan_cw(instances: list[Instance], workdir: Path, oracle: ref.Reference) -> list[Op]:
    ops = []
    for inst in instances:
        expr = ("--expr", inst.extra["expr"])
        for connected in (False, True):
            opt = oracle.min_safe_size(inst.adj, connected)
            ops.append(_solve_op(inst, "cw", connected, opt, expr))
    return ops


def _plan_sparse(instances: list[Instance], workdir: Path, oracle: ref.Reference) -> list[Op]:
    return [_solve_op(inst, "approx", False, None) for inst in instances]


def _files_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def _gen_op(inst: Instance, outdir: Path) -> Op:
    family, k = inst.extra["family"], inst.extra["k"]
    out, cert, decomp = (str(outdir / f"{inst.key}.{ext}") for ext in ("gr", "cert", "pd.json"))
    argv = ["gen", family, "-k", str(k), inst.path, "-o", out, "--cert", cert]
    if family == "ds":
        argv += ["--decomp", decomp]
        n, m = len(inst.adj), inst.extra["m"]
        target = 1 + k * n + k * (2 * m + n)
    else:
        target = k + inst.extra["r"] + 1
    written = [out, cert, out + ".json"] + ([decomp] if family == "ds" else [])

    def answer(argv, code, stdout):
        if code != 0:
            return (code,)
        members = tuple(int(v) for v in Path(cert).read_text().split(","))
        return (code, len(members), members, _files_digest(*written))

    def check(argv, code, stdout):
        p = _payload(stdout)
        if code != 0 or not p:
            return False
        cert_set = [int(v) for v in Path(cert).read_text().split(",")]
        sidecar = json.loads(Path(out + ".json").read_text())
        adj = ref.parse_graph_text(Path(out).read_text())
        ok = (
            p["target"] == target == sidecar["target"] == len(set(cert_set))
            and p["n"] == len(adj)
            and ref.is_safe(adj, cert_set, connected=True)
        )
        if family == "ds":
            bags = json.loads(Path(decomp).read_text())
            width = ref.path_decomposition_width(adj, bags)
            ok = ok and width is not None and width <= 2 * k + 5
        return ok

    return Op(f"{inst.key}/gen", "gen", lambda: list(argv), answer, check)


def _verify_op(inst: Instance, outdir: Path, drop: bool) -> Op:
    """Verify the certificate the gen op wrote; ``drop`` removes its
    highest-degree vertex, which the reference decides on."""
    out, cert = str(outdir / f"{inst.key}.gr"), str(outdir / f"{inst.key}.cert")
    graph: list[list[set[int]]] = []  # the written graph, parsed once

    def adjacency() -> list[set[int]]:
        if not graph:
            graph.append(ref.parse_graph_text(Path(out).read_text()))
        return graph[0]

    def chosen() -> list[int]:
        members = sorted(int(v) for v in Path(cert).read_text().split(","))
        if drop:
            adj = adjacency()
            members.remove(max(members, key=lambda v: (len(adj[v]), -v)))
        return members

    def argv():
        try:
            chosen_set = ",".join(map(str, chosen()))
        except OSError:  # the gen op failed; the CLI rejects the empty set
            chosen_set = ""
        return ["verify", "--connected", "--set", chosen_set, out]

    def members(argv) -> list[int]:
        return [int(v) for v in argv[argv.index("--set") + 1].split(",")]

    def answer(argv, code, stdout):
        chosen = members(argv)
        return (code, len(chosen), tuple(chosen))

    def check(argv, code, stdout):
        p = _payload(stdout)
        expected = 0 if ref.is_safe(adjacency(), members(argv), connected=True) else 1
        return code == expected and p is not None and p.get("ok") == (expected == 0)

    return Op(f"{inst.key}/verify{'-drop' if drop else ''}", "verify", argv, answer, check)


def _plan_reductions(instances: list[Instance], workdir: Path, oracle: ref.Reference) -> list[Op]:
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)
    ops = []
    for inst in instances:
        ops += [_gen_op(inst, outdir), _verify_op(inst, outdir, False),
                _verify_op(inst, outdir, True)]
    return ops


PLAN = {
    "exact-random": _plan_exact,
    "cw-trees": _plan_cw,
    "approx-sparse": _plan_sparse,
    "reductions": _plan_reductions,
}


def plan(name: str, instances: list[Instance], workdir: Path, oracle: ref.Reference) -> list[Op]:
    """The operations of one pass over the pool, with their reference answers."""
    return PLAN[name](instances, workdir, oracle)


def clear_outputs(workdir: Path) -> None:
    """Remove what the previous pass wrote, so every pass creates its files."""
    out = workdir / "out"
    if out.is_dir():
        for path in out.iterdir():
            path.unlink()
