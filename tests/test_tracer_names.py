"""The benchmark tracer still finds every name it patches in the package,
and the package still answers as before with the tracer installed."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# an 8-cycle (1 2 3 9 8 4 5 6) with the paths 5-0-7 and 6-10-11 hanging off it
EDGES = [
    (0, 5), (0, 7), (1, 2), (1, 6), (2, 3), (3, 9),
    (4, 5), (4, 8), (5, 6), (6, 10), (8, 9), (10, 11),
]


def _safeset_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name.split(".")[0] == "safeset"}


@pytest.fixture
def fresh():
    """The tracer module and a freshly imported package, name -> module."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    saved = _safeset_modules()
    for name in saved:
        del sys.modules[name]
    try:
        # the benchmark imports these two; cli imports every other module
        importlib.import_module("safeset.cli")
        importlib.import_module("safeset.generators")
        yield tracer_module, _safeset_modules()
    finally:
        for name in _safeset_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_tracer_installs_and_uninstalls_on_a_fresh_package(fresh):
    tracer_module, modules = fresh
    graph = modules["safeset.graph"].Graph
    before = ({name: dict(vars(m)) for name, m in modules.items()}, graph.__init__)
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    tracer.uninstall()
    assert ({name: dict(vars(m)) for name, m in modules.items()}, graph.__init__) == before


def test_traced_package_gives_the_same_answers(fresh, tmp_path, capsys):
    tracer_module, modules = fresh
    graph, cexpr, cli = modules["safeset.graph"], modules["safeset.cexpr"], modules["safeset.cli"]
    format_graph = modules["safeset.io"].format_graph
    g = graph.Graph(12, EDGES)
    path = tmp_path / "g.gr"
    path.write_text(format_graph(g))
    expr = cexpr.cycle_expression(6)
    expr_path, cycle_path = tmp_path / "c6.expr", tmp_path / "c6.gr"
    expr_path.write_text(cexpr.format_cexpression(expr))
    cycle_path.write_text(format_graph(cexpr.eval_graph(expr)[0]))
    cw_solve = ["solve", "--algo", "cw", "--expr", str(expr_path), str(cycle_path)]
    assert cli.main(cw_solve) == 0
    untraced = json.loads(capsys.readouterr().out)
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        # bfs_order is wrapped as a generator span, so it must stay a generator
        assert list(graph.bfs_order(g, 3, g.full_mask())) == [3, 2, 9, 1, 8, 6, 4, 5, 10, 0, 11, 7]
        assert list(graph.bfs_order(g, 3, g.full_mask() & ~(1 << 5))) == [3, 2, 9, 1, 8, 6, 4, 10, 11]
        counts = tracer.take_counts()
        assert (counts["graph.bfs_order.calls"], counts["graph.bfs_order.yielded"]) == (2, 21)
        assert cli.main(["solve", "--algo", "approx", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli.main(cw_solve) == 0
        traced = json.loads(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert (report["size"], report["witness"]) == (6, [0, 4, 5, 6, 7, 8])
    assert {**traced, "elapsed_ms": None} == {**untraced, "elapsed_ms": None}
    counts = tracer.take_counts()
    assert counts["cli.main.calls"] == 2
    # solve_cw walks the tree itself, but each transition is still seen
    nodes = list(cexpr.iter_nodes(expr.root))
    assert counts["cw.dp_join.calls"] == sum(isinstance(n, cexpr.Join) for n in nodes)
    assert counts["cw.dp_union.calls"] == sum(isinstance(n, cexpr.DisjointUnion) for n in nodes)
    # only the four (r 4 2 ...) relabels move a label: each (r 2 3 ...)
    # follows the forget that removed label 2, and is passed through
    assert counts["cw.dp_relabel.calls"] == 4


# two solves of K_{3,4}: one twin partition each, which gives the report's
# width and serves the one component
ND_COUNTS = {
    "nd.twin_partition.calls": 2,
    "nd.build_families.calls": 3,
    "nd.assemble_ip.calls": 6,
    "nd.solve_ip.calls": 6,
    "nd.solve_ip.feasible": 2,
    "nd.enumerate_guesses.yielded": 10,
}


def test_traced_nd_counts_each_layer(fresh, tmp_path, capsys):
    # the per-layer nd metrics read these names and the results the hooks
    # inspect, so a changed signature or return type must not lose a count
    tracer_module, modules = fresh
    generators, cli = modules["safeset.generators"], modules["safeset.cli"]
    path = tmp_path / "k34.gr"
    path.write_text(modules["safeset.io"].format_graph(generators.complete_bipartite_graph(3, 4)))
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        sizes = []
        for mode in ([], ["--connected"]):
            assert cli.main(["solve", "--algo", "nd", *mode, str(path)]) == 0
            sizes.append(json.loads(capsys.readouterr().out)["size"])
    finally:
        tracer.uninstall()
    assert sizes == [3, 4]
    counts = tracer.take_counts()
    assert {name: counts[name] for name in ND_COUNTS} == ND_COUNTS


# branch -k 4 on the EDGES graph, plain then connected
BRANCH_COUNTS = {
    "branching.branch_solve.calls": 2,
    "branching.find_problematic.calls": 740,
    "branching.steiner_exact.calls": 102,
    "branching.leaf_verifies": 2,
    "branching.leaf_accepts": 2,
    "graph.vertices_of.calls": 7344,
}


def test_traced_branch_counts_each_layer(fresh, tmp_path, capsys):
    # graph.vertices_of counts the Steiner DP's own work too, so a ranking
    # key rebuilt for every grown set shows up here
    tracer_module, modules = fresh
    path = tmp_path / "g.gr"
    path.write_text(modules["safeset.io"].format_graph(modules["safeset.graph"].Graph(12, EDGES)))
    cli = modules["safeset.cli"]
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        reports = []
        for mode in ([], ["--connected"]):
            assert cli.main(["solve", "--algo", "branch", "-k", "4", *mode, str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
    finally:
        tracer.uninstall()
    assert [(r["size"], r["witness"]) for r in reports] == [(4, [1, 2, 5, 6])] * 2
    counts = tracer.take_counts()
    assert {name: counts[name] for name in BRANCH_COUNTS} == BRANCH_COUNTS


def test_headerless_parse_walks_no_tree(fresh):
    # without a header the label count is the largest label read while
    # parsing; no walk over the finished tree is made for it
    tracer_module, modules = fresh
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        expr = modules["safeset.cexpr"].parse_cexpression("(r 1 5 (v 1))")
    finally:
        tracer.uninstall()
    assert expr.label_count == 5
    assert tracer.take_counts()["cexpr.iter_nodes.calls"] == 0
