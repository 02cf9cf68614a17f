"""End-to-end behavior of the command-line front end."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpus import disjoint_union, random_expression, shuffled
from test_cexpr import DEEP_CHAIN_TEXT, EXPR_TEXTS

from safeset.cexpr import cycle_expression, eval_graph, format_cexpression, parse_cexpression
from safeset.cli import main
from safeset.cw import solve_cw
from safeset.generators import complete_graph, cycle_graph, random_connected_graph, star_graph
from safeset.graph import (
    Graph,
    InputError,
    is_connected_safe_set,
    is_safe_set,
    validate_path_decomposition,
)
from safeset.io import (
    MAX_VERTICES,
    FormatError,
    decomposition_from_json,
    format_graph,
    load_graph,
)
from safeset.nd import solve_nd
from safeset.oracle import verified_result
from safeset.preprocess import approx_safe_set


@pytest.fixture
def run(capsys):
    def invoke(argv):
        code = main(argv)
        captured = capsys.readouterr()
        payload = json.loads(captured.out) if captured.out.strip() else None
        return code, payload, captured.err

    return invoke


@pytest.fixture
def c8_path(tmp_path):
    path = tmp_path / "c8.gr"
    path.write_text(format_graph(cycle_graph(8)))
    return str(path)


def test_solve_oracle_on_eight_cycle(run, c8_path):
    code, report, _ = run(["solve", "--algo", "oracle", c8_path])
    assert code == 0
    assert report["feasible"] is True
    assert report["size"] == 4
    assert report["problem"] == "ss"
    assert report["stats"] == {"n": 8, "m": 8, "max_degree": 2}
    assert len(report["input_sha256"]) == 64
    assert sorted(report["witness"]) == report["witness"]
    assert is_safe_set(cycle_graph(8), report["witness"])


def test_solve_branch_bound_below_optimum(run, c8_path):
    code, report, _ = run(["solve", "--algo", "branch", "-k", "3", c8_path])
    assert code == 1
    assert report["feasible"] is False
    assert report["size"] is None and report["witness"] is None


def test_solve_branch_at_optimum(run, c8_path):
    code, report, _ = run(["solve", "--algo", "branch", "-k", "4", "--connected", c8_path])
    assert code == 0
    assert report["size"] == 4
    assert report["problem"] == "css"


def test_solve_nd_connected_star(run, tmp_path):
    path = tmp_path / "star13.gr"
    path.write_text(format_graph(star_graph(13)))
    code, report, _ = run(["solve", "--algo", "nd", "--connected", str(path)])
    assert code == 0
    assert report["size"] == 1
    assert report["stats"]["nd"] == 2


def test_solve_cw_with_expression(run, c8_path, tmp_path):
    expr_path = tmp_path / "c8.expr"
    expr_path.write_text(format_cexpression(cycle_expression(8)))
    code, report, _ = run(
        ["solve", "--algo", "cw", "--expr", str(expr_path), c8_path]
    )
    assert code == 0
    assert report["size"] == 4
    assert report["stats"]["c"] == 4
    assert len(report["expr_sha256"]) == 64


def test_solve_cw_rejects_mismatched_expression(run, tmp_path, c8_path):
    expr_path = tmp_path / "c5.expr"
    expr_path.write_text(format_cexpression(cycle_expression(5)))
    code, payload, err = run(
        ["solve", "--algo", "cw", "--expr", str(expr_path), c8_path]
    )
    assert code == 2
    assert payload is None
    assert "different graph" in err


def test_solve_cw_on_deep_expression(run, tmp_path):
    expr_path, graph_path = tmp_path / "deep.expr", tmp_path / "one.gr"
    expr_path.write_text(DEEP_CHAIN_TEXT)
    graph_path.write_text(format_graph(Graph(1)))
    code, report, err = run(["solve", "--algo", "cw", "--expr", str(expr_path), str(graph_path)])
    assert code == 0, err
    assert report["size"] == 1 and report["witness"] == [0]


@pytest.mark.parametrize("which", ["expr", "graph"])
def test_solve_cw_rejects_non_utf8_files(run, tmp_path, which):
    paths = {"expr": tmp_path / "k1.expr", "graph": tmp_path / "k1.gr"}
    paths["expr"].write_text("(v 1)")
    paths["graph"].write_text(format_graph(Graph(1)))
    paths[which].write_bytes(b"\xff" + paths[which].read_bytes())
    code, payload, err = run(
        ["solve", "--algo", "cw", "--expr", str(paths["expr"]), str(paths["graph"])]
    )
    assert code == 2 and payload is None
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "comment, code",
    [(b"# caf\xc3\xa9\n", 0), (b"# caf\xe9\n", 2)],
    ids=["utf8-comment", "latin1-byte"],
)
def test_graph_files_are_utf8_in_an_ascii_locale(tmp_path, comment, code):
    path = tmp_path / "k2.gr"
    path.write_bytes(b"2 1\n0 1\n" + comment)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "safeset.cli", "solve", "--algo", "oracle", str(path)],
        env={**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONUTF8": "0"},
        capture_output=True,
        text=True,
    )
    assert out.returncode == code, out.stderr
    if code == 2:
        assert out.stderr.startswith("error: 'utf-8' codec can't decode byte 0xe9")


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(EXPR_TEXTS)
def test_solve_cw_fuzzed_expressions_never_crash(run, tmp_path, text):
    # the graph is the one the text builds whenever it parses, so the solver
    # runs too; lone surrogates become bytes that are not UTF-8
    expr_path, graph_path = tmp_path / "fuzz.expr", tmp_path / "fuzz.gr"
    expr_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        g, _ = eval_graph(parse_cexpression(text))
    except (FormatError, InputError):
        g = Graph(1)
    graph_path.write_text(format_graph(g))
    code, _, err = run(["solve", "--algo", "cw", "--expr", str(expr_path), str(graph_path)])
    assert code in (0, 1, 2), err
    assert "internal error" not in err


# arbitrary text, and token soups of header and edge lines: mostly small
# integers, so that many soups parse and reach the solver, mixed with
# tokens the format refuses or that int() reads in unexpected ways
GRAPH_TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=12).map(str),
    st.sampled_from(["#", "x", "1.5", "0x3", "1_0", "\u0663", "-0", str(MAX_VERTICES + 1), str(2**70)]),
)
EDGES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    max_size=14,
    unique_by=frozenset,
)


@st.composite
def graph_soups(draw):
    body = [f"{u} {v}" for u, v in draw(EDGES)]
    if draw(st.booleans()):
        junk = draw(st.lists(GRAPH_TOKENS, max_size=4).map(" ".join))
        body.insert(draw(st.integers(0, len(body))), junk)
    n = draw(st.one_of(st.just("12"), GRAPH_TOKENS))
    m = draw(st.one_of(st.just(str(len(body))), GRAPH_TOKENS))
    return "\n".join([f"{n} {m}", *body])


GRAPH_TEXTS = st.one_of(st.text(max_size=200), graph_soups())


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(GRAPH_TEXTS, st.booleans())
def test_solve_nd_fuzzed_graphs_never_crash(run, tmp_path, text, connected):
    graph_path = tmp_path / "fuzz.gr"
    graph_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = ["solve", "--algo", "nd", str(graph_path)]
    code, _, err = run(argv + ["--connected"] if connected else argv)
    assert code in (0, 1, 2), err
    assert "internal error" not in err


# vertex lists: comma-joined integers, mixed with tokens int() refuses or
# reads in unexpected ways
SET_TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=9).map(str),
    st.sampled_from(["", " ", "x", "1.5", "0x3", "1_0", "\u0663", "-0", "+3", " 4 ", str(2**70)]),
)
SET_TEXTS = st.one_of(
    st.lists(st.integers(0, 7).map(str), min_size=1, max_size=8).map(",".join),
    st.lists(SET_TOKENS, max_size=8).map(",".join),
    st.text(max_size=40),
)
# well-formed graphs, so that many inputs get past the parser
SMALL_GRAPH_TEXTS = st.sampled_from(
    [format_graph(g) for g in (cycle_graph(8), complete_graph(3), star_graph(3), Graph(2))]
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.one_of(st.just(format_graph(cycle_graph(8))), GRAPH_TEXTS), SET_TEXTS, st.booleans())
def test_verify_fuzzed_inputs_never_crash(run, tmp_path, graph_text, set_text, connected):
    graph_path = tmp_path / "fuzz.gr"
    graph_path.write_bytes(graph_text.encode("utf-8", "surrogatepass"))
    argv = ["verify", f"--set={set_text}", str(graph_path)]
    code, _, err = run(argv + ["--connected"] if connected else argv)
    assert code in (0, 1, 2), err
    assert "internal error" not in err


# budgets: small ones build real instances; the rest lie beyond any instance
# a graph file may hold (mid-sized budgets build legitimate instances of
# 10^5-10^6 vertices, seconds each, which is not what this test looks for)
BUDGETS = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=3),
    st.integers(max_value=-3),
    st.integers(min_value=MAX_VERTICES),
).map(str)
BIGRAPH_EDGES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10, unique=True)


@st.composite
def bigraph_soups(draw):
    body = [f"{i} {j}" for i, j in draw(BIGRAPH_EDGES)]
    if draw(st.booleans()):
        junk = draw(st.lists(GRAPH_TOKENS, max_size=4).map(" ".join))
        body.insert(draw(st.integers(0, len(body))), junk)
    r = draw(st.one_of(st.just("6"), GRAPH_TOKENS))
    b = draw(st.one_of(st.just("6"), GRAPH_TOKENS))
    m = draw(st.one_of(st.just(str(len(body))), GRAPH_TOKENS))
    return "\n".join([f"{r} {b} {m}", *body])


GEN_OUTPUTS = ("out.gr", "out.gr.json", "cert.txt", "pd.json")


def _check_gen_outputs(code, report, tmp_path):
    """On success every file gen wrote reads back and fits the instance; on
    failure gen wrote nothing."""
    if code != 0:
        assert not any((tmp_path / name).exists() for name in GEN_OUTPUTS)
        return
    produced = load_graph(tmp_path / "out.gr")
    assert (produced.n, produced.m) == (report["n"], report["m"])
    cert = tmp_path / "cert.txt"
    if cert.exists():
        witness = [int(p) for p in cert.read_text().split(",")]
        assert len(witness) == report["target"]
        assert is_connected_safe_set(produced, witness)
    decomp = tmp_path / "pd.json"
    if decomp.exists():
        width = validate_path_decomposition(produced, decomposition_from_json(decomp.read_text()))
        assert isinstance(width, int)
    sidecar = json.loads((tmp_path / "out.gr.json").read_text(encoding="utf-8"))
    assert sidecar["target"] == report["target"]
    assert list(sidecar["role_map"]) == [str(v) for v in range(produced.n)]
    assert all("role" in record for record in sidecar["role_map"].values())
    assert sidecar["source"]["kind"] == report["family"]


def _gen_argv(family, k, source, tmp_path, cert, decomp):
    argv = ["gen", family, f"-k={k}", str(source), "-o", str(tmp_path / "out.gr")]
    if cert:
        argv += ["--cert", str(tmp_path / "cert.txt")]
    if decomp:
        argv += ["--decomp", str(tmp_path / "pd.json")]
    return argv


def _clear(tmp_path):
    for name in GEN_OUTPUTS:
        (tmp_path / name).unlink(missing_ok=True)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.one_of(SMALL_GRAPH_TEXTS, GRAPH_TEXTS), BUDGETS, st.booleans(), st.booleans())
def test_gen_ds_fuzzed_inputs_never_crash(run, tmp_path, text, k, cert, decomp):
    _clear(tmp_path)
    source = tmp_path / "fuzz.gr"
    source.write_bytes(text.encode("utf-8", "surrogatepass"))
    code, report, err = run(_gen_argv("ds", k, source, tmp_path, cert, decomp))
    assert code in (0, 2), err
    assert "internal error" not in err
    _check_gen_outputs(code, report, tmp_path)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(st.just("3 2 3\n0 0\n1 1\n2 1\n"), st.text(max_size=200), bigraph_soups()),
    BUDGETS,
    st.booleans(),
    st.booleans(),
)
def test_gen_rbds_fuzzed_inputs_never_crash(run, tmp_path, text, k, cert, decomp):
    _clear(tmp_path)
    source = tmp_path / "fuzz.bg"
    source.write_bytes(text.encode("utf-8", "surrogatepass"))
    code, report, err = run(_gen_argv("rbds", k, source, tmp_path, cert, decomp))
    assert code in (0, 2), err
    assert "internal error" not in err
    _check_gen_outputs(code, report, tmp_path)


def test_solve_cw_requires_expression(run, c8_path):
    code, _, err = run(["solve", "--algo", "cw", c8_path])
    assert code == 2 and "--expr" in err


@pytest.mark.parametrize(
    "algo,solver",
    [
        ("oracle", "safe_number_bf"),
        ("nd", "solve_nd"),
        ("branch", "branch_solve"),
        ("approx", "approx_safe_set"),
    ],
)
def test_solve_refuses_expression_off_cw_before_solving(
    run, c8_path, tmp_path, monkeypatch, algo, solver
):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{solver} ran")

    monkeypatch.setattr(f"safeset.cli.{solver}", must_not_run)
    expr_path = tmp_path / "c8.expr"
    expr_path.write_text(format_cexpression(cycle_expression(8)))
    for path in (expr_path, tmp_path / "missing.expr"):
        code, report, err = run(
            ["solve", "--algo", algo, "-k", "4", "--expr", str(path), c8_path]
        )
        assert code == 2 and report is None and "--expr" in err, err


def test_solve_branch_without_bound_searches_every_size(run, c8_path, tmp_path):
    # sizes are tried in ascending order, so k = n reports what -k 8 does
    for mode in ([], ["--connected"]):
        reports = []
        for bound in ([], ["-k", "8"]):
            code, report, _ = run(["solve", "--algo", "branch", *mode, *bound, c8_path])
            assert code == 0
            del report["elapsed_ms"]
            reports.append(report)
        assert reports[0] == reports[1]
    empty = tmp_path / "empty.gr"
    empty.write_text("0 0\n")
    code, report, _ = run(["solve", "--algo", "branch", str(empty)])
    assert code == 1 and report["feasible"] is False


@pytest.mark.parametrize("algo", ["oracle", "nd", "cw", "branch", "approx"])
def test_solve_rejects_bound_below_one_on_every_route(run, c8_path, tmp_path, algo):
    expr_path = tmp_path / "c8.expr"
    expr_path.write_text(format_cexpression(cycle_expression(8)))
    extra = ["--expr", str(expr_path)] if algo == "cw" else []
    for k in ("0", "-3"):
        code, report, err = run(["solve", "--algo", algo, "-k", k, *extra, c8_path])
        assert code == 2 and report is None and "k must be at least 1" in err


def test_solve_approx_has_no_connected_mode(run, c8_path):
    code, _, err = run(["solve", "--algo", "approx", "--connected", c8_path])
    assert code == 2 and "plain problem" in err


def test_solve_approx_witness_verifies(run, c8_path):
    code, report, _ = run(["solve", "--algo", "approx", c8_path])
    assert code == 0
    assert is_safe_set(cycle_graph(8), report["witness"])


def test_solve_size_bound_filters_other_algorithms(run, c8_path):
    code, report, _ = run(["solve", "--algo", "nd", "-k", "3", c8_path])
    assert code == 1 and report["feasible"] is False
    code, report, _ = run(["solve", "--algo", "nd", "-k", "4", c8_path])
    assert code == 0 and report["size"] == 4


def _bound_cases(algo: str):
    """(graph, expression or None, connected, unbounded result): K4 and
    seeded random graphs, every third one of two components, or random
    trees for cw.  Under a bound of 1, nd's guess walk on K4 still finds a
    set of 2, which the bound must discard."""
    rng = random.Random(8)
    for idx in range(12):
        expr = None
        if algo == "cw":
            expr = random_expression(rng, label_count=3, max_leaves=9)
            g, _ = eval_graph(expr)
        else:
            count = 2 if idx % 3 == 0 else 1
            parts = [
                random_connected_graph(rng, rng.randint(3, 9), rng.choice([0.1, 0.3, 0.6]))
                for _ in range(count)
            ]
            g = complete_graph(4) if idx == 0 else shuffled(disjoint_union(*parts), idx)
        for connected in (False,) if algo == "approx" else (False, True):
            if algo == "nd":
                res = solve_nd(g, connected)
            elif algo == "cw":
                res = solve_cw(expr, connected)
            else:
                res = approx_safe_set(g)
            yield g, expr, connected, res


@pytest.mark.parametrize("algo", ["nd", "approx", "cw"])
def test_size_bound_answers_as_a_filter_on_the_full_run(run, tmp_path, algo):
    # -k bounds the search, yet the answer is that of the unbounded run
    # with a size above k read as infeasible
    for idx, (g, expr, connected, full) in enumerate(_bound_cases(algo)):
        path = tmp_path / f"g{idx}.gr"
        path.write_text(format_graph(g))
        argv = ["solve", "--algo", algo, str(path)] + ["--connected"] * connected
        if expr is not None:
            expr_path = tmp_path / f"g{idx}.expr"
            expr_path.write_text(format_cexpression(expr))
            argv += ["--expr", str(expr_path)]
        best = full.size if full.feasible else g.n
        for k in sorted({best - 1, best, best + 2, g.n} - {0}):
            code, report, _ = run(argv + ["-k", str(k)])
            fits = full.feasible and full.size <= k
            assert code == (0 if fits else 1), (idx, connected, k)
            assert report["size"] == (full.size if fits else None)
            assert report["witness"] == (sorted(full.witness) if fits else None)


def test_solve_oracle_respects_size_bound(run, c8_path):
    code, report, _ = run(["solve", "--algo", "oracle", "-k", "3", c8_path])
    assert code == 1 and report["feasible"] is False


def test_solve_missing_file_is_an_error(run, tmp_path):
    code, _, err = run(["solve", "--algo", "oracle", str(tmp_path / "nope.gr")])
    assert code == 2 and "error:" in err


def test_oversized_header_is_an_input_error(run, tmp_path):
    path = tmp_path / "huge.gr"
    path.write_text("1000000000 0\n")
    code, report, err = run(["solve", "--algo", "approx", str(path)])
    assert code == 2 and report is None
    assert "header announces 1000000000 vertices" in err
    source = tmp_path / "huge.bg"
    source.write_text("1000000000 1 0\n")
    code, _, err = run(["gen", "rbds", "-k", "1", str(source), "-o", str(tmp_path / "h.gr")])
    assert code == 2 and "header announces" in err


def test_witness_round_trips_through_verify(run, c8_path):
    _, report, _ = run(["solve", "--algo", "oracle", "--connected", c8_path])
    listed = ",".join(str(v) for v in report["witness"])
    code, verdict, _ = run(["verify", "--connected", "--set", listed, c8_path])
    assert code == 0 and verdict["ok"] is True


def test_verify_accepts_opposite_pairs_on_cycle(run, c8_path):
    code, verdict, _ = run(["verify", "--set", "0,1,4,5", c8_path])
    assert code == 0
    assert verdict["ok"] is True and verdict["size"] == 4


def test_verify_rejects_single_vertex_with_pair(run, c8_path):
    code, verdict, _ = run(["verify", "--set", "0", c8_path])
    assert code == 1
    violation = verdict["violation"]
    assert violation["kind"] == "larger-neighbor"
    assert violation["component"] == [0]
    assert sorted(violation["neighbor"]) == [1, 2, 3, 4, 5, 6, 7]


def test_verify_connected_rejects_split_set(run, c8_path):
    code, verdict, _ = run(["verify", "--connected", "--set", "0,1,4,5", c8_path])
    assert code == 1
    assert verdict["violation"]["kind"] == "disconnected"


def test_verify_rejects_malformed_list(run, c8_path):
    code, _, err = run(["verify", "--set", "0,,1", c8_path])
    assert code == 2 and "error:" in err


def test_gen_ds_writes_instance_certificate_and_decomposition(run, tmp_path):
    base = tmp_path / "k3.gr"
    base.write_text(format_graph(complete_graph(3)))
    out = tmp_path / "out.gr"
    cert = tmp_path / "cert.txt"
    decomp = tmp_path / "pd.json"
    code, report, _ = run(
        [
            "gen", "ds", "-k", "1", str(base),
            "-o", str(out), "--cert", str(cert), "--decomp", str(decomp),
        ]
    )
    assert code == 0
    assert report["target"] == 13
    produced = load_graph(out)
    assert produced.n == report["n"] and produced.m == report["m"]
    assert json.loads((tmp_path / "out.gr.json").read_text())["target"] == 13

    witness = [int(p) for p in cert.read_text().strip().split(",")]
    assert len(witness) == 13
    assert is_connected_safe_set(produced, witness)

    pd = decomposition_from_json(decomp.read_text())
    width = validate_path_decomposition(produced, pd)
    assert isinstance(width, int) and width <= 2 * 1 + 4
    assert len(pd.bags) == produced.n


def test_gen_ds_rejects_zero_budget(run, tmp_path):
    base = tmp_path / "k3.gr"
    base.write_text(format_graph(complete_graph(3)))
    code, _, err = run(["gen", "ds", "-k", "0", str(base), "-o", str(tmp_path / "o.gr")])
    assert code == 2 and "error:" in err


def test_gen_rbds_writes_expected_instance(run, tmp_path):
    source = tmp_path / "rb.bg"
    source.write_text("1 1 1\n0 0\n")
    out = tmp_path / "h.gr"
    cert = tmp_path / "cert.txt"
    code, report, _ = run(
        ["gen", "rbds", "-k", "1", str(source), "-o", str(out), "--cert", str(cert)]
    )
    assert code == 0
    produced = load_graph(out)
    assert produced.n == 18
    assert report["target"] == 3
    witness = [int(p) for p in cert.read_text().strip().split(",")]
    assert is_connected_safe_set(produced, witness)


def test_gen_rbds_has_no_decomposition(run, tmp_path):
    source = tmp_path / "rb.bg"
    source.write_text("1 1 1\n0 0\n")
    code, _, err = run(
        [
            "gen", "rbds", "-k", "1", str(source),
            "-o", str(tmp_path / "h.gr"), "--decomp", str(tmp_path / "d.json"),
        ]
    )
    assert code == 2 and "ds family" in err


P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"


@pytest.mark.parametrize(
    "family,k,source,flag,name,message",
    [
        ("rbds", 1, "1 1 1\n0 0\n", "--decomp", "pd.json", "ds family"),
        ("ds", 1, P4_TEXT, "--cert", "cert.txt", "no dominating set"),
        ("ds", 5, P4_TEXT, "--cert", "cert.txt", "k exceeds the vertex count"),
    ],
    ids=["rbds-decomp", "ds-no-dominating-set", "ds-k-above-n"],
)
def test_gen_writes_nothing_when_it_fails(run, tmp_path, family, k, source, flag, name, message):
    path = tmp_path / "base.txt"
    path.write_text(source)
    argv = ["gen", family, "-k", str(k), str(path), "-o", str(tmp_path / "out.gr")]
    code, _, err = run(argv + [flag, str(tmp_path / name)])
    assert code == 2 and message in err
    assert not any((tmp_path / written).exists() for written in GEN_OUTPUTS)


@pytest.mark.parametrize("unwritable", ["--cert", "--decomp"])
def test_gen_removes_what_it_wrote_when_a_later_write_fails(run, tmp_path, unwritable):
    base = tmp_path / "k3.gr"
    base.write_text(format_graph(complete_graph(3)))
    out = tmp_path / "out.gr"
    targets = {"--cert": tmp_path / "cert.txt", "--decomp": tmp_path / "pd.json"}
    targets[unwritable] = tmp_path / "nodir" / "file"
    argv = ["gen", "ds", "-k", "1", str(base), "-o", str(out)]
    for flag, path in targets.items():
        argv += [flag, str(path)]
    code, _, err = run(argv)
    assert code == 2 and "error:" in err
    assert not out.exists()
    assert not any((tmp_path / written).exists() for written in GEN_OUTPUTS)


def _k3_gen_argv(tmp_path):
    base = tmp_path / "k3.gr"
    base.write_text(format_graph(complete_graph(3)))
    argv = ["gen", "ds", "-k", "1", str(base), "-o", str(tmp_path / "out.gr")]
    return argv + ["--cert", str(tmp_path / "cert.txt"), "--decomp", str(tmp_path / "pd.json")]


def test_gen_removes_a_partial_sidecar(run, tmp_path, monkeypatch):
    def full_disk(path, *_):
        Path(path).write_text('{"role_map": {"0"', encoding="utf-8")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("safeset.cli.write_sidecar", full_disk)
    code, _, err = run(_k3_gen_argv(tmp_path))
    assert code == 2 and "No space left" in err
    assert not any((tmp_path / written).exists() for written in GEN_OUTPUTS)


def test_gen_keeps_a_directory_where_the_sidecar_goes(run, tmp_path):
    sidecar = tmp_path / "out.gr.json"
    sidecar.mkdir()
    (sidecar / "kept.txt").write_text("x")
    code, _, err = run(_k3_gen_argv(tmp_path))
    assert code == 2 and "Is a directory" in err
    assert not any((tmp_path / name).exists() for name in ("out.gr", "cert.txt", "pd.json"))
    assert [p.name for p in sidecar.iterdir()] == ["kept.txt"]


@pytest.mark.parametrize("family,source", [("ds", "2 1\n0 1\n"), ("rbds", "1 1 1\n0 0\n")])
def test_gen_refuses_instances_no_graph_file_may_hold(run, tmp_path, family, source):
    path = tmp_path / "base.txt"
    path.write_text(source)
    out = tmp_path / "out.gr"
    code, _, err = run(["gen", family, "-k", str(10**12), str(path), "-o", str(out)])
    assert code == 2 and f"more than {MAX_VERTICES}" in err
    assert not out.exists()


def test_gen_rbds_certificate_respects_bf_cap(run, tmp_path):
    source = tmp_path / "wide.bg"
    source.write_text("1 21 1\n0 20\n")
    argv = ["gen", "rbds", "-k", "1", str(source), "-o", str(tmp_path / "h.gr")]
    argv += ["--cert", str(tmp_path / "cert.txt")]
    code, _, err = run(argv)
    assert code == 2 and "cap=20" in err
    code, _, _ = run(argv + ["--bf-cap", "21"])
    assert code == 0


def test_bf_cap_flag(run, c8_path):
    code, _, err = run(["solve", "--algo", "oracle", "--bf-cap", "5", c8_path])
    assert code == 2 and "error:" in err
    code, report, _ = run(["solve", "--algo", "oracle", "--bf-cap", "25", c8_path])
    assert code == 0 and report["size"] == 4


def test_solver_crash_exits_3(run, c8_path, monkeypatch):
    def crash(g, connected=False, limit=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("safeset.cli.solve_nd", crash)
    code, report, err = run(["solve", "--algo", "nd", c8_path])
    assert code == 3 and report is None
    assert err.strip() == "internal error: RecursionError: maximum recursion depth exceeded"


def test_unsafe_solver_witness_exits_3(run, c8_path, monkeypatch):
    def unsafe(g, connected=False, limit=None):
        return verified_result(g, {0}, "nd", connected, 0.0)

    monkeypatch.setattr("safeset.cli.solve_nd", unsafe)
    code, report, err = run(["solve", "--algo", "nd", c8_path])
    assert code == 3 and report is None
    assert err.startswith("internal error: WitnessError: nd reported [0]")
