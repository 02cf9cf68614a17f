"""Self-checks of the benchmark: tracer hygiene, span accounting, repeatable
counts, live answer checks and the declared metric list.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _ops(pkg, name, tmp_path, count, seed=7):
    oracle = ref.Reference()
    instances = workloads.setup(name, seed, tmp_path / name, pkg, oracle)
    return workloads.plan(name, instances, tmp_path / name, oracle)[:count]


def _bindings(pkg) -> dict:
    out = {(m, a): v for m, mod in pkg.all.items() for a, v in vars(mod).items()}
    out[("Graph", "__init__")] = pkg.graph.Graph.__init__
    return out


def _traced_pass(pkg, ops) -> tuple[Tracer, run.Runner]:
    runner = run.Runner(ops, pkg)
    tracer = Tracer()
    tracer.install(pkg.all)
    try:
        runner.measure(0, tracer)
    finally:
        tracer.uninstall()
    return tracer, runner


def test_uninstall_restores_every_patched_attribute(pkg, tmp_path):
    before = _bindings(pkg)
    tracer = Tracer()
    tracer.install(pkg.all)
    try:
        assert pkg.graph.components_mask is not before[("safeset.graph", "components_mask")]
        assert pkg.preprocess.components_mask is not before[("safeset.preprocess", "components_mask")]
        assert pkg.graph.Graph.__init__ is not before[("Graph", "__init__")]
        run.Runner(_ops(pkg, "exact-random", tmp_path, 3), pkg).measure(0, tracer)
    finally:
        tracer.uninstall()
    after = _bindings(pkg)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize(
    "name,count", [("exact-random", 12), ("cw-trees", 6), ("approx-sparse", 1), ("reductions", 6)]
)
def test_self_times_sum_to_each_op_span(pkg, tmp_path, name, count):
    tracer, runner = _traced_pass(pkg, _ops(pkg, name, tmp_path, count))
    assert runner.failed == 0
    assert tracer.spans_seen == len(tracer.span_id), "raise SPAN_BUDGET or trace fewer ops"
    durations = tracer.op_durations()
    per_op = tracer.self_by_op()
    assert sorted(durations) == list(range(count))
    for op, duration in durations.items():
        assert sum(per_op[op].values()) == pytest.approx(duration, rel=1e-9, abs=1e-9)
    # the online totals agree with the totals recomputed from stored spans
    for nid, name_ in enumerate(tracer.names):
        recomputed = sum(per.get(name_, 0.0) for per in per_op.values())
        assert tracer.self_s[nid] == pytest.approx(recomputed, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("name,count", [("exact-random", 12), ("cw-trees", 6), ("reductions", 6)])
def test_two_traced_runs_with_one_seed_count_and_answer_the_same(pkg, tmp_path, name, count):
    counts, digests = [], []
    for attempt in range(2):
        fresh = run.import_package()
        tracer, runner = _traced_pass(fresh, _ops(fresh, name, tmp_path / str(attempt), count))
        counts.append(tracer.take_counts())
        digests.append(runner.digest())
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    assert digests[0] == digests[1]


def test_a_wrong_answer_counts_as_failed(pkg, tmp_path):
    op = _ops(pkg, "exact-random", tmp_path, 1)[0]
    assert op.route == "oracle"
    lying = workloads.Op(op.op_id, op.route, op.argv, op.answer,
                         lambda argv, code, out: False)
    runner = run.Runner([op, lying], pkg)
    runner.measure(0)
    runner.measure(0)
    assert (runner.attempted, runner.failed) == (4, 2)


def test_reference_checks():
    c8 = ref.adjacency(8, [(i, (i + 1) % 8) for i in range(8)])
    assert ref.min_safe_size(c8) == 4
    assert ref.min_safe_size(c8, connected=True) == 4
    assert ref.is_safe(c8, {0, 1, 2, 3}, connected=True)
    assert not ref.is_safe(c8, {0, 1, 2})
    assert not ref.is_safe(c8, {0, 1, 4, 5}, connected=True)
    path = ref.adjacency(3, [(0, 1), (1, 2)])
    assert ref.path_decomposition_width(path, [[0, 1], [1, 2]]) == 2
    assert ref.path_decomposition_width(path, [[0, 1], [2]]) is None
    assert ref.path_decomposition_width(path, [[0, 1], [2], [1, 2]]) is None


def test_op_times_are_scaled_by_the_kernel_times_around_them():
    runner = run.Runner([None, None], pkg=None)
    runner.times = [[0.010, 0.030], [0.020]]
    runner.order = [0, 1, 0]
    k = run.CAL_REF_S
    runner.cal = [k, k, k, 2 * k]
    assert runner.op_seconds(scaled=False) == [0.020, 0.020]
    # every window holds all four kernel times, whose median is 1.0 k
    assert runner.op_seconds() == pytest.approx([0.020, 0.020])
    runner.cal = [2 * k] * 4
    assert runner.op_seconds() == pytest.approx([0.010, 0.010])


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90)
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 66)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reductions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
