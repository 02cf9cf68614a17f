"""Benchmark of the ``safeset`` command line, run in-process.

    python3 perfbench/run.py --workload exact-random --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one thread, a closed loop:
each operation is one ``safeset.cli.main(argv)`` call, started when the
previous one returned.  A workload's operations form one pass over its
instance pool; the run cycles through them until a full pass is done and
``--seconds`` have passed, and an operation's time is the median of its
samples, scaled to a reference machine speed (see ``CAL_REF_S``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run with every layer wrapped (see ``tracer.py``).  The last
line of stdout is the result object; the line before it is the full report
(route times, digest, tail percentile and so on).  Every answer is checked
independently (``reference.py``); a wrong or missing answer counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import reference as ref
import workloads
from tracer import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_COUNTS = [
    "io.load_graph.calls",
    "io.load_graph.bytes",
    "graph.components_mask.calls",
    "graph.is_safe_mask.calls",
    "graph.neighborhood_mask.calls",
    "graph.vertices_of.calls",
    "graph.bfs_order.calls",
    "graph.induced_subgraph.calls",
    "graph.explain_safety.calls",
    "graph.Graph.init.calls",
    "oracle.subset_masks_by_size.yielded",
    "oracle.dominating_set_bf.calls",
    "nd.twin_partition.calls",
    "nd.enumerate_guesses.yielded",
    "nd.build_families.calls",
    "nd.assemble_ip.calls",
    "nd.assemble_ip.rejected",
    "nd.solve_ip.calls",
    "branching.find_problematic.calls",
    "branching.steiner_exact.calls",
    "branching.leaf_verifies",
    "cexpr.eval_graph.calls",
    "cexpr.iter_nodes.yielded",
    "cw.dp_leaf.calls",
    "cw.dp_union.calls",
    "cw.dp_relabel.calls",
    "cw.dp_join.calls",
    "cw.table_entries_max",
    "cw.table_entries_sum",
    "cw.union_pairs",
    "cw.candidates_skipped",
    "preprocess.guesses",
    "preprocess.absorb_rounds",
    "preprocess.components_mask.calls",
    "reductions.vertices_out",
]
# ratio name -> (numerator, denominator), both per-pass counts
LAYER_RATIOS = {
    "nd.guess_keep_ratio": ("nd.assemble_ip.calls", "nd.enumerate_guesses.yielded"),
    "nd.ip_feasible_ratio": ("nd.solve_ip.feasible", "nd.solve_ip.calls"),
    "branching.leaf_accept_ratio": ("branching.leaf_accepts", "branching.leaf_verifies"),
    "cw.union_keep_ratio": ("cw.union_kept", "cw.union_pairs"),
}
LAYER_SHARES = [name for _, _, name in SPANS]


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in LAYER_COUNTS}
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units.update({f"{name}.self_pct": "%" for name in LAYER_SHARES})
    units["trace.overhead_s"] = "s"
    return units


class FormatOnly(logging.Handler):
    """Formats every record as the CLI's stderr handler would, then drops it."""

    def emit(self, record):
        self.format(record)


class WarningCounter(logging.Handler):
    """Counts WARNING and worse records per logger name."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record):
        self.counts[record.name] = self.counts.get(record.name, 0) + 1


def import_package() -> SimpleNamespace:
    """Import ``safeset`` afresh from the checkout's ``src``: ``pkg.<module>``
    for each submodule, ``pkg.all`` mapping full names to modules."""
    for name in [m for m in sys.modules if m.split(".")[0] == "safeset"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for name in ("safeset.cli", "safeset.generators"):  # cli imports the rest
        importlib.import_module(name)
    mods = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "safeset"}
    if not Path(mods["safeset"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"safeset imported from {mods['safeset'].__file__}, not {ROOT / 'src'}")
    pkg = SimpleNamespace(**{name.split(".")[-1]: m for name, m in mods.items()})
    pkg.all = mods
    return pkg


# The machine's speed drifts by tens of percent over seconds to minutes (see
# README), which swamps run-to-run comparisons of raw wall times.  So every
# timed interval is also measured against a fixed kernel of the benchmark's
# own code, run right after it: scaled time = wall time * CAL_REF_S / kernel
# time, i.e. the wall time at the kernel speed CAL_REF_S (this machine's
# typical speed).  Raw wall times are reported alongside.
CAL_REF_S = 0.00035
CAL_WINDOW = 5
_CAL_RING = ref.adjacency(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 4)])
_CAL_BIG = ref.adjacency(120, [(i, (7 * i + 3) % 120) for i in range(120) if i != (7 * i + 3) % 120])


def calibrate() -> float:
    """Seconds the fixed kernel takes now (best of three runs)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ref.min_safe_size(_CAL_RING)
        ref.is_safe(_CAL_BIG, set(range(0, 120, 3)))
        best = min(best, time.perf_counter() - t0)
    return best


def run_op(call, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Time one command line; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs a fixed op list and judges every answer."""

    def __init__(self, ops, pkg, clear=lambda: None):
        self.ops = ops
        self.pkg = pkg
        self.clear = clear
        self.times: list[list[float]] = [[] for _ in ops]
        # kernel times: one before the first op, then one after every op
        self.cal: list[float] = []
        self.order: list[int] = []
        self.pass_seconds: list[float] = []
        self.answers: list[tuple | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def run(self, i: int, tracer: Tracer | None = None) -> None:
        """Run op ``i`` once, record its time and judge its answer."""
        op = self.ops[i]
        argv = op.argv()
        main = self.pkg.cli.main  # looked up per call: the tracer patches it
        if tracer is None:
            dt, code, out, err = run_op(main, argv)
        else:
            dt, code, out, err = tracer.op(i, run_op, main, argv)
        self.times[i].append(dt)
        self.cal.append(calibrate())
        self.order.append(i)
        self.attempted += 1
        if not self._judge(i, op, argv, code, out):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.op_id}: exit {code} {err.strip()[-300:]}")

    def _judge(self, i, op, argv, code, out) -> bool:
        try:
            answer = op.answer(argv, code, out)
            if self.answers[i] is None:
                self.answers[i] = answer
                if not op.check(argv, code, out):
                    self.bad.add(i)
        except Exception:  # missing or malformed output is a failed op, not a crash
            self.bad.add(i)
            if len(self.errors) < 5:
                self.errors.append(f"{op.op_id}: {traceback.format_exc(limit=1).strip()[-300:]}")
            return False
        # a repeat must give the answer the first pass gave (and had checked)
        return answer == self.answers[i] and i not in self.bad

    def measure(
        self, seconds: float, tracer: Tracer | None = None, after_pass=None, before_op=None
    ) -> None:
        """Cycle through the ops until one full pass is done and ``seconds``
        have passed.  Each full pass appends its summed op time to
        ``pass_seconds`` and then calls ``after_pass``; ``before_op`` gets the
        number of ops run so far."""
        if not self.cal:
            self.cal.append(calibrate())
        start = time.perf_counter()
        done = 0
        while done < len(self.ops) or time.perf_counter() - start < seconds:
            if before_op is not None:
                before_op(done)
            i = done % len(self.ops)
            if i == 0:
                self.clear()
            self.run(i, tracer)
            done += 1
            if done % len(self.ops) == 0:
                self.pass_seconds.append(sum(t[-1] for t in self.times))
                if after_pass is not None:
                    after_pass()

    def op_seconds(self, scaled: bool = True) -> list[float]:
        """Median time of each op, scaled by the kernel times measured in the
        CAL_WINDOW runs on either side of each sample (see CAL_REF_S)."""
        if not scaled:
            return [statistics.median(t) for t in self.times]
        samples: list[list[float]] = [[] for _ in self.ops]
        for j, i in enumerate(self.order):
            kernel = statistics.median(self.cal[max(0, j - CAL_WINDOW + 1): j + CAL_WINDOW + 1])
            samples[i].append(self.times[i][len(samples[i])] * CAL_REF_S / kernel)
        return [statistics.median(t) for t in samples]

    def digest(self) -> str:
        rows = [[op.op_id, list(a) if a else a] for op, a in zip(self.ops, self.answers)]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least 10 samples above it
    (nearest-rank), as (value, percentile); the maximum below 11 samples."""
    v = sorted(values)
    n = len(v)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return v[rank - 1], q
    return v[-1], 100


def _time_metrics(per_op: list[float], setup_times: list[float]) -> dict:
    ms = [s * 1000.0 for s in per_op]
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail(ms)[0],
        "ops_per_s": len(per_op) / sum(per_op),
    }


def end_to_end(runner: Runner, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """``setups`` holds (wall seconds, kernel seconds) per set-up."""
    per_op = runner.op_seconds()
    metrics = _time_metrics(per_op, [wall * CAL_REF_S / kernel for wall, kernel in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {
        "wall": _time_metrics(runner.op_seconds(scaled=False), [wall for wall, _ in setups]),
        "kernel_ms_median": 1000.0 * statistics.median(runner.cal),
        "op_ms_tail_percentile": tail(per_op)[1],
        "op_ms_tail_samples": len(per_op),
        "fail_ratio": runner.failed / runner.attempted,
        "setup_s_samples": [wall for wall, _ in setups],
    }
    for op, seconds in zip(runner.ops, per_op):
        extra[f"{op.route}_s"] = extra.get(f"{op.route}_s", 0.0) + seconds
    approx = [a[1] for op, a in zip(runner.ops, runner.answers) if op.route == "approx" and a]
    if approx:
        extra["approx_size_sum"] = sum(s for s in approx if s is not None)
    return metrics, extra


def per_layer(tracer: Tracer, pass_counts: list[dict], overhead_s: float) -> dict:
    counts = pass_counts[0]
    metrics = {name: counts.get(name, 0) for name in LAYER_COUNTS}
    for name, (num, den) in LAYER_RATIOS.items():
        metrics[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    op_total = sum(tracer.op_seconds)
    self_s = dict(zip(tracer.names, tracer.self_s))
    for name in LAYER_SHARES:
        metrics[f"{name}.self_pct"] = 100.0 * self_s.get(name, 0.0) / op_total
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "safeset" / "cli.py").is_file():
        print(f"error: no safeset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / args.workload

    # what cli.main's basicConfig would do, minus the printing: the CLI's own
    # call is then a no-op and warnings are counted instead of printed
    handler = FormatOnly()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.root.addHandler(handler)
    logging.root.setLevel(logging.INFO)
    warnings = WarningCounter()
    logging.getLogger("safeset").addHandler(warnings)
    try:
        return _run(args, workdir, warnings)
    finally:
        logging.getLogger("safeset").removeHandler(warnings)
        logging.root.removeHandler(handler)


def _run(args, workdir: Path, warnings: WarningCounter) -> int:
    shutil.rmtree(workdir, ignore_errors=True)
    oracle = ref.Reference()
    setups: list[tuple[float, float]] = []

    def set_up():
        """Import, draw and write once; returns the package and the pool."""
        spent = oracle.seconds
        before = calibrate()
        t0 = time.perf_counter()
        pkg = import_package()
        instances = workloads.setup(args.workload, args.seed, workdir, pkg, oracle)
        wall = time.perf_counter() - t0 - (oracle.seconds - spent)
        setups.append((wall, (before + calibrate()) / 2))
        return pkg, instances

    pkg, instances = set_up()
    ops = workloads.plan(args.workload, instances, workdir, oracle)
    runner = Runner(ops, pkg, lambda: workloads.clear_outputs(workdir))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "reference_s": oracle.seconds,
    }
    if not args.trace:
        # the other set-ups are spread over the first pass, so that their
        # median sees the machine at several moments, as the ops do
        spread = {len(ops) * k // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}

        def set_up_between(done):
            if done in spread:
                spread.discard(done)
                set_up()

        runner.measure(args.seconds, before_op=set_up_between)
        metrics, extra = end_to_end(runner, setups)
        units = END_TO_END
        report.update(extra)
    else:
        runner.measure(0)  # warm-up: a pass's first run pays for heap growth and cold caches
        runner.measure(0)
        tracer = Tracer()
        pass_counts: list[dict] = []
        seen = warnings.counts.get("safeset.cw", 0)

        def take_counts():
            nonlocal seen
            counts = tracer.take_counts()
            counts["cw.candidates_skipped"] = warnings.counts.get("safeset.cw", 0) - seen
            seen = warnings.counts.get("safeset.cw", 0)
            pass_counts.append(counts)

        tracer.install(pkg.all)
        try:
            runner.measure(args.seconds, tracer, take_counts)
        finally:
            tracer.uninstall()
        untraced, traced = runner.pass_seconds[1], runner.pass_seconds[2:]
        metrics = per_layer(tracer, pass_counts, traced[0] - untraced)
        units = per_layer_units()
        report.update(
            untraced_pass_s=untraced,
            traced_pass_s=traced,
            counts_repeat=all(c == pass_counts[0] for c in pass_counts),
            spans_seen=tracer.spans_seen,
            spans_kept=len(tracer.span_id),
            self_s={n: s for n, s in zip(tracer.names, tracer.self_s)},
        )
        tracer.write(workdir / "spans.tsv")

    report.update(
        passes=len(runner.pass_seconds),
        digest=runner.digest(),
        log_warnings=dict(warnings.counts),
        errors=runner.errors,
        metrics=metrics,
    )
    print(json.dumps(report))
    if not args.trace:
        report["op_ms"] = {op.op_id: 1000 * s for op, s in zip(runner.ops, runner.op_seconds())}
    (workdir / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
