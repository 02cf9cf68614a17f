"""Spans and counts around the calls into each ``safeset`` module.

The tracer patches module attributes from outside the program: a wrapped
function is replaced in *every* ``safeset`` module that bound it at import
time (``from .graph import components_mask`` makes a second binding), so
calls made through either name are seen.  ``uninstall`` puts every
original back.

Each call becomes one span (name, start, end, parent span, op index) kept
in flat arrays until the run ends; past ``SPAN_BUDGET`` spans only the
running totals are kept, which bounds memory on the call-heavy workloads.  A generator's span covers one ``next``
call, so its self time is the time spent producing items.  Self time is a
span's duration minus the time its direct children cover; it is
accumulated online and can be recomputed from the stored spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

# (module, attribute, span name).  Attributes of the form ``Class.method``
# patch the class.
SPANS = [
    ("safeset.cli", "main", "cli.main"),
    ("safeset.io", "load_graph", "io.load_graph"),
    ("safeset.io", "save_graph", "io.save_graph"),
    ("safeset.io", "write_sidecar", "io.write_sidecar"),
    ("safeset.graph", "components_mask", "graph.components_mask"),
    ("safeset.graph", "is_safe_mask", "graph.is_safe_mask"),
    ("safeset.graph", "neighborhood_mask", "graph.neighborhood_mask"),
    ("safeset.graph", "vertices_of", "graph.vertices_of"),
    ("safeset.graph", "bfs_order", "graph.bfs_order"),
    ("safeset.graph", "induced_subgraph", "graph.induced_subgraph"),
    ("safeset.graph", "explain_safety", "graph.explain_safety"),
    ("safeset.graph", "Graph.__init__", "graph.Graph.init"),
    ("safeset.oracle", "subset_masks_by_size", "oracle.subset_masks_by_size"),
    ("safeset.oracle", "safe_number_bf", "oracle.safe_number_bf"),
    ("safeset.oracle", "connected_safe_number_bf", "oracle.connected_safe_number_bf"),
    ("safeset.oracle", "dominating_set_bf", "oracle.dominating_set_bf"),
    ("safeset.nd", "solve_nd", "nd.solve_nd"),
    ("safeset.nd", "twin_partition", "nd.twin_partition"),
    ("safeset.nd", "enumerate_guesses", "nd.enumerate_guesses"),
    ("safeset.nd", "build_families", "nd.build_families"),
    ("safeset.nd", "assemble_ip", "nd.assemble_ip"),
    ("safeset.nd", "solve_ip", "nd.solve_ip"),
    ("safeset.branching", "branch_solve", "branching.branch_solve"),
    ("safeset.branching", "find_problematic", "branching.find_problematic"),
    ("safeset.branching", "steiner_exact", "branching.steiner_exact"),
    ("safeset.cexpr", "parse_cexpression", "cexpr.parse_cexpression"),
    ("safeset.cexpr", "eval_graph", "cexpr.eval_graph"),
    ("safeset.cexpr", "validate_irredundant", "cexpr.validate_irredundant"),
    ("safeset.cexpr", "check_expression", "cexpr.check_expression"),
    ("safeset.cexpr", "leaf_spans", "cexpr.leaf_spans"),
    ("safeset.cexpr", "iter_nodes", "cexpr.iter_nodes"),
    ("safeset.cw", "solve_cw", "cw.solve_cw"),
    ("safeset.cw", "dp_evaluate", "cw.dp_evaluate"),
    ("safeset.cw", "dp_leaf", "cw.dp_leaf"),
    ("safeset.cw", "dp_union", "cw.dp_union"),
    ("safeset.cw", "dp_relabel", "cw.dp_relabel"),
    ("safeset.cw", "dp_join", "cw.dp_join"),
    ("safeset.preprocess", "approx_safe_set", "preprocess.approx_safe_set"),
    ("safeset.reductions", "ds_to_ss", "reductions.ds_to_ss"),
    ("safeset.reductions", "ds_forward_certificate", "reductions.ds_forward_certificate"),
    ("safeset.reductions", "ds_path_decomposition", "reductions.ds_path_decomposition"),
    ("safeset.reductions", "rbds_to_ss", "reductions.rbds_to_ss"),
    ("safeset.reductions", "rbds_has_dominating_set", "reductions.rbds_has_dominating_set"),
    ("safeset.reductions", "rbds_forward_certificate", "reductions.rbds_forward_certificate"),
]

GENERATORS = {
    "graph.bfs_order",
    "oracle.subset_masks_by_size",
    "nd.enumerate_guesses",
    "cexpr.iter_nodes",
}

# Calls through one module's binding only: (module, attribute, count name,
# name counting truthy results or None).  Installed on top of the spans.
BINDINGS = [
    ("safeset.preprocess", "is_safe_set", "preprocess.guesses", None),
    ("safeset.preprocess", "neighborhood_mask", "preprocess.absorb_rounds", None),
    ("safeset.preprocess", "components_mask", "preprocess.components_mask.calls", None),
    ("safeset.branching", "is_safe_set", "branching.leaf_verifies", "branching.leaf_accepts"),
    (
        "safeset.branching",
        "is_connected_safe_set",
        "branching.leaf_verifies",
        "branching.leaf_accepts",
    ),
]


def _load_graph_bytes(counts, args, kwargs, result):
    counts["io.load_graph.bytes"] += os.path.getsize(args[0])


def _assemble_ip(counts, args, kwargs, result):
    if result is None:
        counts["nd.assemble_ip.rejected"] += 1


def _solve_ip(counts, args, kwargs, result):
    if result is not None:
        counts["nd.solve_ip.feasible"] += 1


def _dp_evaluate(counts, args, kwargs, result):
    sizes = [len(table) for table in result.values()]
    counts["cw.table_entries_sum"] += sum(sizes)
    counts["cw.table_entries_max"] = max(counts["cw.table_entries_max"], max(sizes))


def _dp_union(counts, args, kwargs, result):
    counts["cw.union_pairs"] += len(args[0]) * len(args[1])
    counts["cw.union_kept"] += len(result)


def _reduction_output(counts, args, kwargs, result):
    counts["reductions.vertices_out"] += result.graph.n


HOOKS = {
    "io.load_graph": _load_graph_bytes,
    "nd.assemble_ip": _assemble_ip,
    "nd.solve_ip": _solve_ip,
    "cw.dp_evaluate": _dp_evaluate,
    "cw.dp_union": _dp_union,
    "reductions.ds_to_ss": _reduction_output,
    "reductions.rbds_to_ss": _reduction_output,
}

OP = "op"
SPAN_BUDGET = 300_000


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        # open spans: child-time accumulators and span ids, innermost last
        self._acc: list[float] = [0.0]
        self._open: list[int] = [-1]
        self._next_sid = 0
        self.op_index = -1
        self.op_seconds: list[float] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _enter(self) -> int:
        sid = self._next_sid
        self._next_sid = sid + 1
        self._acc.append(0.0)
        self._open.append(sid)
        return sid

    def _leave(self, nid: int, sid: int, t0: float, t1: float) -> None:
        child = self._acc.pop()
        self._open.pop()
        d = t1 - t0
        self._acc[-1] += d
        self.self_s[nid] += d - child
        if sid >= SPAN_BUDGET:
            return
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1])
        self.span_op.append(self.op_index)
        self.span_start.append(t0)
        self.span_end.append(t1)

    def op(self, index: int, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``index``."""
        self.op_index = index
        nid = self.name_id(OP)
        self.calls[nid] += 1
        sid = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._leave(nid, sid, t0, t1)
            self.op_seconds.append(t1 - t0)

    def _span(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        counts, calls, enter, leave, perf = (
            self.counts, self.calls, self._enter, self._leave, time.perf_counter,
        )

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            sid = enter()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(nid, sid, t0, perf())
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        nid = self.name_id(name)
        key = name + ".yielded"
        counts, calls, enter, leave, perf = (
            self.counts, self.calls, self._enter, self._leave, time.perf_counter,
        )

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = enter()
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(nid, sid, t0, perf())
                counts[key] += 1
                yield item

        return wrapper

    def _binding(self, key: str, truthy_key: str | None, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if truthy_key is not None and result:
                counts[truthy_key] += 1
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (name -> loaded ``safeset`` module)."""
        for modname, attr, name in SPANS:
            make = self._generator_span if name in GENERATORS else self._span
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[modname], cls_name)
                self._set(cls, meth, make(name, getattr(cls, meth)))
                continue
            original = getattr(modules[modname], attr)
            wrapper = make(name, original)
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, wrapper)
        for modname, attr, key, truthy_key in BINDINGS:
            module = modules[modname]
            self._set(module, attr, self._binding(key, truthy_key, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call: ``<span>.calls`` plus every hook and
        binding count.  Self times keep accumulating."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names)}
        out.update(self.counts)
        self.calls[:] = [0] * len(self.calls)
        self.counts.clear()
        return out

    @property
    def spans_seen(self) -> int:
        return self._next_sid

    def self_by_op(self) -> dict[int, dict[str, float]]:
        """Self time per (op, span name), recomputed from the stored spans.
        Only ops whose spans were all kept are complete."""
        child: dict[int, float] = {}
        for parent, t0, t1 in zip(self.span_parent, self.span_start, self.span_end):
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out: dict[int, dict[str, float]] = {}
        for sid, nid, op, t0, t1 in zip(
            self.span_id, self.span_name, self.span_op, self.span_start, self.span_end
        ):
            per = out.setdefault(op, {})
            name = self.names[nid]
            per[name] = per.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
        return out

    def op_durations(self) -> dict[int, float]:
        """Duration of each op whose root span was kept."""
        root = self._ids.get(OP)
        return {
            op: t1 - t0
            for nid, op, t0, t1 in zip(
                self.span_name, self.span_op, self.span_start, self.span_end
            )
            if nid == root
        }

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            for row in zip(
                self.span_id, self.span_parent, self.span_op,
                self.span_name, self.span_start, self.span_end,
            ):
                sid, parent, op, nid, t0, t1 = row
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")
