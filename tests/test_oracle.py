"""Brute-force oracle behavior and the frozen reference values."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeset.branching import branch_solve
from safeset.generators import (
    complete_graph,
    cycle_graph,
    cycle_with_apex,
    empty_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.graph import Graph, InputError, is_connected_safe_set, is_safe_set, max_degree
from safeset.nd import solve_nd
from safeset.oracle import (
    WitnessError,
    connected_safe_number_bf,
    dominating_set_bf,
    safe_number_bf,
    solve_by_component,
    subset_masks_by_size,
    verified_result,
)
from safeset.preprocess import approx_safe_set

from bruteforce import ref_safe_number, treedepth_bf, vertex_cover_bf


def test_subset_enumeration_order():
    masks = list(subset_masks_by_size(3))
    assert masks == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


def test_safe_number_cycle8():
    r = safe_number_bf(cycle_graph(8))
    assert r.feasible and r.size == 4
    assert is_safe_set(cycle_graph(8), r.witness)
    rc = connected_safe_number_bf(cycle_graph(8))
    assert rc.size == 4
    assert is_connected_safe_set(cycle_graph(8), rc.witness)


def test_safe_number_star():
    r = safe_number_bf(star_graph(12))
    assert r.size == 1 and r.witness == frozenset({0})
    rc = connected_safe_number_bf(star_graph(12))
    assert rc.size == 1 and rc.witness == frozenset({0})


def test_safe_number_path4():
    # 15 nonempty subsets, minimum safe set has 2 vertices
    assert safe_number_bf(path_graph(4)).size == 2
    assert ref_safe_number(path_graph(4)) == 2


def test_safe_number_deterministic_witness():
    g = cycle_graph(8)
    a = safe_number_bf(g).witness
    b = safe_number_bf(g).witness
    assert a == b


def test_safe_number_empty_graph_infeasible():
    r = safe_number_bf(Graph(0))
    assert not r.feasible and r.size is None and r.witness is None


def test_safe_number_disconnected_takes_best_component():
    # one isolated vertex next to a triangle: single vertex wins
    g = Graph(4, [(1, 2), (2, 3), (1, 3)])
    r = safe_number_bf(g)
    assert r.size == 1 and r.witness == frozenset({0})


def test_cap_enforced():
    with pytest.raises(InputError, match="cap"):
        safe_number_bf(empty_graph(25))
    assert safe_number_bf(empty_graph(25), cap=25).size == 1


def test_apex_cycle_connected_safe_number():
    # 8-cycle plus an apex adjacent to two opposite vertices: the apex's
    # closed neighborhood is a connected safe set, so the value is at most 3
    g = cycle_with_apex(8, (0, 4))
    assert is_connected_safe_set(g, {8, 0, 4})
    r = connected_safe_number_bf(g)
    assert r.feasible and r.size <= 3
    assert r.size == ref_safe_number(g, connected=True)


def test_treedepth_values():
    assert treedepth_bf(Graph(1)) == 1
    assert treedepth_bf(empty_graph(5)) == 1
    assert treedepth_bf(path_graph(4)) == 3
    assert treedepth_bf(path_graph(2)) == 2
    assert treedepth_bf(complete_graph(4)) == 4
    with pytest.raises(InputError):
        treedepth_bf(empty_graph(15))


def test_vertex_cover_values():
    assert vertex_cover_bf(cycle_graph(8)) == 4
    assert vertex_cover_bf(star_graph(3)) == 1
    assert vertex_cover_bf(empty_graph(4)) == 0


def test_dominating_set_values():
    assert dominating_set_bf(star_graph(12), 1) == frozenset({0})
    assert dominating_set_bf(cycle_graph(8), 2) is None
    assert len(dominating_set_bf(cycle_graph(8), 3)) == 3
    assert dominating_set_bf(Graph(0), 0) == frozenset()
    with pytest.raises(InputError):
        dominating_set_bf(path_graph(3), -1)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.sampled_from([0.1, 0.3, 0.6]))
    return random_connected_graph(random.Random(seed), n, extra)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_safe_vs_connected_safe_bounds(g):
    s = safe_number_bf(g).size
    cs = connected_safe_number_bf(g).size
    assert s <= cs <= 2 * s - 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_treedepth_at_most_twice_safe_number(g):
    assert treedepth_bf(g) <= 2 * safe_number_bf(g).size


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_safe_number_at_most_vertex_cover(g):
    assert safe_number_bf(g).size <= vertex_cover_bf(g)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_size_bound_via_safe_number(g):
    s = safe_number_bf(g).size
    assert g.n <= s + s * s * max_degree(g)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_oracle_matches_reference_enumeration(g):
    assert safe_number_bf(g).size == ref_safe_number(g)
    assert connected_safe_number_bf(g).size == ref_safe_number(g, connected=True)


def test_verified_result_rejects_unsafe_witness():
    with pytest.raises(WitnessError, match="larger neighbor"):
        verified_result(path_graph(3), [0], "t", False, 0.0)
    with pytest.raises(WitnessError, match="splits into components"):
        verified_result(path_graph(3), [0, 2], "t", True, 0.0)
    res = verified_result(path_graph(3), [1], "t", True, 0.0)
    assert res.feasible and res.size == 1 and res.witness == frozenset({1})
    assert not verified_result(path_graph(3), None, "t", False, 0.0).feasible


def test_solve_by_component_passes_bound_and_maps_ids():
    # two triangles and a pendant pair; ids interleave across components
    g = Graph(8, [(0, 3), (3, 6), (0, 6), (1, 4), (4, 7), (1, 7), (2, 5)])
    seen = []

    def solve(sub, bound):
        seen.append((sub.n, bound))
        return [0] if sub.n == 2 else [0, 1]

    res = solve_by_component(g, solve, "t", False, limit=2)
    assert seen == [(3, 2), (3, 2), (2, 2)]
    assert res.witness == frozenset({2})


def test_solve_by_component_copies_only_real_components():
    seen = []

    def solve(sub, bound):
        seen.append(sub)
        return list(sub.vertices())

    star = star_graph(3)
    solve_by_component(star, solve, "t", False)
    assert len(seen) == 1 and seen[0] is star

    seen.clear()
    res = solve_by_component(Graph(5, [(0, 3), (3, 4), (1, 2)]), solve, "t", False)
    assert seen == [path_graph(3), path_graph(2)]
    assert res.witness == frozenset({1, 2})


def test_check_survives_optimized_mode():
    script = (
        "from safeset.generators import path_graph\n"
        "from safeset.oracle import WitnessError, solve_by_component\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    solve_by_component(path_graph(3), lambda sub, b: [0], 't', False)\n"
        "except WitnessError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "raised\n"


# Two paths on four vertices with interleaved ids: 4-0-6-3 and 2-1-7-5.
# The oracle breaks ties between components on the global mask, the other
# routes on the sorted witness, so the winning component differs.  Under
# sorted order the oracle would answer {0, 3} (plain) and {0, 4} (connected).
INTERLEAVED_P4S = Graph(8, [(0, 4), (0, 6), (1, 2), (1, 7), (3, 6), (5, 7)])


def test_cross_component_tie_breaks():
    g = INTERLEAVED_P4S
    assert safe_number_bf(g).witness == {1, 2}
    assert connected_safe_number_bf(g).witness == {1, 2}
    assert solve_nd(g).witness == {4, 6}
    assert solve_nd(g, connected=True).witness == {3, 6}
    assert branch_solve(g, 8).witness == {0, 4}
    assert branch_solve(g, 8, connected=True).witness == {0, 4}
    assert approx_safe_set(g).witness == {0, 4, 6}
