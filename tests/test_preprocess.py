import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeset.preprocess
from safeset.generators import (
    all_connected_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.graph import Graph, InputError, components, is_safe_set
from safeset.oracle import safe_number_bf
from safeset.preprocess import approx_safe_set

from bruteforce import degree_bound_check, highdegree_rule, ref_approx_witness


def test_approx_star_is_tiny():
    r = approx_safe_set(star_graph(3))
    assert r.feasible and r.size <= 2
    assert is_safe_set(star_graph(3), r.witness)


def test_approx_cycle_and_path_meet_bound():
    g = cycle_graph(8)
    r = approx_safe_set(g)
    assert is_safe_set(g, r.witness)
    assert r.size <= 20  # oracle value 4, bound 4*5

    p = path_graph(4)
    r = approx_safe_set(p)
    assert is_safe_set(p, r.witness)
    assert r.size <= 6
    assert safe_number_bf(p).size == 2


def test_approx_empty_and_single():
    assert not approx_safe_set(Graph(0)).feasible
    r = approx_safe_set(Graph(1))
    assert r.feasible and r.witness == frozenset({0})


def test_approx_disconnected_takes_best_component():
    # an isolated vertex is a safe set of size 1 regardless of the rest
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    r = approx_safe_set(g)
    assert r.witness == frozenset({0})


def test_approx_is_deterministic():
    g = random_connected_graph(random.Random(7), 9, 0.3)
    assert approx_safe_set(g).witness == approx_safe_set(g).witness


def test_approx_bound_exhaustive_small():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            s = safe_number_bf(g).size
            r = approx_safe_set(g)
            assert is_safe_set(g, r.witness)
            assert r.size <= s * (s + 1)


def _seeded_graphs(count):
    rng = random.Random(2024)
    for i in range(count):
        n = rng.randint(1, 40)
        if i % 2:
            yield random_connected_graph(rng, n, rng.choice([0.0, 0.1, 0.4]))
        else:
            p = rng.choice([0.03, 0.06, 0.1, 0.2])
            yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_approx_matches_set_based_reference():
    disconnected = 0
    for g in _seeded_graphs(300):
        assert approx_safe_set(g).witness == ref_approx_witness(g)
        disconnected += len(components(g, g.vertices())) > 1
    assert 100 <= disconnected <= 200


@pytest.mark.parametrize(
    "g",
    [path_graph(9), cycle_graph(12), random_connected_graph(random.Random(5), 30, 0.1)],
    ids=["path", "cycle", "random"],
)
def test_approx_runs_size_minus_one_guesses(g, monkeypatch):
    calls = []

    def counting(graph, members):
        calls.append(len(members))
        return is_safe_set(graph, members)

    monkeypatch.setattr(safeset.preprocess, "is_safe_set", counting)
    r = approx_safe_set(g)
    assert r.size >= 2
    assert len(calls) == r.size - 1


@st.composite
def loose_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        if pairs
        else []
    )
    return Graph(n, picked)


@settings(max_examples=80, deadline=None)
@given(loose_graphs())
def test_approx_bound_property(g):
    r = approx_safe_set(g)
    assert is_safe_set(g, r.witness)
    s = safe_number_bf(g).size
    assert r.size <= s * (s + 1)


def test_highdegree_star_passes_with_center_forced():
    out = highdegree_rule(star_graph(5), 1)
    assert out.passed
    assert out.forced == frozenset({0})


def test_highdegree_two_hubs_refuse():
    # two degree-4 hubs over a shared leaf set: more forced vertices than k
    g = Graph(6, [(0, i) for i in range(2, 6)] + [(1, i) for i in range(2, 6)])
    out = highdegree_rule(g, 1)
    assert not out.passed
    assert "degree" in out.reason


def test_highdegree_cycle_passes_empty():
    out = highdegree_rule(cycle_graph(8), 2)
    assert out.passed
    assert out.forced == frozenset()


def test_highdegree_big_leftover_component_refuses():
    # k=1: forced = {hub}, bound (2k)^(2k) = 4; hang a 5-vertex path off a
    # degree-2k hub so the leftover component is too large
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert [v for v in g.vertices() if len(g.neighbors(v)) >= 2] == [
        0,
        1,
        2,
        3,
        4,
        5,
    ]
    out = highdegree_rule(g, 1)
    assert not out.passed


def test_rules_reject_bad_input():
    disconnected = Graph(4, [(0, 1)])
    with pytest.raises(InputError):
        highdegree_rule(disconnected, 1)
    with pytest.raises(InputError):
        degree_bound_check(disconnected, 1)
    with pytest.raises(InputError):
        highdegree_rule(cycle_graph(3), 0)
    with pytest.raises(InputError):
        degree_bound_check(cycle_graph(3), -1)
    with pytest.raises(InputError):
        highdegree_rule(Graph(0), 1)


def test_degree_bound_examples():
    assert not degree_bound_check(path_graph(100), 3).passed
    assert degree_bound_check(cycle_graph(8), 4).passed
    assert degree_bound_check(star_graph(9), 1).passed  # equality boundary


def test_rules_sound_exhaustive_small():
    # no rule may refuse an instance the oracle can solve within k
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            s = safe_number_bf(g).size
            for k in range(max(1, s), n + 1):
                assert highdegree_rule(g, k).passed
                assert degree_bound_check(g, k).passed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.1, 0.4, 0.8]),
)
def test_rules_sound_random(n, seed, extra):
    g = random_connected_graph(random.Random(seed), n, extra)
    s = safe_number_bf(g).size
    for k in range(s, g.n + 1):
        assert highdegree_rule(g, k).passed
        assert degree_bound_check(g, k).passed
