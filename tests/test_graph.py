"""Core verifier and decomposition checks."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeset.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.graph import (
    DecompositionViolation,
    Graph,
    InputError,
    PathDecomposition,
    bfs_order,
    bfs_prefix,
    components,
    components_mask,
    explain_safety,
    induced_subgraph,
    is_connected_safe_mask,
    is_connected_safe_set,
    is_safe_mask,
    is_safe_set,
    mask_of,
    max_degree,
    precedes,
    validate_path_decomposition,
    vertices_of,
)

from corpus import union_corpus
from bruteforce import ref_adjacent, ref_bfs_order, ref_components, ref_is_safe


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(-1)


def test_generators_reject_bad_sizes_with_input_error():
    with pytest.raises(InputError, match="at least 3"):
        cycle_graph(2)
    with pytest.raises(InputError, match="at least one"):
        random_connected_graph(random.Random(0), 0)


def test_components_path():
    g = path_graph(4)
    assert components(g, {0, 1, 3}) == [frozenset({0, 1}), frozenset({3})]


def test_components_cycle_complement():
    g = cycle_graph(8)
    rest = set(range(8)) - {0, 1, 4, 5}
    assert components(g, rest) == [frozenset({2, 3}), frozenset({6, 7})]


def test_components_star_minus_center_are_singletons():
    g = star_graph(300)
    assert components_mask(g, g.full_mask() ^ 1) == [1 << v for v in range(1, 301)]


def test_components_range_check():
    with pytest.raises(InputError):
        components(path_graph(3), {0, 5})


# the paths 1-2-3-4-5 and 0-6; S = {0, 1, 2, 3} splits into {0} and
# {1, 2, 3}, and its leftover into {4, 5} and {6}
TWO_PART = [(1, 2), (2, 3), (3, 4), (4, 5), (0, 6)]
# a path of six vertices with no edge to the rest
FAR_PATH = [(7, 8), (8, 9), (9, 10), (10, 11), (11, 12)]


def test_bfs_prefix_and_bfs_order_match_the_reference_walk():
    rng = random.Random(19)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.2, 0.35, 0.6])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        start = rng.randrange(n)
        allowed = mask_of(v for v in g.vertices() if rng.random() < 0.7) | 1 << start
        walk = ref_bfs_order(g, start, allowed)
        assert list(bfs_order(g, start, allowed)) == walk
        for count in range(1, n + 2):
            prefix, pmask = bfs_prefix(g, start, allowed, count)
            assert prefix == walk[:count]
            assert pmask == mask_of(prefix)
            checked += len(walk) > count
    assert checked > 200
    with pytest.raises(InputError):
        list(bfs_order(path_graph(3), 0, 0b110))


def test_precedes_is_the_order_of_size_then_sorted_ids():
    subsets = [c for k in range(7) for c in itertools.combinations(range(6), k)]
    for a in subsets:
        for b in subsets:
            want = (len(a), sorted(a)) < (len(b), sorted(b))
            assert precedes(mask_of(a), mask_of(b)) is want, (a, b)


def test_safe_set_star():
    g = star_graph(3)
    assert is_safe_set(g, {0}) is True
    # a single leaf leaves the remaining star of 3 vertices next to it
    assert is_safe_set(g, {1}) is False
    # the 2-vertex leftover {4, 5} touches only {1, 2, 3}, and {6} only {0}
    two_part = Graph(7, TWO_PART)
    assert is_safe_mask(two_part, 0b1111) is True
    # {4, 5} also touching {0} outgrows that component
    assert is_safe_mask(Graph(7, TWO_PART + [(0, 5)]), 0b1111) is False
    # a leftover component larger than |S| that touches no vertex of S
    far = Graph(13, TWO_PART + FAR_PATH)
    assert is_safe_mask(far, 0b1111) is True
    assert is_safe_mask(two_part, 0) is False
    assert is_safe_mask(two_part, two_part.full_mask()) is True
    assert is_safe_mask(far, far.full_mask()) is True
    assert is_safe_mask(Graph(0), 0) is False


def test_safe_set_cycle_examples():
    g = cycle_graph(8)
    assert is_safe_set(g, {0, 1, 4, 5}) is True
    # no 3 vertices of the 8-cycle are safe
    for combo in itertools.combinations(range(8), 3):
        assert is_safe_set(g, set(combo)) is False


def test_safe_set_empty_and_range():
    g = path_graph(3)
    assert is_safe_set(g, set()) is False
    with pytest.raises(InputError):
        is_safe_set(g, {7})


def test_connected_safe_set():
    g = cycle_graph(8)
    assert is_connected_safe_set(g, {0, 1, 4, 5}) is False  # two components
    assert is_connected_safe_set(g, {0, 1, 2, 3}) is True
    assert is_safe_set(g, {0, 1, 2, 3}) is True


def test_explain_safety():
    g = star_graph(3)
    v = explain_safety(g, {1})
    assert v is not None and v.kind == "larger-neighbor"
    assert v.component == (1,)
    assert v.neighbor == (0, 2, 3)
    assert explain_safety(g, {0}) is None
    assert explain_safety(g, set()).kind == "empty"
    w = explain_safety(cycle_graph(8), {0, 1, 4, 5}, connected=True)
    assert w is not None and w.kind == "disconnected"
    # S = {3} + {4}.  {3} has the larger neighbors {5, 6} and {7, 8, 9};
    # {4} has {0, 1, 2}, the leftover component with the smallest id.  The
    # report takes S's components in id order, then the leftover ones.
    g = Graph(10, [(0, 1), (1, 2), (2, 4), (3, 5), (5, 6), (3, 7), (7, 8), (8, 9)])
    v = explain_safety(g, {3, 4})
    assert (v.kind, v.component, v.neighbor) == ("larger-neighbor", (3,), (5, 6))


def test_max_degree():
    assert max_degree(star_graph(3)) == 3
    assert max_degree(Graph(5)) == 0
    assert max_degree(Graph(0)) == 0


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, ids = induced_subgraph(g, {1, 2, 4})
    assert ids == [1, 2, 4]
    assert sub.n == 3
    assert sub.edges == frozenset({(0, 1)})


def _random_graph(seed: int) -> Graph:
    """Seeded graph on up to 12 vertices, often disconnected."""
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])


def test_adjacency_queries_agree_with_edges():
    for seed in range(40):
        g = _random_graph(seed)
        degrees = [0] * g.n
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        for v in g.vertices():
            assert g.neighbors(v) == {w for e in g.edges if v in e for w in e if w != v}
            assert len(g.neighbors(v)) == degrees[v]
            for w in g.vertices():
                assert g.has_edge(v, w) is ((min(v, w), max(v, w)) in g.edges)
        assert max_degree(g) == max(degrees, default=0)


def test_induced_subgraph_matches_edge_filter():
    graphs = [_random_graph(seed) for seed in range(40)] + union_corpus()
    for seed, g in enumerate(graphs):
        rng = random.Random(seed)
        keeps = [{v for v in g.vertices() if rng.random() < 0.6}]
        keeps += components(g, g.vertices())
        for keep in keeps:
            sub, ids = induced_subgraph(g, keep)
            index = {v: i for i, v in enumerate(ids)}
            assert ids == sorted(keep)
            assert sub.edges == {
                (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
            }


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, picked)


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_components_partition_and_connectivity(g, data):
    within = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n))
    assert components(g, within) == [frozenset(c) for c in ref_components(g, within)]
    comps = components(g, set(g.vertices()))
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
        # every component is internally connected: BFS reaches all of it
        start = min(c)
        reach = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w in c and w not in reach:
                    reach.add(w)
                    queue.append(w)
        assert reach == c
    assert seen == set(g.vertices())
    # no edges between distinct components
    for a, b in itertools.combinations(comps, 2):
        assert not ref_adjacent(g, a, b)


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_verifier_matches_reference(g, data):
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n))
    assert is_safe_set(g, subset) == ref_is_safe(g, subset)
    assert is_connected_safe_set(g, subset) == ref_is_safe(g, subset, connected=True)


def test_connected_safe_mask_examples():
    g = cycle_graph(8)
    assert is_connected_safe_mask(g, 0b1111) is True
    assert is_connected_safe_mask(g, 0b110011) is False  # two components
    assert is_connected_safe_mask(g, 0b11) is False  # next to a path of six
    assert is_connected_safe_mask(g, 0) is False
    assert is_connected_safe_mask(Graph(1), 1) is True
    assert is_connected_safe_mask(g, g.full_mask()) is True
    # S = {1, 2, 3}: the leftover {4, 5} fits, {0, 6} does not touch S
    two_part = Graph(7, TWO_PART)
    assert is_connected_safe_mask(two_part, 0b1110) is True
    assert is_connected_safe_mask(two_part, 0b1111) is False  # {0} is apart
    assert is_connected_safe_mask(two_part, 0b110) is False  # {3, 4, 5} is larger
    far = Graph(13, TWO_PART + FAR_PATH)
    assert is_connected_safe_mask(far, 0b1110) is True
    assert is_connected_safe_mask(far, far.full_mask()) is False


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_connected_safe_mask_agrees_with_explain_safety(g, data):
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n))
    expect = explain_safety(g, subset, connected=True) is None
    assert is_connected_safe_mask(g, mask_of(subset)) is expect
    assert is_connected_safe_set(g, subset) is expect


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_mask_verifiers_agree_with_the_report_and_the_reference():
    graphs = [g for n in range(6) for g in _all_graphs(n)]
    graphs += [g for g in union_corpus() if g.n <= 10]
    for g in graphs:
        for smask in range(1 << g.n):
            subset = set(vertices_of(smask))
            for connected, decide in ((False, is_safe_mask), (True, is_connected_safe_mask)):
                expect = ref_is_safe(g, subset, connected=connected)
                assert decide(g, smask) is expect, (g.edges, subset, connected)
                assert (explain_safety(g, subset, connected) is None) is expect


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_connected_safe_implies_safe(g):
    for subset in itertools.combinations(range(g.n), min(3, g.n)):
        if is_connected_safe_set(g, set(subset)):
            assert is_safe_set(g, set(subset))


def test_size_bound_on_connected_graphs():
    # for connected g and any verified safe set s: n <= |s| + |s|^2 * maxdeg
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        d = max_degree(g)
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                if is_safe_set(g, set(combo)):
                    assert g.n <= size + size * size * d
            else:
                continue


def test_validate_path_decomposition_accepts():
    g = path_graph(4)
    pd = PathDecomposition([{0, 1}, {1, 2}, {2, 3}])
    assert validate_path_decomposition(g, pd) == 2
    trivial = PathDecomposition([set(range(4))])
    assert validate_path_decomposition(g, trivial) == 4


def test_validate_path_decomposition_violations():
    g = path_graph(3)
    v = validate_path_decomposition(g, PathDecomposition([{0, 1}, {2}]))
    assert isinstance(v, DecompositionViolation)
    assert v.condition == "edge-coverage"
    assert v.witness == (1, 2)

    v = validate_path_decomposition(g, PathDecomposition([{0, 1}, {1, 2}, {0}]))
    assert v.condition == "contiguity"
    assert v.witness == (0,)

    v = validate_path_decomposition(g, PathDecomposition([{0, 1}]))
    assert v.condition == "vertex-coverage"
    assert v.witness == (2,)

    with pytest.raises(InputError):
        validate_path_decomposition(g, PathDecomposition([{0, 9}]))


def test_validate_checks_order_first_violation():
    # both an uncovered vertex and an uncovered edge: vertex coverage reported
    g = path_graph(3)
    v = validate_path_decomposition(g, PathDecomposition([{0}]))
    assert v.condition == "vertex-coverage"


def test_complete_graph_decomposition_bound():
    g = complete_graph(4)
    pd = PathDecomposition([set(range(4))])
    assert validate_path_decomposition(g, pd) == 4
