import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeset.branching import (
    branch_solve,
    find_problematic,
    steiner_exact,
)
from safeset.generators import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.graph import (
    Graph,
    InputError,
    bfs_prefix,
    is_connected_safe_set,
    is_safe_set,
    mask_of,
    vertices_of,
)
from safeset.oracle import connected_safe_number_bf, safe_number_bf

from corpus import union_corpus
from bruteforce import ref_bfs_order, ref_components, ref_min_steiner


def test_steiner_single_terminal():
    assert steiner_exact(path_graph(4), {2}) == frozenset({2})


def test_steiner_path_endpoints():
    assert steiner_exact(path_graph(4), {0, 3}) == frozenset({0, 1, 2, 3})


def test_steiner_cycle_detour():
    # blocking one arc forces the long way around
    assert steiner_exact(cycle_graph(8), {0, 4}, {2}) == frozenset({0, 4, 5, 6, 7})


def test_steiner_unreachable_returns_none():
    assert steiner_exact(path_graph(4), {0, 3}, {1}) is None


def test_steiner_input_errors():
    with pytest.raises(InputError):
        steiner_exact(path_graph(4), set())
    with pytest.raises(InputError):
        steiner_exact(path_graph(4), {0, 1}, {1})
    with pytest.raises(InputError):
        steiner_exact(path_graph(4), {9})


def test_steiner_is_deterministic():
    g = cycle_graph(6)
    a = steiner_exact(g, {0, 3})
    b = steiner_exact(g, {0, 3})
    assert a == b
    # both arcs have 4 vertices; the tie must break to the smaller tuple
    assert a == frozenset({0, 1, 2, 3})


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_steiner_matches_reference(n, seed, data):
    g = random_connected_graph(random.Random(seed), n, 0.3)
    terms = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4)
    )
    forb = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3)
    )
    forb -= terms
    # the least minimum connected superset by (size, sorted ids), or None
    assert steiner_exact(g, terms, forb) == ref_min_steiner(g, terms, forb)


def _grid(rows, cols):
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph(rows * cols, edges)


def _steiner_graph(key):
    if key[0] == "cycle":
        return cycle_graph(key[1])
    if key[0] == "grid":
        return _grid(key[1], key[2])
    _, seed, n, extra = key
    return random_connected_graph(random.Random(seed), n, extra)


# steiner_exact results: (graph, terminals, forbidden, sorted witness or None).
# Cycles, grids and forbidden detours have several minimum trees, so these
# pin the tie-break toward the smallest sorted tuple, in the final answer
# and in every intermediate table entry.
PINNED_STEINER = [
    (('cycle', 6), (0, 3), (), [0, 1, 2, 3]),
    (('cycle', 8), (0, 4), (), [0, 1, 2, 3, 4]),
    (('cycle', 8), (0, 4), (2,), [0, 4, 5, 6, 7]),
    (('cycle', 10), (1, 6), (), [0, 1, 6, 7, 8, 9]),
    (('cycle', 10), (0, 3, 6), (), [0, 1, 2, 3, 4, 5, 6]),
    (('cycle', 12), (2, 8), (5,), [0, 1, 2, 8, 9, 10, 11]),
    (('cycle', 14), (0, 7), (), [0, 1, 2, 3, 4, 5, 6, 7]),
    (('cycle', 14), (3, 10), (12,), [3, 4, 5, 6, 7, 8, 9, 10]),
    (('cycle', 9), (0, 3, 6), (), [0, 1, 2, 3, 4, 5, 6]),
    (('cycle', 7), (1, 4), (6,), [1, 2, 3, 4]),
    (('grid', 3, 3), (0, 8), (), [0, 1, 2, 5, 8]),
    (('grid', 3, 4), (0, 11), (5,), [0, 1, 2, 3, 7, 11]),
    (('grid', 3, 4), (1, 10), (), [1, 2, 6, 10]),
    (('grid', 4, 3), (0, 2, 9, 11), (), [0, 1, 2, 3, 6, 9, 10, 11]),
    (('grid', 2, 7), (0, 13), (3,), [0, 1, 2, 9, 10, 11, 12, 13]),
    (('grid', 3, 4), (0, 3, 8), (5, 6), [0, 1, 2, 3, 4, 8]),
    (('random', 905, 14, 0.3), (0, 1, 5, 13), (), [0, 1, 2, 5, 6, 13]),
    (('random', 605, 10, 0.5), (2, 8), (), [1, 2, 7, 8]),
    (('random', 334, 13, 0.5), (3, 8, 10), (1,), [2, 3, 8, 10]),
    (('random', 429, 8, 0.5), (3, 6), (), [0, 3, 6]),
    (('random', 642, 8, 0.15), (1, 3, 4, 6), (), [0, 1, 3, 4, 6]),
    (('random', 675, 11, 0.5), (1, 3, 4, 5, 6), (), [0, 1, 3, 4, 5, 6]),
    (('random', 512, 14, 0.15), (1, 3, 11, 12, 13), (2, 4, 5, 9), [0, 1, 3, 11, 12, 13]),
    (('random', 549, 10, 0.3), (0, 1, 5, 9), (2, 4, 6, 7), [0, 1, 3, 5, 9]),
    (('random', 107, 13, 0.5), (8, 9), (6, 10), [0, 8, 9]),
    (('random', 951, 14, 0.3), (0, 3, 9, 13), (8, 12), [0, 1, 3, 5, 9, 13]),
    (('random', 215, 11, 0.3), (1, 2, 7, 8), (5, 10), [1, 2, 3, 7, 8]),
    (('random', 742, 13, 0.3), (2, 3, 5, 10), (8,), [1, 2, 3, 5, 10]),
    (('random', 763, 7, 0.5), (1, 3, 5), (), [0, 1, 3, 5]),
    (('random', 936, 12, 0.3), (3, 7), (2, 8), [3, 5, 7]),
    (('random', 886, 13, 0.5), (2, 3, 8, 9, 12), (1, 5), [2, 3, 8, 9, 12]),
    (('random', 145, 10, 0.0), (6, 9), (), [5, 6, 9]),
    (('random', 638, 8, 0.0), (0, 7), (1, 5), [0, 4, 7]),
    (('random', 670, 13, 0.3), (1, 3, 4, 5, 8), (), [1, 3, 4, 5, 8, 11]),
    (('random', 71, 6, 0.0), (0, 2, 3, 4, 5), (), [0, 2, 3, 4, 5]),
    (('random', 218, 6, 0.15), (3, 5), (), [3, 5]),
    (('random', 137, 7, 0.15), (0, 6), (1, 2, 4, 5), [0, 6]),
    (('random', 276, 6, 0.3), (1, 5), (0,), [1, 5]),
    (('random', 429, 12, 0.0), (4, 5, 10), (0, 8, 9), None),
    (('random', 490, 9, 0.0), (0, 3, 5, 8), (1, 2, 4, 6), None),
    # larger sparse graphs, each with another minimum tree of the same size
    (('grid', 6, 6), (18, 34), (), [18, 19, 20, 21, 22, 28, 34]),
    (('grid', 6, 6), (1, 3, 13, 16), (10, 28, 29), [1, 2, 3, 7, 9, 13, 15, 16]),
    (('grid', 6, 6), (0, 5, 29), (2, 6, 12, 17, 27),
     [0, 1, 4, 5, 7, 8, 9, 10, 16, 22, 23, 29]),
    (('random', 3001, 30, 0.05), (0, 7, 12), (), [0, 7, 8, 12, 23, 25, 28]),
    (('random', 3002, 30, 0.05), (2, 4, 8, 16), (0, 5, 10, 13, 17, 26),
     [2, 3, 4, 8, 9, 11, 16, 18, 27]),
    (('random', 6001, 60, 0.03), (32, 47, 58), (), [4, 21, 26, 32, 35, 47, 58]),
    (('random', 6002, 60, 0.03), (11, 19, 33, 41), (12, 23, 30, 32, 35, 45),
     [5, 11, 13, 19, 20, 33, 41, 42, 48]),
    (('random', 10001, 100, 0.02), (42, 66, 84), (), [6, 15, 24, 42, 66, 84, 90]),
    (('random', 10002, 100, 0.02), (38, 48, 80, 84), (40, 49, 62, 68, 86, 92),
     [0, 8, 25, 38, 43, 48, 69, 80, 84]),
    (('random', 20003, 200, 0.01), (5, 27, 57, 192),
     (6, 13, 15, 19, 29, 40, 76, 85, 96, 101, 138, 140, 147, 172, 174, 189, 193, 196, 198, 199),
     [5, 18, 27, 52, 57, 79, 122, 165, 186, 192]),
    (('random', 20004, 200, 0.01), (6, 25, 66),
     (14, 22, 36, 43, 44, 50, 60, 61, 65, 79, 100, 102, 111, 128, 129, 143, 158, 164, 169, 179),
     [6, 25, 48, 66, 91, 108, 152, 155, 157]),
    # a merged entry here outsizes the entries grown before it and must
    # still grow: a sweep that stops short of it answers with 10 vertices
    (('random', 860278, 19, 0.05), (1, 4, 7, 12), (0,), [1, 3, 4, 7, 8, 11, 12, 17]),
    # a tree whose forbidden vertices leave the terminals in parts of 25 and
    # 35 vertices: the pair tables across the cut and the full table stay empty
    (('random', 10077, 100, 0.0), (11, 13, 44), (15, 24, 29, 38, 56, 66, 67, 93, 96, 99), None),
]


def test_steiner_witnesses_are_pinned():
    for key, terms, forb, want in PINNED_STEINER:
        got = steiner_exact(_steiner_graph(key), set(terms), set(forb))
        assert (None if got is None else sorted(got)) == want, (key, terms, forb)


def test_find_problematic_initial_path():
    g = path_graph(10)
    assert find_problematic(g, (0,), (2,), 2) == (0, 2)


def test_find_problematic_cycle_case():
    g = cycle_graph(8)
    assert find_problematic(g, (mask_of({0}),), (4,), 4) == (1, 4)


def test_find_problematic_none_when_settled():
    g = cycle_graph(8)
    assert find_problematic(g, (mask_of({0, 1, 4, 5}),), (4,), 4) is None


def test_find_problematic_uses_tightest_threshold():
    # star center in s_1 with k_1=1: every leaf is adjacent, leaf components
    # are singletons; large surrounding component triggers the small bound
    g = path_graph(6)
    got = find_problematic(g, (mask_of({0}), 0), (1, 3), 4)
    assert got == (1, 1)


def _ref_problematic(g, sets, targets, k):
    """find_problematic's definition, vertex by vertex on plain sets."""
    parts = [set(vertices_of(s_i)) for s_i in sets]
    comps = ref_components(g, set(g.vertices()) - set().union(*parts))
    size = {v: len(c) for c in comps for v in c}
    for u in sorted(size):
        thresholds = [
            k_i for p, k_i in zip(parts, targets) if g.neighbors(u) & p and size[u] > k_i
        ]
        if size[u] > k:
            thresholds.append(k)
        if thresholds:
            return u, min(thresholds)
    return None


def test_find_problematic_matches_the_vertex_walk():
    rng = random.Random(8)
    found = 0
    for _ in range(400):
        g = random_connected_graph(rng, rng.randint(1, 12), rng.choice([0.0, 0.3, 0.8]))
        sets = [0] * rng.randint(1, 3)
        for v in rng.sample(range(g.n), rng.randint(0, g.n)):
            sets[rng.randrange(len(sets))] |= 1 << v
        targets = tuple(max(s_i.bit_count(), rng.randint(0, 4)) for s_i in sets)
        for k in (sum(targets), rng.randint(0, 8)):
            want = _ref_problematic(g, tuple(sets), targets, k)
            assert find_problematic(g, tuple(sets), targets, k) == want, (g.edges, sets, k)
            found += want is not None
    assert found > 200


def _expand(g, u, m, union):
    """Branch's expansion around the problematic vertex u: the first m + 1
    vertices of a BFS from u outside the partial solution ``union``."""
    return bfs_prefix(g, u, g.full_mask() & ~union, m + 1)[0]


def test_bfs_prefix_expansion_examples():
    assert _expand(path_graph(10), 0, 2, 0) == [0, 1, 2]
    assert _expand(cycle_graph(8), 1, 4, mask_of({0})) == [1, 2, 3, 4, 5]
    assert _expand(star_graph(3), 0, 1, 0) == [0, 1]


def test_bfs_prefix_expansion_is_a_bfs_order_prefix():
    rng = random.Random(161)
    graphs = union_corpus() + [random_connected_graph(rng, n, 0.15) for n in (8, 15, 25)]
    checked = 0
    for g in graphs:
        for _ in range(6):
            union = mask_of(v for v in g.vertices() if rng.random() < 0.3)
            outside = vertices_of(g.full_mask() & ~union)
            if not outside:
                continue
            u = rng.choice(outside)
            walk = ref_bfs_order(g, u, g.full_mask() & ~union)
            for m in range(len(walk) + 1):
                assert _expand(g, u, m, union) == walk[: m + 1]
                checked += 1
    assert checked > 500


def test_branch_star_and_cycle():
    r = branch_solve(star_graph(3), 1)
    assert r.feasible and r.witness == frozenset({0})
    assert branch_solve(cycle_graph(8), 4).size == 4
    assert not branch_solve(cycle_graph(8), 3).feasible


def test_branch_connected_variant():
    r = branch_solve(cycle_graph(8), 4, connected=True)
    assert r.size == 4
    assert is_connected_safe_set(cycle_graph(8), r.witness)


def test_branch_single_vertex_graph():
    r = branch_solve(Graph(1), 1)
    assert r.feasible and r.witness == frozenset({0})


def test_branch_whole_graph_fallback():
    # K_2 has safe number 1; a 2-vertex budget must not change the answer
    assert branch_solve(path_graph(2), 2).size == 1


def test_branch_disconnected_prefers_smallest():
    g = Graph(4, [(1, 2), (2, 3), (1, 3)])
    r = branch_solve(g, 2)
    assert r.witness == frozenset({0})


def test_branch_complete_graph():
    assert branch_solve(complete_graph(4), 4).size == 2
    assert branch_solve(complete_graph(4), 4, connected=True).size == 2


def test_branch_rejects_bad_budget():
    with pytest.raises(InputError):
        branch_solve(path_graph(3), 0)


def test_branch_matches_oracle_exhaustive_small():
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            assert branch_solve(g, n).size == safe_number_bf(g).size
            assert (
                branch_solve(g, n, connected=True).size
                == connected_safe_number_bf(g).size
            )


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.15, 0.4, 0.7]),
)
def test_branch_matches_oracle_random(n, seed, extra):
    g = random_connected_graph(random.Random(seed), n, extra)
    s = safe_number_bf(g).size
    r = branch_solve(g, g.n)
    assert r.size == s
    assert is_safe_set(g, r.witness)
    cs = connected_safe_number_bf(g).size
    rc = branch_solve(g, g.n, connected=True)
    assert rc.size == cs
    assert is_connected_safe_set(g, rc.witness)
    # an undersized budget is a definitive no
    if s > 1:
        assert not branch_solve(g, s - 1).feasible


# branch_solve witnesses, (plain, connected), each the same at k = optimum
# and k = optimum + 2 because sizes are tried in ascending order.  Ties
# between equally small sets are broken by the search order, so these pin
# that order too.
PINNED_RANDOM = {  # (seed, n, extra) of random_connected_graph
    (100, 8, 0.0): ([0, 7], [0, 7]),
    (101, 9, 0.1): ([0, 2, 7, 8], [0, 2, 7, 8]),
    (102, 10, 0.2): ([0, 2, 3], [0, 2, 3]),
    (103, 11, 0.3): ([0, 1, 2, 3, 10], [0, 1, 2, 3, 10]),
    (104, 12, 0.0): ([4, 7, 9], [4, 7, 9]),
    (105, 8, 0.1): ([0, 1, 5], [0, 1, 5]),
    (106, 9, 0.2): ([2, 6, 8], [2, 6, 8]),
    (107, 10, 0.3): ([0, 1, 2, 5], [0, 1, 2, 5]),
    (108, 11, 0.0): ([0, 5, 8], [0, 5, 8]),
    (109, 12, 0.1): ([0, 1, 5, 6], [0, 1, 5, 6]),
    (110, 8, 0.2): ([0, 2, 5], [0, 2, 5]),
    (111, 9, 0.3): ([0, 1, 2, 4], [0, 1, 2, 4]),
    (112, 10, 0.0): ([0, 2, 3], [0, 2, 3]),
    (113, 11, 0.1): ([2, 3, 8, 9], [2, 3, 8, 9]),
    (114, 12, 0.2): ([2, 5, 6, 10], [2, 5, 6, 10]),
    (115, 8, 0.3): ([0, 1, 2], [0, 1, 2]),
    (116, 9, 0.0): ([1, 2], [1, 2]),
    (117, 10, 0.1): ([0, 5, 7], [0, 5, 7]),
    (118, 11, 0.2): ([2, 6, 8, 9], [2, 6, 8, 9]),
    (119, 12, 0.3): ([0, 1, 3, 5, 10], [0, 1, 3, 5, 10]),
}
PINNED_UNIONS = [  # in union_corpus() order
    ([1, 2], [1, 2]),
    ([1, 4], [1, 4]),
    ([7], [7]),
    ([0, 5], [0, 5]),
    ([2], [2]),
    ([4], [4]),
    ([0, 2, 4], [0, 2, 4]),
    ([0, 1, 2], [0, 1, 2]),
    ([0, 2, 5], [0, 2, 5]),
    ([7], [7]),
    ([2, 10], [2, 10]),
]


def test_branch_witnesses_are_pinned():
    cases = [
        (random_connected_graph(random.Random(seed), n, extra), want)
        for (seed, n, extra), want in PINNED_RANDOM.items()
    ]
    cases += list(zip(union_corpus(), PINNED_UNIONS, strict=True))
    for g, wants in cases:
        for connected, want in zip((False, True), wants):
            opt = len(want)
            for k in (opt, opt + 2):
                assert sorted(branch_solve(g, k, connected).witness) == want
