import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeset.preprocess
from safeset.cli import main
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
    components,
    components_mask,
    is_connected_safe_set,
    is_safe_set,
    mask_of,
)
from safeset.io import format_graph
from safeset.oracle import WitnessError, safe_number_bf
from safeset.preprocess import _approx_component, _guess_mask, approx_safe_set

from bruteforce import (
    degree_bound_check,
    highdegree_rule,
    ref_approx_witness,
    ref_bfs_order,
    ref_guess_mask,
)
from corpus import graph_corpus, shuffled, union_corpus


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


def test_approx_witness_is_a_connected_safe_set():
    # cw caps its connected tables at this size, which is sound only while
    # the set is connected, disconnected graphs included
    graphs = [g for _, g in graph_corpus(200)] + union_corpus()
    assert any(len(components(g, g.vertices())) > 1 for g in graphs)
    for g in graphs:
        assert is_connected_safe_set(g, approx_safe_set(g).witness)


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


def _sparse_graph(rng, n):
    """A uniform random recursive tree plus n further distinct edges, or as
    many as fit: the complete graph for n <= 4."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < min(2 * n - 1, n * (n - 1) // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


@pytest.mark.parametrize("n", range(1, 7))
def test_sparse_graph_is_connected_with_capped_edge_count(n):
    g = _sparse_graph(random.Random(n), n)
    assert g.n == n and len(g.edges) == min(2 * n - 1, n * (n - 1) // 2)
    assert len(components_mask(g, g.full_mask())) == 1


def _grid(rows, cols):
    return Graph(
        rows * cols,
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)],
    )


def _caterpillar(rng, spine, legs):
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + i) for i in range(legs)]
    return Graph(spine + legs, edges)


def _large_family_graphs():
    rng = random.Random(61)
    graphs = [path_graph(60), path_graph(150), cycle_graph(75), cycle_graph(140), star_graph(80)]
    graphs += [_grid(8, 8), _grid(6, 15), _grid(10, 12), _grid(12, 12)]
    graphs += [_caterpillar(rng, spine, legs) for spine, legs in [(30, 40), (50, 50), (40, 90), (70, 60)]]
    graphs += [_sparse_graph(rng, n) for n in (60, 70, 80, 90, 100, 110, 120, 130, 140, 150)]
    graphs += [random_connected_graph(rng, n, 0.02) for n in (90, 120)]
    return [shuffled(g, seed) for seed, g in enumerate(graphs)]


def test_approx_matches_reference_on_large_families():
    graphs = _large_family_graphs()
    assert len(graphs) == 25 and all(60 <= g.n <= 150 for g in graphs)
    for g in graphs:
        assert approx_safe_set(g).witness == ref_approx_witness(g)


# sha256 of repr(sorted witness), first 16 hex digits, for graphs drawn like
# the benchmark's approx-sparse pool; recorded before the single-walk guess.
SPARSE_PINS = {
    200: (86, "4dfd34dccfb90e25"),
    215: (98, "c9f2d9ab35df315e"),
    230: (109, "290230de567abc11"),
    245: (109, "06147c84e21658b6"),
    260: (122, "06b0acf7ce15e4e9"),
    275: (128, "fefc5e631469bfbb"),
    290: (132, "2b246ad835272fb0"),
    305: (144, "0ca7c508533a8a2a"),
    320: (150, "c059ab06710c50c5"),
    335: (156, "cc80a49544bc3eee"),
}


def test_approx_sparse_witnesses_are_pinned():
    rng = random.Random(16)
    for n, (size, digest) in SPARSE_PINS.items():
        w = sorted(approx_safe_set(_sparse_graph(rng, n)).witness)
        assert (len(w), hashlib.sha256(repr(w).encode()).hexdigest()[:16]) == (size, digest)


def _sparse_pin_graphs():
    rng = random.Random(16)
    return [_sparse_graph(rng, n) for n in SPARSE_PINS]


@pytest.mark.parametrize(
    "g",
    [path_graph(9), cycle_graph(12), random_connected_graph(random.Random(5), 30, 0.1)]
    + _sparse_pin_graphs(),
    ids=["path", "cycle", "random"] + [f"sparse{n}" for n in SPARSE_PINS],
)
def test_approx_guess_calls_stay_within_log_n_plus_half_the_size(g, monkeypatch):
    # The bisection probes at most ceil(log2 n) guesses, and a guess s that
    # swallows a block takes at least 2(s + 1) vertices.  A finished guess
    # is safe by construction, so none is verified.
    guesses, verified = [], []
    guess_mask = safeset.preprocess._guess_mask

    def counting_guess(*args):
        guesses.append(guess_mask(*args))
        return guesses[-1]

    def counting_verify(graph, members):
        verified.append(list(members))
        return is_safe_set(graph, members)

    monkeypatch.setattr(safeset.preprocess, "_guess_mask", counting_guess)
    monkeypatch.setattr(safeset.preprocess, "is_safe_set", counting_verify)
    r = approx_safe_set(g)
    assert r.size >= 2
    assert 0 < len(guesses) <= (g.n - 1).bit_length() + r.size // 2
    assert verified == []


def test_approx_unsafe_guess_raises_witness_error(monkeypatch, tmp_path, capsys):
    # {0} is unsafe in C8 and smaller than any real guess, so it wins
    monkeypatch.setattr(safeset.preprocess, "_guess_mask", lambda g, *args: 1)
    g = cycle_graph(8)
    with pytest.raises(WitnessError, match=r"approx reported \[0\]"):
        approx_safe_set(g)
    path = tmp_path / "c8.gr"
    path.write_text(format_graph(g))
    assert main(["solve", "--algo", "approx", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: WitnessError: approx reported [0]")


def test_approx_bound_starts_no_guess_that_cannot_win(monkeypatch):
    big = _sparse_graph(random.Random(3), 200)
    g = Graph(201, [(u + 1, v + 1) for u, v in big.edges])
    sizes = []
    guess_mask = safeset.preprocess._guess_mask

    def counting_guess(graph, *args):
        sizes.append(graph.n)
        return guess_mask(graph, *args)

    monkeypatch.setattr(safeset.preprocess, "_guess_mask", counting_guess)
    assert approx_safe_set(g).witness == frozenset({0})
    assert sizes == [1]


def test_approx_component_keeps_a_set_of_exactly_the_bound():
    graphs = [path_graph(9), cycle_graph(12), _grid(5, 6)]
    graphs += [_sparse_graph(random.Random(seed), 20 + seed) for seed in range(40)]
    for g in graphs:
        w = _approx_component(g, g.n)
        assert w == mask_of(ref_approx_witness(g))
        assert _approx_component(g, w.bit_count()) == w
        assert _approx_component(g, w.bit_count() - 1) is None


def test_approx_component_keeps_to_smaller_bounds():
    graphs = [path_graph(9), cycle_graph(12), _grid(5, 6)]
    graphs += [_sparse_graph(random.Random(seed), 20 + seed) for seed in range(40)]
    fits = cut = 0
    for g in graphs:
        w = mask_of(ref_approx_witness(g))
        for bound in {g.n // 2, g.n // 4, 1, 2, 3}:
            want = w if w.bit_count() <= bound else None
            assert _approx_component(g, bound) == want, (g.edges, bound)
            fits += want is not None
            cut += want is None
    assert fits > 0 and cut > 0


def test_approx_walk_count_bound(monkeypatch):
    g = _sparse_graph(random.Random(300), 300)
    started, reads, split = [0], [0], []
    guess_mask = safeset.preprocess._guess_mask

    class CountingMasks(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    def counting_guess(graph, *args):
        started[0] += 1
        masks = graph._masks
        graph._masks = CountingMasks(masks)
        try:
            return guess_mask(graph, *args)
        finally:
            graph._masks = masks

    monkeypatch.setattr(safeset.preprocess, "_guess_mask", counting_guess)
    monkeypatch.setattr(safeset.preprocess, "components_mask", lambda *a: split.append(a))
    approx_safe_set(g)
    # A guess expands each vertex at most once and reads each swallowed
    # vertex's mask once more for the border.
    assert started[0] >= 1
    assert 0 < reads[0] <= started[0] * 2 * g.n
    assert split == []


def _spider(legs, length):
    """`legs` paths of `length` vertices hanging off vertex 0."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph(1 + legs * length, edges)


def _guess_corpus():
    rng = random.Random(17)
    graphs = [path_graph(n) for n in (1, 2, 5, 12)] + [cycle_graph(n) for n in (3, 8, 15)]
    graphs += [star_graph(k) for k in (1, 4, 9)] + [complete_graph(n) for n in (2, 5, 8)]
    graphs += [_grid(3, 4), _grid(5, 5), _grid(4, 7)]
    graphs += [_spider(legs, length) for legs in (3, 5) for length in (2, 3, 4, 6)]
    graphs += [_sparse_graph(rng, n) for n in (20, 30, 40, 50, 60)]
    return graphs + [shuffled(g, seed) for seed, g in enumerate(graphs[-8:])]


def test_guess_mask_matches_the_bfs_order_walk():
    leftover_sizes, cut = set(), 0
    for g in _guess_corpus():
        order = ref_bfs_order(g, 0, g.full_mask())
        seed, border = 1 << order[0], g.adjacency_mask(order[0])
        for s in range(1, g.n):
            seed |= 1 << order[s]
            border |= g.adjacency_mask(order[s])
            sizes = {c.bit_count() for c in components_mask(g, g.full_mask() & ~seed)}
            leftover_sizes |= {size - s for size in sizes} & {0, 1}
            full = ref_guess_mask(g, s, seed, border, g.n)
            grown = full.bit_count()
            for limit in {g.n, grown - 1, (grown + seed.bit_count()) // 2}:
                want = ref_guess_mask(g, s, seed, border, limit)
                assert _guess_mask(g, s, seed, border, limit) == want
                cut += want is None
    # some leftover component has exactly s and some exactly s + 1 vertices
    assert leftover_sizes == {0, 1}
    assert cut > 0


def test_a_guess_that_swallows_nothing_stays_so_as_s_grows():
    # The bisection for the first such guess rests on this: the seeds are
    # nested, so the leftover components only shrink while s grows.
    flips = 0
    for g in _guess_corpus():
        order = ref_bfs_order(g, 0, g.full_mask())
        seed, border = 1 << order[0], g.adjacency_mask(order[0])
        alone = []
        for s in range(1, g.n):
            seed |= 1 << order[s]
            border |= g.adjacency_mask(order[s])
            alone.append(_guess_mask(g, s, seed, border, s + 1) is not None)
            leftover = components_mask(g, g.full_mask() & ~seed)
            assert alone[-1] == all(c.bit_count() <= s for c in leftover)
        assert alone == sorted(alone)
        assert alone[-1:] in ([], [True])
        flips += alone[:1] == [False]
    assert flips > 0


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
