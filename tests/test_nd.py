import itertools
import math
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeset.generators import (
    all_connected_graphs,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from safeset.branching import branch_solve
from safeset.graph import (
    Graph,
    explain_safety,
    is_connected_safe_mask,
    is_connected_safe_set,
    is_safe_mask,
    is_safe_set,
    mask_of,
    vertices_of,
)
from safeset import nd
from safeset.nd import (
    assemble_ip,
    build_families,
    enumerate_guesses,
    prefix_masks,
    solve_ip,
    solve_nd,
    twin_partition,
)
from safeset.oracle import connected_safe_number_bf, safe_number_bf

from corpus import disjoint_union, twin_blowup, union_corpus
from bruteforce import ref_count_program, ref_is_safe, vertex_cover_bf

# A guess spelled out per class, first class first.
EMPTY, PARTIAL, FULL = "empty", "partial", "full"


def test_twin_partition_complete_graph():
    tp = twin_partition(complete_graph(5))
    assert tp.width == 1
    assert tp.cliques == 0b1
    assert tp.classes[0] == 0b11111


def test_twin_partition_complete_bipartite():
    tp = twin_partition(complete_bipartite_graph(2, 3))
    assert tp.width == 2
    assert tp.cliques == 0
    assert tp.masks == (0b10, 0b01)


def test_twin_partition_cycles_are_all_singletons():
    tp = twin_partition(cycle_graph(5))
    assert tp.width == 5
    assert all(c.bit_count() == 1 for c in tp.classes)


def test_twin_partition_diamond():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    tp = twin_partition(g)
    assert sorted(map(vertices_of, tp.classes)) == [[0, 3], [1, 2]]
    by_class = {c: tp.cliques >> a & 1 for a, c in enumerate(tp.classes)}
    assert by_class[0b1001] == 0  # independent
    assert by_class[0b0110] == 1  # clique
    assert tp.masks == (0b10, 0b01)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        if pairs
        else []
    )
    return Graph(n, picked)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_twin_partition_invariants(g):
    tp = twin_partition(g)
    seen = 0
    for a, cls in enumerate(tp.classes):
        assert not (cls & seen)
        seen |= cls
        members = vertices_of(cls)
        for u, v in itertools.combinations(members, 2):
            assert g.neighbors(u) - {v} == g.neighbors(v) - {u}
            assert g.has_edge(u, v) == (tp.cliques >> a & 1 == 1)
        if len(members) == 1:
            assert not tp.cliques >> a & 1  # a clique has two or more members
    assert seen == g.full_mask()
    assert tp.cliques < 1 << tp.width
    firsts = [vertices_of(cls)[0] for cls in tp.classes]
    assert firsts == sorted(firsts)
    for a in range(tp.width):
        for b in range(a + 1, tp.width):
            crossings = {
                g.has_edge(u, v)
                for u in vertices_of(tp.classes[a])
                for v in vertices_of(tp.classes[b])
            }
            assert len(crossings) == 1
            assert crossings == {tp.masks[a] >> b & 1 == 1}
            # the classes are maximal: representatives of two are not twins
            u, v = firsts[a], firsts[b]
            assert g.neighbors(u) - {v} != g.neighbors(v) - {u}


def test_twin_partition_perfect_matching():
    n = 4000
    tp = twin_partition(Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
    assert tp.classes == tuple(0b11 << 2 * i for i in range(n // 2))
    assert tp.cliques == (1 << n // 2) - 1
    assert tp.masks == (0,) * (n // 2)


def test_guess_enumeration_skips_impossible():
    tp = twin_partition(complete_graph(4))
    guesses = list(enumerate_guesses(tp))
    assert [_spelled(g, tp.width) for g in guesses] == [(PARTIAL,), (FULL,)]
    tp2 = twin_partition(path_graph(2))  # one clique class of size 2
    assert [_spelled(g, tp2.width) for g in enumerate_guesses(tp2)] == [(PARTIAL,), (FULL,)]
    # the masks spell the choice; a class in neither mask is EMPTY
    assert _spelled((0b100, 0b001, 0), 3) == (PARTIAL, EMPTY, FULL)


def _spelled(guess, width):
    """The (full, partial, vertices) guess spelled out over ``width``
    classes."""
    full, partial, _ = guess
    return tuple(
        FULL if full >> i & 1 else PARTIAL if partial >> i & 1 else EMPTY for i in range(width)
    )


def _guess(tp, assignment):
    """The guess that spells ``assignment``, built from the class masks."""
    full = mask_of(i for i, a in enumerate(assignment) if a == FULL)
    partial = mask_of(i for i, a in enumerate(assignment) if a == PARTIAL)
    vertices = reduce(or_, (cls for cls, a in zip(tp.classes, assignment) if a == FULL), 0)
    return full, partial, vertices


def _floor(tp, assignment):
    return sum(
        cls.bit_count() if a == FULL else int(a == PARTIAL)
        for cls, a in zip(tp.classes, assignment)
    )


def _product_walk(tp):
    """The unpruned walk: every valid guess in itertools.product order."""
    options = [
        (EMPTY, PARTIAL, FULL) if cls.bit_count() >= 2 else (EMPTY, FULL)
        for cls in tp.classes
    ]
    return [c for c in itertools.product(*options) if any(a != EMPTY for a in c)]


WALK_GRAPHS = [
    complete_bipartite_graph(2, 3),
    path_graph(5),
    star_graph(4),
    Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]),
    random_connected_graph(random.Random(3), 8, 0.4),
]


@pytest.mark.parametrize("g", WALK_GRAPHS)
def test_pruned_walk_is_the_product_order_subsequence(g):
    tp = twin_partition(g)
    walk = _product_walk(tp)
    assert [_spelled(x, tp.width) for x in enumerate_guesses(tp)] == walk
    for bound in range(g.n + 2):
        got = [_spelled(x, tp.width) for x in enumerate_guesses(tp, lambda b=bound: b)]
        assert got == [c for c in walk if _floor(tp, c) < bound]


@pytest.mark.parametrize("g", WALK_GRAPHS)
def test_pruned_walk_rereads_a_falling_bound(g):
    # lower the bound after each guess, as _component_best does
    tp = twin_partition(g)
    limit = math.inf
    got = []
    for guess in enumerate_guesses(tp, lambda: limit):
        got.append(_spelled(guess, tp.width))
        limit = min(limit, _floor(tp, got[-1]) + 1)
    want, limit = [], math.inf
    for c in _product_walk(tp):
        if _floor(tp, c) < limit:
            want.append(c)
            limit = min(limit, _floor(tp, c) + 1)
    assert got == want


def test_build_families_bipartite_both_partial():
    tp = twin_partition(complete_bipartite_graph(2, 3))
    guess = _guess(tp, (PARTIAL, PARTIAL))
    assert build_families(tp, guess) == [0b11]


def test_build_families_star_full_empty():
    g = star_graph(3)
    tp = twin_partition(g)
    center = next(i for i, c in enumerate(tp.classes) if c & 1)
    leaves = 1 - center
    assignment = [None, None]
    assignment[center] = FULL
    assignment[leaves] = EMPTY
    guess = _guess(tp, tuple(assignment))
    # one block, a lone independent class
    assert build_families(tp, guess) == [1 << center]
    assert not tp.cliques >> center & 1


def test_build_families_clique_self_loop():
    tp = twin_partition(complete_graph(4))
    # one block, a clique class by itself
    assert build_families(tp, _guess(tp, (PARTIAL,))) == [0b1]
    assert tp.cliques == 0b1


def _search(g, tp, box, connected, cap=math.inf):
    """solve_ip on the count bounds ``box`` of one guess, with the verifier
    _component_best uses."""
    verify = is_connected_safe_mask if connected else is_safe_mask
    return solve_ip(*box, prefix_masks(tp), lambda mask: verify(g, mask), cap)


def test_k4_program_reaches_two():
    g = complete_graph(4)
    tp = twin_partition(g)
    box = assemble_ip(tp, _guess(tp, (PARTIAL,)), False)
    assert box == ([1], [3])
    assert _search(g, tp, box, False) == 0b11


def test_assemble_ip_holds_the_connected_rule():
    # K_{2,3} has two independent classes, {0, 1} and {2, 3, 4}
    tp = twin_partition(complete_bipartite_graph(2, 3))
    assert assemble_ip(tp, _guess(tp, (PARTIAL, PARTIAL)), True) == ([1, 1], [1, 2])
    # one class alone is made of single vertices: capped at one vertex, and
    # rejected when taken whole
    assert assemble_ip(tp, _guess(tp, (PARTIAL, EMPTY)), True) == ([1, 0], [1, 0])
    assert assemble_ip(tp, _guess(tp, (EMPTY, PARTIAL)), True) == ([0, 1], [0, 1])
    assert assemble_ip(tp, _guess(tp, (FULL, EMPTY)), True) is None
    assert assemble_ip(tp, _guess(tp, (FULL, EMPTY)), False) == ([2, 0], [2, 0])
    # two classes with no edge between them are two blocks
    g = disjoint_union(complete_graph(2), complete_graph(3))
    tp = twin_partition(g)
    assert assemble_ip(tp, _guess(tp, (PARTIAL, PARTIAL)), True) is None
    assert assemble_ip(tp, _guess(tp, (PARTIAL, PARTIAL)), False) == ([1, 1], [1, 2])


def test_prefix_masks_take_each_class_in_sorted_order():
    g = Graph(5, [(0, 2), (0, 4), (1, 2), (1, 4)])  # classes {0, 1}, {2, 4}, {3}
    tp = twin_partition(g)
    assert prefix_masks(tp) == [[0, 0b1, 0b11], [0, 0b100, 0b10100], [0, 0b1000]]


def _fixed_count_graphs():
    rand = [
        random_connected_graph(random.Random(seed), 1 + seed % 9, (0.0, 0.2, 0.4, 0.7)[seed % 4])
        for seed in range(300, 324)
    ]
    bipartite = [complete_bipartite_graph(a, b) for a in range(1, 4) for b in range(a, 5)]
    multipartite = [_multipartite(p) for p in [(2, 2, 2), (1, 2, 3), (3, 3, 1), (1, 1, 4), (2, 3)]]
    split = [
        _split(3, ((0,), (0,), (1, 2), (1, 2))),
        _split(4, ((0, 1), (0, 1), (2,), (3,))),
        _split(2, ((0,), (0,), (0,), (1,), (1,))),
    ]
    unions = [
        disjoint_union(path_graph(3), cycle_graph(4)),
        disjoint_union(Graph(1), Graph(1), path_graph(2)),
        disjoint_union(complete_bipartite_graph(2, 2), star_graph(3)),
        disjoint_union(complete_graph(3), complete_graph(3), Graph(1)),
    ]
    return rand + bipartite + multipartite + split + unions


def test_guess_vertex_mask_is_the_union_of_its_full_classes():
    checked = 0
    for g in WALK_GRAPHS + _fixed_count_graphs():
        tp = twin_partition(g)
        for guess in enumerate_guesses(tp):
            assert not guess[0] & guess[1]
            full = [cls for cls, a in zip(tp.classes, _spelled(guess, tp.width)) if a == FULL]
            assert guess[2] == reduce(or_, full, 0), (g.edges, guess)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("connected", [False, True])
def test_fixed_count_guess_program_agrees_with_verifier(connected):
    # a guess with no PARTIAL class fixes every class count, and solve_nd
    # then asks the verifier about the union of the FULL classes instead of
    # building the program; both must accept exactly the same guesses
    verify = is_connected_safe_set if connected else is_safe_set
    checked = 0
    for g in _fixed_count_graphs():
        tp = twin_partition(g)
        for guess in enumerate_guesses(tp):
            if guess[1]:
                continue
            box = assemble_ip(tp, guess, connected)
            full = vertices_of(
                reduce(or_, (c for c, a in zip(tp.classes, _spelled(guess, tp.width)) if a == FULL))
            )
            got = None if box is None else _search(g, tp, box, connected)
            assert (got is not None) == verify(g, full), (
                g.edges, _spelled(guess, tp.width),
            )
            checked += 1
    assert checked > 1000


def _blowup(rng):
    """A random connected graph on 1-4 vertices with each vertex replaced by
    a clique or an independent set of 1-5 vertices, and each edge by all
    edges between the two replacements: few twin classes, most of them
    large."""
    h = random_connected_graph(rng, rng.randint(1, 4), rng.choice([0.0, 0.3, 0.7]))
    parts, edges, off = [], [], 0
    for _ in range(h.n):
        size = rng.randint(1, 5)
        parts.append(range(off, off + size))
        if rng.random() < 0.5:
            edges += itertools.combinations(parts[-1], 2)
        off += size
    for u, v in h.edges:
        edges += [(a, b) for a in parts[u] for b in parts[v]]
    return Graph(off, edges)


def _box(tp, assignment):
    """Per-class count bounds of a guess: FULL the whole class, PARTIAL 1
    to size - 1, EMPTY 0."""
    sizes = [cls.bit_count() for cls in tp.classes]
    lo = [n if a == FULL else int(a == PARTIAL) for n, a in zip(sizes, assignment)]
    hi = [n if a == FULL else n - 1 if a == PARTIAL else 0 for n, a in zip(sizes, assignment)]
    return lo, hi


@pytest.mark.parametrize("connected", [False, True])
def test_solve_ip_matches_the_count_enumeration(connected):
    # the same total and the same set as trying every count vector of the
    # guess's box on the set-based verifier; a guess assemble_ip rejects
    # (not one block, or a lone class taken twice) has none
    rng = random.Random(12)
    programs = feasible = 0
    for _ in range(60):
        g = _blowup(rng)
        tp = twin_partition(g)
        for guess in enumerate_guesses(tp):
            box = assemble_ip(tp, guess, connected)
            got = None if box is None else _search(g, tp, box, connected)
            lo, hi = _box(tp, _spelled(guess, tp.width))
            want = ref_count_program(g, tp.classes, lo, hi, connected)
            assert got == want, (g.edges, _spelled(guess, tp.width))
            if box is None:
                continue
            programs += 1
            if got is not None:
                feasible += 1
                assert sum(lo) <= got.bit_count() <= sum(hi)
                assert ref_is_safe(g, vertices_of(got), connected)
    assert programs > 500 and feasible > 100, (programs, feasible)


@pytest.mark.parametrize("connected", [False, True])
def test_solve_ip_finds_no_total_above_the_cap(connected):
    # a capped program gives the uncapped answer when its total fits and
    # None otherwise, also when every count is fixed
    rng = random.Random(13)
    fixed = cut = 0
    for _ in range(40):
        g = _blowup(rng)
        tp = twin_partition(g)
        for guess in enumerate_guesses(tp):
            box = assemble_ip(tp, guess, connected)
            full = None if box is None else _search(g, tp, box, connected)
            if full is None:
                continue
            lo, hi = box
            fixed += lo == hi
            for cap in range(sum(lo) - 1, full.bit_count() + 1):
                got = _search(g, tp, box, connected, cap)
                assert got == (full if full.bit_count() <= cap else None), (g.edges, cap)
                cut += got is None
    assert fixed > 0 and cut > 0, (fixed, cut)

@pytest.mark.parametrize("connected", [False, True])
def test_raising_a_count_keeps_an_accepted_set_accepted(connected):
    # the assumption solve_ip rests on, checked on the set-based verifier:
    # it tests every count at hi first and drops a prefix that fails with
    # the later counts at hi
    rng = random.Random(5)
    raised = 0
    for _ in range(40):
        g = _blowup(rng)
        tp = twin_partition(g)
        ordered = [vertices_of(cls) for cls in tp.classes]
        for guess in enumerate_guesses(tp):
            if not guess[1]:
                continue
            bounds = assemble_ip(tp, guess, connected)
            if bounds is None:
                continue
            lo, hi = bounds
            box = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
            accepted = {
                counts
                for counts in box
                if ref_is_safe(
                    g, {v for cls, c in zip(ordered, counts) for v in cls[:c]}, connected
                )
            }
            for counts in accepted:
                for i in range(tp.width):
                    if counts[i] < hi[i]:
                        up = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                        assert up in accepted, (g.edges, _spelled(guess, tp.width), counts, i)
                        raised += 1
    assert raised > 1000, raised


def test_twin_free_graph_solves_no_program(monkeypatch):
    calls = []
    monkeypatch.setattr(nd, "solve_ip", lambda *args: calls.append(args) or solve_ip(*args))
    g = cycle_graph(9)
    assert twin_partition(g).width == 9
    assert solve_nd(g).size == solve_nd(g, connected=True).size == 5
    assert calls == []
    solve_nd(complete_bipartite_graph(2, 3))  # partial classes still go through it
    assert calls


def _blown_path(sizes):
    """A path with vertex i blown up into an independent class of
    ``sizes[i]`` vertices, numbered class by class; consecutive classes are
    fully joined."""
    parts, off = [], 0
    for size in sizes:
        parts.append(range(off, off + size))
        off += size
    return Graph(off, [(a, b) for x, y in zip(parts, parts[1:]) for a in x for b in y])


# verifier calls of one solve_nd, (plain, connected)
VERIFIER_CALLS = [
    (complete_graph(4), (3, 3)),
    (complete_bipartite_graph(2, 3), (7, 7)),
    (complete_bipartite_graph(3, 4), (11, 11)),
    (_blown_path([2, 2, 2]), (3, 6)),
    (_blown_path([2, 3, 3, 2]), (39, 30)),
]


def _verifier_calls(monkeypatch):
    """The list that every verifier call nd makes is appended to."""
    calls = []
    for name in ("is_safe_mask", "is_connected_safe_mask"):
        verify = getattr(nd, name)
        monkeypatch.setattr(
            nd, name, lambda sub, mask, verify=verify: calls.append(mask) or verify(sub, mask)
        )
    return calls


@pytest.mark.parametrize("g,want", VERIFIER_CALLS)
def test_verifier_calls_are_pinned(g, want, monkeypatch):
    # every count vector the search tries is one call; the set it accepts
    # is not checked again
    calls = _verifier_calls(monkeypatch)
    got = []
    for connected in (False, True):
        calls.clear()
        solve_nd(g, connected=connected)
        got.append(len(calls))
    assert tuple(got) == want


# solve_nd on twin_blowup(b, t): (witness, verifier calls), plain then
# connected.  Width 5 or 6 (two base vertices may be twins themselves).
PINNED_TWIN_BLOWUP = {
    (0, 3): (([0, 1, 2, 3, 4, 5, 9], 696), ([0, 1, 2, 3, 4, 5, 9], 663)),
    (0, 4): (([0, 1, 2, 3, 4, 5, 6, 7, 12], 1792), ([0, 1, 2, 3, 4, 5, 6, 7, 12], 1759)),
    (1, 3): (([0, 1, 2, 9, 10, 11], 1095), ([0, 1, 2, 9, 10, 11], 1025)),
    (1, 4): (([0, 1, 2, 3, 12, 13, 14, 15], 2715), ([0, 1, 2, 3, 12, 13, 14, 15], 2644)),
    (2, 3): (([3, 4, 5, 9, 10, 11], 368), ([3, 4, 5, 9, 10, 11], 255)),
    (2, 4): (([4, 5, 6, 7, 12, 13, 14, 15], 923), ([4, 5, 6, 7, 12, 13, 14, 15], 789)),
}


@pytest.mark.parametrize("b,t", PINNED_TWIN_BLOWUP)
def test_twin_blowup_witnesses_and_calls_are_pinned(b, t, monkeypatch):
    g = twin_blowup(b, t)
    assert 5 <= twin_partition(g).width <= 6
    calls = _verifier_calls(monkeypatch)
    for connected, want in zip((False, True), PINNED_TWIN_BLOWUP[b, t]):
        calls.clear()
        got = solve_nd(g, connected=connected)
        assert (sorted(got.witness), len(calls)) == want, connected
        if t == 3:  # n = 18 is within the oracle's reach
            oracle = connected_safe_number_bf(g) if connected else safe_number_bf(g)
            assert got.size == oracle.size, connected


@pytest.mark.parametrize("connected", [False, True])
def test_component_best_finds_no_set_above_its_bound(connected, monkeypatch):
    # The reference is the same walk with every count search run to
    # completion, whatever the bound.
    def uncapped(lo, hi, prefixes, accepts, cap):
        return solve_ip(lo, hi, prefixes, accepts)

    rng = random.Random(47)
    graphs = [complete_graph(4)]
    graphs += [
        random_connected_graph(rng, rng.randint(3, 10), rng.choice([0.1, 0.4, 0.8]))
        for _ in range(120)
    ]
    assert nd._component_best(complete_graph(4), connected, 1) is None
    over = 0
    for g in graphs:
        for bound in range(1, g.n + 1):
            got = nd._component_best(g, connected, bound)
            with monkeypatch.context() as patch:
                patch.setattr(nd, "solve_ip", uncapped)
                want = nd._component_best(g, connected, bound)
            if want is not None and want.bit_count() > bound:
                over += 1
                want = None
            assert got == want, (g.edges, bound)
    assert over > 0

def test_solve_nd_known_values():
    assert solve_nd(cycle_graph(8)).size == 4
    assert solve_nd(complete_graph(4)).size == 2
    assert solve_nd(star_graph(3)).size == 1
    assert solve_nd(star_graph(3), connected=True).size == 1
    assert not solve_nd(Graph(0)).feasible


def test_solve_nd_complete_split_graphs_match_oracle():
    for m in range(1, 4):
        for n in range(m, 5):
            g = complete_bipartite_graph(m, n)
            assert solve_nd(g).size == safe_number_bf(g).size
            assert (
                solve_nd(g, connected=True).size
                == connected_safe_number_bf(g).size
            )


def test_solve_nd_disconnected():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    r = solve_nd(g)
    assert r.witness == frozenset({0})
    rc = solve_nd(g, connected=True)
    assert rc.witness == frozenset({0})


def test_solve_nd_matches_oracle_exhaustive_small():
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            assert solve_nd(g).size == safe_number_bf(g).size
            assert (
                solve_nd(g, connected=True).size
                == connected_safe_number_bf(g).size
            )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.15, 0.4, 0.8]),
)
def test_solve_nd_matches_oracle_random(n, seed, extra):
    g = random_connected_graph(random.Random(seed), n, extra)
    assert solve_nd(g).size == safe_number_bf(g).size
    assert solve_nd(g, connected=True).size == connected_safe_number_bf(g).size


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_twin_choice_independence(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, 0.4)
    r = solve_nd(g)
    tp = twin_partition(g)
    counts = [(mask_of(r.witness) & cls).bit_count() for cls in tp.classes]
    for _ in range(10):
        swapped = set()
        for cls, want in zip(tp.classes, counts):
            swapped.update(rng.sample(vertices_of(cls), want))
        assert is_safe_set(g, swapped)
        assert len(swapped) == r.size


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_nd_bounded_by_vertex_cover(n, seed):
    g = random_connected_graph(random.Random(seed), n, 0.3)
    nd = twin_partition(g).width
    vc = vertex_cover_bf(g)
    assert nd <= 2**vc + vc


def _multipartite(parts):
    """Complete multipartite graph with the given part sizes."""
    blocks, edges, off = [], [], 0
    for p in parts:
        blocks.append(range(off, off + p))
        off += p
    for a, b in itertools.combinations(blocks, 2):
        edges += [(u, v) for u in a for v in b]
    return Graph(off, edges)


def _split(clique, attach):
    """Clique 0..clique-1 plus one independent vertex per entry of
    ``attach``, joined to the listed clique vertices."""
    edges = list(itertools.combinations(range(clique), 2))
    for i, nbrs in enumerate(attach):
        edges += [(clique + i, u) for u in nbrs]
    return Graph(clique + len(attach), edges)


# solve_nd witnesses, (plain, connected).  Ties between equally small sets
# are broken by the guess order, so these pin that order too.
PINNED_RANDOM = {  # (seed, n, extra) of random_connected_graph
    (0, 10, 0.15): ([6, 7, 8, 9], [6, 7, 8, 9]),
    (1, 11, 0.4): ([2, 5, 6, 7, 10], [2, 5, 6, 7, 10]),
    (2, 12, 0.4): ([0, 2, 3, 7], [0, 2, 3, 7]),
    (3, 10, 0.15): ([1, 3, 5, 9], [1, 3, 5, 9]),
    (4, 11, 0.7): ([0, 3, 5, 7, 9], [0, 3, 5, 7, 9]),
    (5, 12, 0.7): ([6, 7, 8, 9, 10, 11], [6, 7, 8, 9, 10, 11]),
    (6, 10, 0.15): ([2, 8, 9], [2, 8, 9]),
    (7, 11, 0.4): ([5, 6, 8, 9, 10], [5, 6, 8, 9, 10]),
    (8, 12, 0.4): ([1, 5, 7, 8, 11], [1, 5, 7, 8, 11]),
    (9, 10, 0.15): ([3, 7, 8, 9], [3, 7, 8, 9]),
    (10, 11, 0.7): ([3, 6, 7, 8, 9], [3, 6, 7, 8, 9]),
    (11, 12, 0.7): ([6, 7, 8, 9, 10, 11], [6, 7, 8, 9, 10, 11]),
    (12, 10, 0.15): ([6, 7, 8, 9], [6, 7, 8, 9]),
    (13, 11, 0.4): ([3, 6, 7, 8, 9], [3, 6, 7, 8, 9]),
    (14, 12, 0.4): ([0, 2, 4, 5, 7], [0, 2, 4, 5, 7]),
    (15, 10, 0.15): ([6, 7, 8, 9], [6, 7, 8, 9]),
    (16, 11, 0.7): ([1, 3, 5, 7, 9], [1, 3, 5, 7, 9]),
    (17, 12, 0.7): ([6, 7, 8, 9, 10, 11], [6, 7, 8, 9, 10, 11]),
    (18, 10, 0.15): ([4, 6], [4, 6]),
    (19, 11, 0.4): ([3, 6, 7, 9, 10], [3, 6, 7, 9, 10]),
}
PINNED_BIPARTITE = {  # (a, b) of complete_bipartite_graph
    (1, 3): ([0], [0]),
    (2, 2): ([2, 3], [0, 2]),
    (2, 3): ([0, 1], [0, 2, 3]),
    (3, 3): ([0, 3, 4], [0, 3, 4]),
    (2, 5): ([0, 1], [0, 1, 2]),
    (4, 4): ([0, 4, 5, 6], [0, 4, 5, 6]),
    (3, 6): ([0, 1, 2], [0, 1, 2, 3]),
}
PINNED_MULTIPARTITE = {  # part sizes
    (2, 2, 2): ([2, 4, 5], [2, 4, 5]),
    (1, 2, 3): ([0, 3, 4], [0, 3, 4]),
    (3, 3, 1): ([0, 1, 3, 4], [0, 1, 3, 4]),
    (2, 3, 4): ([0, 1, 2, 5, 6], [0, 1, 2, 5, 6]),
    (1, 1, 4, 4): ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
}
PINNED_SPLIT = {  # (clique, attach) of _split
    (3, ((0,), (0,), (1, 2), (1, 2))): ([1, 2, 5], [1, 2, 5]),
    (4, ((0, 1), (0, 1), (0, 1), (2,), (3,))): ([0, 1, 3], [0, 1, 3]),
    (2, ((0,), (0,), (0,), (1,), (1,))): ([0, 1], [0, 1]),
    (5, ((0, 1, 2), (0, 1, 2), (3, 4), (3, 4), (4,))): ([0, 1, 3, 4], [0, 1, 3, 4]),
}


# Blow-ups whose winning guesses have a PARTIAL class, so the count search
# picks these witnesses: the seed of _blowup(random.Random(seed)).
PINNED_BLOWUP = {
    9: ([0, 1, 2, 3, 5, 6], [0, 1, 2, 3, 5, 6]),  # n=12
    12: ([0, 1, 2, 5], [0, 1, 2, 5]),  # n=11
    17: ([0, 1, 2, 3, 14, 15], [0, 1, 2, 3, 14, 15]),  # n=16
    27: ([0, 1, 2, 3, 7, 8], [0, 1, 2, 3, 7, 8]),  # n=12
    35: ([3, 4, 5, 6, 7], [0, 1, 3, 4, 5, 6]),  # n=11
    44: ([0, 1, 2, 3, 4, 5, 8, 9], [0, 1, 2, 3, 4, 5, 8, 9]),  # n=15
    65: ([5, 9, 10, 11, 12], [5, 9, 10, 11, 12]),  # n=13
    75: ([0, 1, 2, 3, 4, 10], [0, 1, 2, 3, 4, 10]),  # n=11
    84: ([8, 9, 10, 11, 12], [0, 8, 9, 10, 11, 12]),  # n=13
    88: ([0, 6, 10, 11], [0, 6, 10, 11]),  # n=12
    134: ([9, 10, 11, 12, 13, 14], [0, 9, 10, 11, 12, 13, 14]),  # n=15
    195: ([3, 4, 10, 11], [0, 5, 6, 10, 11]),  # n=12
}


PINNED_UNIONS = [  # in union_corpus() order
    ([2, 9], [1, 9]),
    ([4, 9], [1, 9]),
    ([7], [7]),
    ([4, 6], [4, 6]),
    ([2], [2]),
    ([4], [4]),
    ([4, 7, 12], [3, 6, 13]),
    ([1, 2, 9], [1, 2, 9]),
    ([5, 6, 14], [5, 6, 14]),
    ([7], [7]),
    ([10, 16], [2, 10]),
]


def test_nd_witnesses_are_pinned():
    cases = [
        (random_connected_graph(random.Random(seed), n, extra), want)
        for (seed, n, extra), want in PINNED_RANDOM.items()
    ]
    cases += [(complete_bipartite_graph(*ab), w) for ab, w in PINNED_BIPARTITE.items()]
    cases += [(_multipartite(p), w) for p, w in PINNED_MULTIPARTITE.items()]
    cases += [(_split(*key), w) for key, w in PINNED_SPLIT.items()]
    cases += list(zip(union_corpus(), PINNED_UNIONS, strict=True))
    for g, (plain, conn) in cases:
        assert sorted(solve_nd(g).witness) == plain
        assert sorted(solve_nd(g, connected=True).witness) == conn
    for seed, (plain, conn) in PINNED_BLOWUP.items():
        g = _blowup(random.Random(seed))
        tp = twin_partition(g)
        for connected, want in ((False, plain), (True, conn)):
            got = solve_nd(g, connected=connected)
            assert sorted(got.witness) == want, (seed, connected)
            oracle = connected_safe_number_bf(g) if connected else safe_number_bf(g)
            assert got.size == oracle.size, (seed, connected)
        # the witness of at least one mode meets some class only in part
        assert any(
            0 < (mask_of(w) & cls).bit_count() < cls.bit_count()
            for w in (plain, conn)
            for cls in tp.classes
        ), seed


# Beyond the n <= 8 corpora: (seed, n, extra) of random_connected_graph.
# branch's cost grows steeply with the optimum (an n=12 graph at extra 0.7
# has optimum 6 and takes about 2 s), so n=12 stops at extra 0.4.
BEYOND_EIGHT = [
    (1000, 10, 0.15), (1001, 10, 0.4), (1002, 10, 0.7), (1003, 10, 0.7),
    (1004, 11, 0.15), (1005, 11, 0.4), (1006, 11, 0.7), (1007, 11, 0.4),
    (1008, 12, 0.15), (1009, 12, 0.4), (1010, 12, 0.15), (1011, 12, 0.4),
]


@pytest.mark.parametrize("seed,n,extra", BEYOND_EIGHT)
@pytest.mark.parametrize("connected", [False, True])
def test_nd_and_branch_match_oracle_beyond_eight(seed, n, extra, connected):
    g = random_connected_graph(random.Random(seed), n, extra)
    oracle = connected_safe_number_bf(g) if connected else safe_number_bf(g)
    nd = solve_nd(g, connected=connected)
    branch = branch_solve(g, oracle.size, connected=connected)
    assert nd.size == branch.size == oracle.size
    assert explain_safety(g, nd.witness, connected) is None
    assert explain_safety(g, branch.witness, connected) is None
