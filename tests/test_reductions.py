import itertools
import json
import random

import pytest

from safeset.generators import complete_graph, path_graph, star_graph
from safeset.graph import (
    Graph,
    InputError,
    PathDecomposition,
    is_connected_safe_set,
    is_safe_set,
    validate_path_decomposition,
)
from safeset import reductions
from safeset.io import decomposition_to_json
from safeset.oracle import dominating_set_bf, safe_number_bf
from safeset.reductions import (
    Bigraph,
    ds_forward_certificate,
    ds_path_decomposition,
    ds_target,
    ds_to_ss,
    rbds_forward_certificate,
    rbds_has_dominating_set,
    rbds_target,
    rbds_to_ss,
)

from bruteforce import ref_is_safe, ref_order_bags, vertex_cover_bf


def test_ds_target_frozen_values():
    assert ds_target(complete_graph(3), 1) == 13
    assert ds_target(path_graph(2), 1) == 7


def test_ds_rejects_bad_parameters():
    with pytest.raises(InputError):
        ds_to_ss(complete_graph(3), 0)
    with pytest.raises(InputError):
        ds_to_ss(Graph(1), 1)


def test_ds_vertex_count_matches_closed_form():
    for g, k in [(complete_graph(3), 1), (path_graph(2), 1), (path_graph(3), 2)]:
        out = ds_to_ss(g, k)
        kp = out.target
        assert kp == ds_target(g, k)
        n = g.n
        lines = k * n * n
        guards = n * k * (kp - n + 1)
        gadgets = sum(
            1
            + (kp - k * (len(g.neighbors(v)) + 1))
            + k * (len(g.neighbors(v)) + 1) * (1 + (kp - 1) + 1)
            for v in g.vertices()
        )
        assert out.graph.n == lines + guards + gadgets + 1
        assert len(out.role_map) == out.graph.n
        assert out.role_map[out.graph.n - 1] == {"role": "universal"}


def test_ds_certificate_k3():
    g = complete_graph(3)
    out = ds_to_ss(g, 1)
    s = ds_forward_certificate(g, {0}, out)
    assert len(s) == 13 == out.target
    assert is_safe_set(out.graph, s)
    assert is_connected_safe_set(out.graph, s)


def test_ds_certificate_p2():
    g = path_graph(2)
    out = ds_to_ss(g, 1)
    s = ds_forward_certificate(g, {0}, out)
    assert len(s) == 7 == out.target
    assert is_safe_set(out.graph, s)
    assert is_connected_safe_set(out.graph, s)


def test_ds_certificate_rejects_bad_sets():
    g = path_graph(3)
    out = ds_to_ss(g, 1)
    with pytest.raises(InputError, match="dominate"):
        ds_forward_certificate(g, {0}, out)
    out2 = ds_to_ss(g, 1)
    with pytest.raises(InputError, match="exceeds"):
        ds_forward_certificate(g, {0, 1}, out2)


def test_ds_certificate_pads_small_dominating_sets():
    # {1} dominates P3 already, so with k=2 the set is topped up to 2 members.
    g = path_graph(3)
    out = ds_to_ss(g, 2)
    s = ds_forward_certificate(g, {1}, out)
    assert len(s) == out.target
    assert is_safe_set(out.graph, s)


def test_order_sweep_matches_its_definition():
    rng = random.Random(18)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        order = rng.sample(range(n), n)
        pd = reductions._decomposition_of_order(g, order)
        assert [frozenset(b) for b in pd.bags] == ref_order_bags(g, order)
        assert isinstance(validate_path_decomposition(g, pd), int)
        assert len(pd.bags) == g.n


def test_decomposition_bags_are_sorted_tuples_of_distinct_vertices():
    assert PathDecomposition([[2, 1, 1]]).bags == ((1, 2),)
    assert PathDecomposition([{3, 0}, (), iter([5, 4])]).bags == ((0, 3), (), (4, 5))


def test_ds_decomposition_file_is_the_sorted_order_bags():
    for g, k in [(complete_graph(3), 1), (path_graph(2), 1), (star_graph(3), 2), (path_graph(4), 2)]:
        out = ds_to_ss(g, k)
        pd = ds_path_decomposition(out)
        # each bag adds one vertex: its place in the order the bags sweep
        sets = [frozenset(b) for b in pd.bags]
        order = [v for prev, bag in zip([frozenset()] + sets, sets) for v in bag - prev]
        assert sorted(order) == list(out.graph.vertices())
        expected = json.dumps([sorted(b) for b in ref_order_bags(out.graph, order)])
        assert decomposition_to_json(pd) == expected


def test_ds_decomposition_small_instances():
    for g, k in [(complete_graph(3), 1), (path_graph(2), 1), (star_graph(3), 1)]:
        out = ds_to_ss(g, k)
        pd = ds_path_decomposition(out)
        width = validate_path_decomposition(out.graph, pd)
        assert isinstance(width, int)
        assert width <= 2 * k + 4
        assert len(pd.bags) == out.graph.n


def test_ds_decomposition_bags_keep_leaves_with_their_neighbors():
    out = ds_to_ss(path_graph(2), 1)
    pd = ds_path_decomposition(out)
    universal = out.graph.n - 1
    leaf_roles = {"guard", "center_pad", "choice_pad", "release"}
    for vid, role in out.role_map.items():
        if role["role"] not in leaf_roles:
            continue
        nbrs = out.graph.neighbors(vid) - {universal}
        assert any(
            vid in bag and (nbrs & frozenset(bag)) for bag in pd.bags
        ), f"vertex {vid} never shares a bag with a gadget neighbor"


def test_ds_forward_soundness_small_sweep():
    # All connected base graphs on 3 vertices plus one on 4, k in {1, 2}.
    bases = [path_graph(3), complete_graph(3), path_graph(4)]
    for g in bases:
        for k in (1, 2):
            dom = dominating_set_bf(g, k)
            if dom is None:
                continue
            out = ds_to_ss(g, k)
            s = ds_forward_certificate(g, dom, out)
            assert len(s) == out.target
            assert is_connected_safe_set(out.graph, s)
            pd = ds_path_decomposition(out)
            width = validate_path_decomposition(out.graph, pd)
            assert isinstance(width, int) and width <= 2 * k + 4
            assert len(pd.bags) == out.graph.n


def _located(output, role):
    """The id that ``role``'s fields point to in ``output.ids``."""
    fields = {k: v for k, v in role.items() if k not in ("role", "idx")}
    entry = output.ids[role["role"]]
    if fields:
        key = tuple(fields.values())
        entry = entry[key[0] if len(key) == 1 else key]
    return entry[role["idx"]] if "idx" in role else entry


def _table_ids(entry):
    if isinstance(entry, int):
        return [entry]
    values = entry.values() if isinstance(entry, dict) else entry
    return [vid for value in values for vid in _table_ids(value)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ds_to_ss(path_graph(2), 1),
        lambda: ds_to_ss(star_graph(3), 2),
        lambda: ds_to_ss(Graph(4, [(0, 1), (1, 2)]), 3),
        lambda: rbds_to_ss(Bigraph(1, 1, frozenset({(0, 0)})), 1),
        lambda: rbds_to_ss(Bigraph(3, 2, frozenset({(0, 0), (2, 1)})), 2),
    ],
)
def test_role_map_matches_the_id_tables(build):
    # the sidecar writes the role map, and nothing in the package reads it
    # back, so this is what keeps it true to the construction
    out = build()
    assert sorted(out.role_map) == list(range(out.graph.n))
    for vid, role in out.role_map.items():
        assert _located(out, role) == vid, role
    tables = [entry for name, entry in out.ids.items() if name != "members"]
    assert sorted(vid for entry in tables for vid in _table_ids(entry)) == list(range(out.graph.n))


def test_bigraph_validation():
    with pytest.raises(InputError):
        Bigraph(1, 1, frozenset({(0, 1)}))
    with pytest.raises(InputError):
        Bigraph(-1, 2, frozenset())
    bg = Bigraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert bg.blues_of(0) == frozenset({0})


def test_rbds_single_edge_instance():
    bg = Bigraph(1, 1, frozenset({(0, 0)}))
    out = rbds_to_ss(bg, 1)
    assert out.target == 3 == rbds_target(bg, 1)
    assert out.graph.n == 18
    s = rbds_forward_certificate(bg, {0}, out)
    assert len(s) == 3
    assert is_connected_safe_set(out.graph, s)
    assert ref_is_safe(out.graph, set(s), connected=True)
    assert vertex_cover_bf(out.graph) <= 2 * bg.r + 1
    # the oracle agrees the target is reached exactly
    res = safe_number_bf(out.graph)
    assert res.size == 3


def test_rbds_shared_blue_instance():
    bg = Bigraph(2, 1, frozenset({(0, 0), (1, 0)}))
    out = rbds_to_ss(bg, 1)
    assert out.target == 4
    s = rbds_forward_certificate(bg, {0}, out)
    assert len(s) == 4
    assert is_connected_safe_set(out.graph, s)


def test_rbds_small_sets_get_padded_to_target():
    # With k=2 and a single blue dominating both reds, the bare hub+reds+blue
    # set has 4 members but sits next to star components of 5; padding to the
    # target size is what makes the verifier accept.
    bg = Bigraph(2, 1, frozenset({(0, 0), (1, 0)}))
    out = rbds_to_ss(bg, 2)
    assert out.target == 5
    hub = next(v for v, r in out.role_map.items() if r["role"] == "hub")
    reds = [v for v, r in out.role_map.items() if r["role"] == "red"]
    blue = next(v for v, r in out.role_map.items() if r["role"] == "blue")
    bare = {hub, blue, *reds}
    assert not is_safe_set(out.graph, bare)
    s = rbds_forward_certificate(bg, {0}, out)
    assert len(s) == 5
    assert bare <= s
    assert is_connected_safe_set(out.graph, s)


def test_rbds_certificate_rejects_bad_sets():
    bg = Bigraph(2, 2, frozenset({(0, 0), (1, 1)}))
    out = rbds_to_ss(bg, 1)
    with pytest.raises(InputError, match="dominate"):
        rbds_forward_certificate(bg, {0}, out)
    with pytest.raises(InputError, match="exceeds"):
        rbds_forward_certificate(bg, {0, 1}, out)
    with pytest.raises(InputError, match="range"):
        rbds_forward_certificate(bg, {5}, out)


def test_rbds_rejects_bad_parameters():
    bg = Bigraph(1, 1, frozenset({(0, 0)}))
    with pytest.raises(InputError):
        rbds_to_ss(bg, 0)
    with pytest.raises(InputError):
        rbds_to_ss(Bigraph(0, 1, frozenset()), 1)


def test_rbds_dominating_oracle():
    bg = Bigraph(1, 1, frozenset({(0, 0)}))
    assert rbds_has_dominating_set(bg, 1) == frozenset({0})
    lonely = Bigraph(2, 1, frozenset({(0, 0)}))
    assert rbds_has_dominating_set(lonely, 1) is None
    assert rbds_has_dominating_set(Bigraph(0, 3, frozenset()), 0) == frozenset()
    with pytest.raises(InputError):
        rbds_has_dominating_set(bg, -1)


def test_rbds_dominating_oracle_refuses_more_blues_than_cap():
    wide = Bigraph(1, 21, frozenset({(0, 20)}))
    with pytest.raises(InputError, match="cap=20"):
        rbds_has_dominating_set(wide, 21)
    assert rbds_has_dominating_set(wide, 21, cap=21) == frozenset({20})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ds_to_ss(path_graph(2), 1),
        lambda: ds_to_ss(complete_graph(3), 2),
        lambda: ds_to_ss(Graph(4, [(0, 1), (1, 2)]), 3),
        lambda: rbds_to_ss(Bigraph(1, 1, frozenset({(0, 0)})), 1),
        lambda: rbds_to_ss(Bigraph(3, 2, frozenset({(0, 0), (2, 1)})), 4),
        lambda: rbds_to_ss(Bigraph(2, 0, frozenset()), 2),
    ],
)
def test_generators_refuse_instances_beyond_the_vertex_cap(build, monkeypatch):
    # the size is worked out before anything is built, exactly: an instance
    # of the cap's size is built, one vertex more is refused
    n = build().graph.n
    monkeypatch.setattr(reductions, "MAX_VERTICES", n)
    assert build().graph.n == n
    monkeypatch.setattr(reductions, "MAX_VERTICES", n - 1)
    with pytest.raises(InputError, match=f"would have {n} vertices"):
        build()


def test_rbds_dominating_oracle_matches_graph_oracle():
    # Red-blue domination restricted to blues on the bipartite incidence
    # graph, cross-checked against an independent subset scan.
    for r, b in [(2, 2), (2, 3)]:
        blue_sets = list(itertools.product([0, 1], repeat=r * b))
        for bits in blue_sets[:40]:
            edges = frozenset(
                (i, j) for i in range(r) for j in range(b) if bits[i * b + j]
            )
            bg = Bigraph(r, b, edges)
            for k in (1, 2):
                got = rbds_has_dominating_set(bg, k)
                expect = None
                for size in range(1, k + 1):
                    for combo in itertools.combinations(range(b), size):
                        if all(bg.blues_of(i) & set(combo) for i in range(r)):
                            expect = frozenset(combo)
                            break
                    if expect is not None:
                        break
                assert got == expect
