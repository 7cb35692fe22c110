import random
from itertools import product

import pytest

import cyclehom.comb
from cyclehom.comb import (
    DegreeSignature,
    _low_high,
    hom_alt_cycle_comb,
    hom_two_paths,
    integer_ceil_root,
    path_table_high,
    path_table_low,
)
from cyclehom.graphs import Digraph, Graph, GraphError
from cyclehom.matmul import hom_alt_cycle_matmul
from cyclehom.ops import OpCounter
from cyclehom.oracle import hom_count_brute
from cyclehom.pipeline import _oriented_pair
from cyclehom.ring import pack, slot_mask, slot_width
from cyclehom.walks import (
    WalkPair,
    WeightedDigraph,
    build_walk_weights,
    restrict_view,
    union_in_degrees,
)


def alternating_cycle(half_length):
    """Labeled alternating orientation: sources at even, sinks at odd ids."""
    arcs = []
    n = 2 * half_length
    for i in range(half_length):
        u = 2 * i
        arcs.append((u, (u + 1) % n))
        arcs.append((u, (u - 1) % n))
    return Digraph.from_arcs(n, arcs)


def random_dag(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Digraph.from_arcs(n, arcs)


def weights(d):
    return build_walk_weights(d, 1)


CHERRY = Digraph.from_arcs(3, [(0, 1), (0, 2)])  # 0 -> 1, 0 -> 2


def test_low_table_cherry_example():
    w = weights(CHERRY)
    table = path_table_low(w, r=1, delta=3).entries
    assert table == {(1, 2): 1, (2, 1): 1, (1, 1): 1, (2, 2): 1}


def test_low_table_single_edge():
    w = weights(Digraph.from_arcs(2, [(0, 1)]))
    table = path_table_low(w, r=1, delta=2).entries
    assert table == {(1, 1): 1}


def test_low_table_edgeless():
    w_empty = build_walk_weights(Digraph.from_arcs(3, []), 1)
    assert path_table_low(w_empty, r=1, delta=3).entries == {}
    w = weights(Digraph.from_arcs(2, [(0, 1)]))
    # the single arc supports exactly one 2-step alternating path map
    assert path_table_low(w, r=2, delta=3).entries == {(1, 1): 1}
    # a low threshold of 0 kills the interior sink
    assert path_table_low(w, r=2, delta=0).entries == {}


def test_high_table_cherry_all_high():
    w = weights(CHERRY)
    high = path_table_high(w, r=1, delta=0, signature=(True,)).entries
    assert high[(1, 2)] == 1
    assert high[(2, 1)] == 1
    assert high[(1, 1)] == 1
    assert high[(2, 2)] == 1
    low_sig = path_table_high(w, r=1, delta=0, signature=(False,)).entries
    assert low_sig == {}


def test_high_table_threshold_above_degrees_empty():
    w = weights(CHERRY)
    assert path_table_high(w, r=1, delta=5, signature=(True,)).entries == {}
    assert path_table_high(w, r=1, delta=5, signature=(False,)).entries == {}


def test_high_table_single_edge():
    w = weights(Digraph.from_arcs(2, [(0, 1)]))
    high = path_table_high(w, r=1, delta=0, signature=(True,)).entries
    assert high == {(1, 1): 1}


def test_signature_positions():
    sig = DegreeSignature((True, False))
    assert sig.positions() == {3: "high", 5: "low"}
    with pytest.raises(GraphError):
        path_table_high(weights(CHERRY), r=2, delta=1, signature=(True,))


def test_hom_examples():
    assert hom_alt_cycle_comb(weights(CHERRY), 2) == 4
    single = weights(Digraph.from_arcs(2, [(0, 1)]))
    for ell in (2, 3, 4):
        # all sources to the tail, all sinks to the head: one map
        assert hom_alt_cycle_comb(single, ell) == 1
    edgeless = build_walk_weights(Digraph.from_arcs(3, []), 1)
    for ell in (2, 3, 4):
        assert hom_alt_cycle_comb(edgeless, ell) == 0


def test_hom_matches_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        d = random_dag(rng, rng.randint(1, 8), 0.45)
        w = weights(d)
        for ell in (2, 3, 4):
            assert hom_alt_cycle_comb(w, ell) == hom_count_brute(
                alternating_cycle(ell), d
            )


def test_delta_override_does_not_change_count():
    # signature completeness: every threshold yields the same total
    rng = random.Random(14)
    for _ in range(20):
        d = random_dag(rng, rng.randint(2, 7), 0.5)
        w = weights(d)
        reference = hom_alt_cycle_comb(w, 3)
        for delta in (1, 2, 3, 10**6):
            assert hom_alt_cycle_comb(w, 3, delta=delta) == reference


def test_two_paths_examples():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    w = build_walk_weights(d, 2)
    assert hom_two_paths(w, 1, 2) == 1
    assert hom_two_paths(w, 2, 1) == 1
    # a DAG where no 2-walk shares endpoints with an edge
    d2 = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    w2 = build_walk_weights(d2, 2)
    assert hom_two_paths(w2, 1, 2) == 0


def test_two_paths_validation():
    w = build_walk_weights(Digraph.from_arcs(2, [(0, 1)]), 2)
    with pytest.raises(GraphError):
        hom_two_paths(w, 1, 1)  # total length below 3
    with pytest.raises(GraphError):
        hom_two_paths(w, 1, 5)  # beyond horizon


def test_integer_ceil_root():
    assert integer_ceil_root(1, 3) == 1
    assert integer_ceil_root(8, 3) == 2
    assert integer_ceil_root(9, 3) == 3  # 2^3 < 9 <= 3^3
    assert integer_ceil_root(10**6, 2) == 1000
    for n in range(1, 200):
        for r in (1, 2, 3):
            t = integer_ceil_root(n, r)
            assert t**r >= n and (t == 1 or (t - 1) ** r < n)


def random_pair(rng, n, symmetric):
    """A WalkPair over small random DAGs; the along side carries 2-walks so
    that weights exceed 1."""
    along = build_walk_weights(random_dag(rng, n, 0.5), 2)
    if symmetric:
        return WalkPair(along=along, against=along)
    return WalkPair(along=along, against=build_walk_weights(random_dag(rng, n, 0.5), 1))


def brute_alternating_paths(pair, r, reverse):
    """Every alternating path map with r sources, as (sink images, weight).

    Consecutive sinks s, t share a source c with against(c, s) and
    along(c, t); ``reverse`` swaps the two sides."""
    along, against = pair.along.ring_view, pair.against.ring_view
    if reverse:
        along, against = against, along
    n = pair.vertex_count
    paths = []

    def grow(sinks, weight):
        if len(sinks) == r + 1:
            paths.append((tuple(sinks), weight))
            return
        for c in range(n):
            wa = against.get((c, sinks[-1]))
            if not wa:
                continue
            for t in range(n):
                wl = along.get((c, t))
                if wl:
                    grow(sinks + [t], weight * wa * wl)

    for s in range(n):
        grow([s], 1)
    return paths


def brute_alternating_table(pair, paths, delta, signature=None):
    """Endpoint weights of ``paths``: low interior sinks, or a high start
    and the given low/high signature over the later sinks."""
    n = pair.vertex_count
    arcs = set(pair.along.ring_view) | set(pair.against.ring_view)
    indeg = [sum(1 for _, v in arcs if v == x) for x in range(n)]
    table = {}
    for sinks, weight in paths:
        high = tuple(indeg[s] > delta for s in sinks)
        if signature is None:
            ok = not any(high[1:-1])
        else:
            ok = high[0] and high[1:] == tuple(signature)
        if ok:
            key = (sinks[0], sinks[-1])
            table[key] = table.get(key, 0) + weight
    return table


def test_path_tables_match_brute_alternating_paths():
    rng = random.Random(15)
    for trial in range(12):
        pair = random_pair(rng, rng.randint(2, 6), symmetric=trial % 2 == 0)
        for reverse in (False, True):
            for r in (1, 2, 3):
                paths = brute_alternating_paths(pair, r, reverse)
                for delta in (0, 1, 2, 3, 10):
                    got = path_table_low(pair, r, delta, reverse=reverse).entries
                    assert got == brute_alternating_table(pair, paths, delta)
                    for signature in product((False, True), repeat=r):
                        got = path_table_high(pair, r, delta, signature, reverse=reverse)
                        assert got.entries == brute_alternating_table(
                            pair, paths, delta, signature
                        )


def hub_dag(rng, n, hubs):
    """A sparse random DAG (arcs point to larger ids) whose ``hubs`` sinks
    each receive arcs from about half the vertices below them."""
    arcs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08}
    for h in hubs:
        arcs |= {(i, h) for i in range(h) if rng.random() < 0.5}
    return Digraph.from_arcs(n, sorted(arcs))


def test_hom_asymmetric_pairs_with_hubs():
    rng = random.Random(16)
    n = 36
    for _ in range(3):
        pair = WalkPair(
            along=build_walk_weights(hub_dag(rng, n, (n - 1, n - 3)), 2),
            against=build_walk_weights(hub_dag(rng, n, (n - 2, n - 5)), 1),
        )
        assert pair.along is not pair.against
        indeg = union_in_degrees(pair)
        for ell in (2, 3, 4, 5):
            default = max(1, integer_ceil_root(n, (ell + 1) // 2))
            if ell > 2:  # at l = 2 the default threshold is n itself
                assert max(indeg) > default
            reference = hom_alt_cycle_matmul(pair, ell)
            assert reference > 0
            for delta in (1, 2, 3, default, 10**6):
                assert hom_alt_cycle_comb(pair, ell, delta=delta) == reference
            assert hom_alt_cycle_comb(pair, ell) == reference


def pipeline_views(g, length):
    """The per-p views of base sizes 2 and 3 that the pipeline counts."""
    pair, _ = _oriented_pair(g, length)
    for p in (2, 3):
        max_run = max(1, length - (2 * p - 1))
        along = restrict_view(pair.along, max_run)
        against = along if pair.against is pair.along else restrict_view(pair.against, max_run)
        yield p, WalkPair(along=along, against=against)


def random_rows(rng, n, width, horizon, density):
    """Packed rows with random small coefficients in slots 1..horizon, on
    arbitrary vertex pairs: x -> x and one-way entries included."""
    rows = []
    for _ in range(n):
        row = {}
        for y in range(n):
            if rng.random() < density:
                row[y] = sum(
                    pack(rng.randint(0, 3), step, width) for step in range(1, horizon + 1)
                ) or pack(1, 1, width)
        rows.append(row)
    return WeightedDigraph(rows=rows, source=Digraph.from_arcs(n, []), horizon=horizon, width=width)


def assert_closed_forms_match_the_closed_walks(pair, lengths):
    width = pair.along.width
    for length in lengths:
        for p in (2, 3):
            closed = hom_alt_cycle_comb(pair, p, length=length)
            walked = _low_high(pair, p, None, None, length)
            mask = slot_mask(length, width)
            assert closed == closed & mask == walked & mask, (p, length)


def test_closed_forms_match_the_closed_walks_on_pipeline_views():
    rng = random.Random(2101)
    for trial in range(40):
        n = rng.randint(1, 10)
        density = rng.choice((0.3, 0.5, 0.8))
        if trial % 2:
            # every arc kept with its reverse at this rate: reciprocal pairs
            arcs = set()
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < density:
                        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
                        if rng.random() < 0.4:
                            arcs |= {(u, v), (v, u)}
            g = Digraph.from_arcs(n, sorted(arcs))
        else:
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            )
        for length in range(4, 11):
            for p, view in pipeline_views(g, length):
                width = view.along.width
                closed = hom_alt_cycle_comb(view, p, length=length)
                walked = _low_high(view, p, None, None, length)
                mask = slot_mask(length, width)
                assert closed == closed & mask == walked & mask, (trial, p, length)


def test_closed_forms_match_the_closed_walks_on_hand_built_pairs():
    rng = random.Random(2102)
    width = 8
    diagonal = one_way = 0
    for trial in range(30):
        n = rng.randint(2, 9)
        along = random_rows(rng, n, width, 2, 0.4)
        against = random_rows(rng, n, width, 2, 0.4)
        pair = WalkPair(along=along, against=against)
        table = {
            (x, y)
            for z in range(n)
            for x in against.rows[z]
            for y in along.rows[z]
        }
        diagonal += any((x, x) in table for x in range(n))
        one_way += any((y, x) not in table for x, y in table)
        assert_closed_forms_match_the_closed_walks(pair, range(4, 11))
        # one object on both sides: the symmetric closed forms
        assert_closed_forms_match_the_closed_walks(WalkPair(along, along), range(4, 11))
    assert diagonal and one_way


def test_closed_forms_match_the_closed_walks_with_hubs():
    rng = random.Random(2103)
    n = 36
    for _ in range(3):
        width = slot_width(n, 10)
        pair = WalkPair(
            along=build_walk_weights(hub_dag(rng, n, (n - 1, n - 3)), 3, width),
            against=build_walk_weights(hub_dag(rng, n, (n - 2, n - 5)), 3, width),
        )
        # the low/high engine's default threshold at l = 3 is 6
        assert max(union_in_degrees(pair)) > integer_ceil_root(n, 2)
        assert_closed_forms_match_the_closed_walks(pair, range(4, 11))
        assert_closed_forms_match_the_closed_walks(WalkPair(pair.along, pair.along), range(4, 11))


def test_closed_forms_on_empty_relations():
    width = slot_width(4, 8)
    for n in (1, 4):
        w = build_walk_weights(Digraph.from_arcs(n, []), 3, width)
        for pair in (WalkPair(w, w), WalkPair(w, build_walk_weights(Digraph.from_arcs(n, []), 3, width))):
            assert_closed_forms_match_the_closed_walks(pair, range(4, 9))
            assert hom_alt_cycle_comb(pair, 2, length=6) == hom_alt_cycle_comb(pair, 3, length=6) == 0


def test_only_budgeted_base_sizes_two_and_three_skip_the_closed_walks(monkeypatch):
    calls = []
    original = cyclehom.comb._closed_walks

    def spy(k, *args):
        calls.append(k)
        return original(k, *args)

    monkeypatch.setattr(cyclehom.comb, "_closed_walks", spy)
    dag = Digraph.from_arcs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (3, 4)])
    packed = build_walk_weights(dag, 3, slot_width(5, 9))
    for p in (2, 3):
        hom_alt_cycle_comb(packed, p, length=9)
    assert calls == []
    hom_alt_cycle_comb(packed, 4, length=9)  # p >= 4
    hom_alt_cycle_comb(packed, 2)  # no length
    hom_alt_cycle_comb(packed, 3)
    hom_alt_cycle_comb(build_walk_weights(dag, 3), 3, length=9)  # width 0
    assert calls == [4, 2, 3, 3]


def leaf_star(k, width):
    """Rows of a star whose k leaves are all z**1 from the centre: T is z**2
    on every ordered leaf pair, diagonal included."""
    rows = [{v: pack(1, 1, width) for v in range(1, k + 1)}] + [{} for _ in range(k)]
    star = Digraph.from_arcs(k + 1, [(0, v) for v in range(1, k + 1)])
    return WeightedDigraph(rows=rows, source=star, horizon=1, width=width)


def test_closed_form_op_counts():
    k, width = 4, 8
    w = leaf_star(k, width)
    square, cube = OpCounter(), OpCounter()
    assert hom_alt_cycle_comb(w, 2, ops=square, length=4) == pack(k**2, 4, width)
    assert hom_alt_cycle_comb(w, 3, ops=cube, length=6) == pack(k**3, 6, width)
    cherry = k * k  # one op per sink pair of the centre
    # tr(T^2): 16 entries scanned, 16 products
    assert square.count == cherry + 16 + 16
    # tr(T^3): 16 entries; the rank-ordered out-lists {j > i} probe
    # min(3 - i, 3 - j) for every i < j, 4 in all; 4 cubes, 6 diagonal
    # pair products and C(4, 3) = 4 triangles
    assert cube.count == cherry + 16 + 4 + 4 + 6 + 4


def test_triangle_route_counts_fewer_ops_on_a_dense_relation():
    n = 12
    complete = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    for length in (6, 8):
        for p, view in pipeline_views(complete, length):
            closed_ops, walked_ops = OpCounter(), OpCounter()
            closed = hom_alt_cycle_comb(view, p, ops=closed_ops, length=length)
            walked = _low_high(view, p, None, walked_ops, length)
            assert closed == walked & slot_mask(length, view.along.width)
            # at p = 2 both make one op per entry of T and one per product
            # (one step and one join per anchor); at p = 3 the triangles
            # beat the anchors' two-step rows
            if p == 2:
                assert closed_ops.count == walked_ops.count
            else:
                assert closed_ops.count < walked_ops.count
