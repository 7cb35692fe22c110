import random

import pytest

from cyclehom.graphs import Digraph, GraphError
from cyclehom.ring import coefficient, slot_width
from cyclehom.walks import build_walk_weights, restrict_view


def random_dag(rng, n, p):
    arcs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Digraph.from_arcs(n, arcs)


def matrix_power_walks(d: Digraph, length: int):
    n = d.vertex_count
    base = [[0] * n for _ in range(n)]
    for u, v in d.arcs():
        base[u][v] = 1
    cur = [row[:] for row in base]
    for _ in range(length - 1):
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if cur[i][k]:
                    for j in range(n):
                        nxt[i][j] += cur[i][k] * base[k][j]
        cur = nxt
    return cur


def test_path_example():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    w = build_walk_weights(d, 2)
    assert w.per_length[(0, 1, 1)] == 1
    assert w.per_length[(1, 2, 1)] == 1
    assert w.per_length[(0, 2, 2)] == 1
    assert (0, 2, 1) not in w.per_length


def test_diamond_two_walks():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    w = build_walk_weights(d, 2)
    assert w.per_length[(0, 3, 2)] == 2


def test_horizon_one_is_adjacency():
    rng = random.Random(1)
    d = random_dag(rng, 6, 0.5)
    w = build_walk_weights(d, 1)
    assert set(w.ring_view) == set(d.arcs())
    assert all(v == 1 for v in w.ring_view.values())


def test_counts_match_matrix_powers():
    rng = random.Random(2)
    for _ in range(30):
        d = random_dag(rng, rng.randint(1, 8), 0.5)
        horizon = rng.randint(1, 4)
        w = build_walk_weights(d, horizon)
        for length in range(1, horizon + 1):
            power = matrix_power_walks(d, length)
            for x in range(d.vertex_count):
                for y in range(d.vertex_count):
                    assert w.per_length.get((x, y, length), 0) == power[x][y]


def test_out_degree_bound():
    rng = random.Random(3)
    for _ in range(20):
        d = random_dag(rng, rng.randint(2, 8), 0.6)
        horizon = rng.randint(1, 3)
        w = build_walk_weights(d, horizon)
        assert w.digraph.max_out_degree <= max(1, d.max_out_degree) ** horizon


def test_polynomial_and_aggregate_agree_at_one():
    rng = random.Random(4)
    for _ in range(20):
        d = random_dag(rng, rng.randint(1, 7), 0.5)
        horizon = rng.randint(1, 4)
        agg = build_walk_weights(d, horizon)
        poly = build_walk_weights(d, horizon, slot_width(d.vertex_count, horizon))
        assert set(agg.ring_view) == set(poly.ring_view)
        for key, value in agg.ring_view.items():
            coeffs = [coefficient(poly.ring_view[key], i, poly.width) for i in range(horizon + 1)]
            assert sum(coeffs) == value


def test_polynomial_view_coefficients():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    w = build_walk_weights(d, 2, slot_width(3, 2))
    assert [coefficient(w.ring_view[(0, 2)], i, w.width) for i in range(3)] == [0, 1, 1]


def test_restrict_view_drops_long_walks():
    d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    w = build_walk_weights(d, 3)
    short = restrict_view(w, 1)
    assert set(short.ring_view) == set(d.arcs())
    shorter = restrict_view(build_walk_weights(d, 3, slot_width(4, 5)), 2)
    assert coefficient(shorter.ring_view[(0, 2)], 2, shorter.width) == 1
    assert (0, 3) not in shorter.ring_view


def test_rejects_cyclic_and_bad_horizon():
    cyc = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_walk_weights(cyc, 2)
    d = Digraph.from_arcs(2, [(0, 1)])
    with pytest.raises(GraphError):
        build_walk_weights(d, 0)


def test_rejects_negative_width():
    d = Digraph.from_arcs(2, [(0, 1)])
    with pytest.raises(GraphError):
        build_walk_weights(d, 1, -1)


def test_restrict_view_rejects_nonpositive_length():
    w = build_walk_weights(Digraph.from_arcs(3, [(0, 1), (1, 2)]), 2, 3)
    for max_length in (0, -1):
        with pytest.raises(GraphError):
            restrict_view(w, max_length)


def test_weight_supports_equal_checked_construction():
    rng = random.Random(66)
    for _ in range(30):
        n = rng.randint(1, 10)
        d = random_dag(rng, n, rng.choice((0.2, 0.4)))
        horizon = rng.randint(1, 5)
        for width in (0, slot_width(n, horizon)):
            w = build_walk_weights(d, horizon, width)
            short = restrict_view(w, rng.randint(1, horizon))
            for weights in (w, short):
                assert weights.digraph == Digraph.from_arcs(n, list(weights.ring_view))
