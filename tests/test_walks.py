import random

import pytest

from cyclehom.graphs import Digraph, Graph, GraphError
from cyclehom.pipeline import _oriented_pair
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


def shuffled_dag(rng, n, p):
    """A random DAG whose vertex ids are a random permutation of its
    topological order."""
    label = list(range(n))
    rng.shuffle(label)
    return Digraph.from_arcs(
        n, [(label[i], label[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_rows_match_matrix_powers_on_unordered_ids():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 9)
        d = shuffled_dag(rng, n, rng.choice((0.3, 0.5, 0.8)))
        horizon = rng.randint(1, 5)
        powers = [matrix_power_walks(d, length) for length in range(1, horizon + 1)]
        for width in (0, slot_width(n, horizon)):
            w = build_walk_weights(d, horizon, width)
            for x in range(n):
                for y in range(n):
                    counts = [power[x][y] for power in powers]
                    weight = w.rows[x].get(y, 0)
                    assert (y in w.rows[x]) == any(counts)
                    if width:
                        slots = [coefficient(weight, i, width) for i in range(horizon + 2)]
                        assert slots == [0] + counts + [0]
                    else:
                        assert weight == sum(counts)


def test_width_below_the_walk_bound_raises():
    rng = random.Random(68)
    for _ in range(40):
        n = rng.randint(2, 9)
        d = shuffled_dag(rng, n, rng.choice((0.4, 0.8)))
        horizon = rng.randint(1, 5)
        bound = (d.max_out_degree**horizon).bit_length()
        for width in range(1, bound + 2):
            if width < bound:
                with pytest.raises(GraphError):
                    build_walk_weights(d, horizon, width)
            else:
                build_walk_weights(d, horizon, width)


def test_pipeline_width_never_hits_the_walk_bound():
    rng = random.Random(69)
    for trial in range(60):
        n = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.9))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        if trial % 2:
            g = Digraph.from_arcs(n, pairs)
        else:
            g = Graph.from_edges(n, sorted({(min(u, v), max(u, v)) for u, v in pairs}))
        for length in range(3, 13):
            pair, _ = _oriented_pair(g, length)
            for side in (pair.along, pair.against):
                assert side.source.max_out_degree ** (length - 1) >> side.width == 0
