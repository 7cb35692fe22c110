import random
from itertools import product

import pytest

from cyclehom.comb import (
    DegreeSignature,
    hom_alt_cycle_comb,
    hom_two_paths,
    integer_ceil_root,
    path_table_high,
    path_table_low,
)
from cyclehom.graphs import Digraph, GraphError
from cyclehom.matmul import hom_alt_cycle_matmul
from cyclehom.oracle import hom_count_brute
from cyclehom.walks import WalkPair, build_walk_weights, union_in_degrees


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
