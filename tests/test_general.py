import math
import random
from itertools import product

import pytest

from cyclehom.general import (
    default_repetitions,
    detect_cycle_general_directed,
    hom_cycle_general,
    layered_subgraph,
    path_table_general,
)
from cyclehom.graphs import Digraph, Graph, GraphError, parse_graph
from cyclehom.oracle import has_simple_cycle_brute, trace_power


def random_graph(rng, n, p):
    adj = [[] for _ in range(n)]
    m = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].append(j)
                adj[j].append(i)
                m += 1
    return Graph(n, tuple(tuple(a) for a in adj), m)


def random_digraph(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Digraph.from_arcs(n, arcs)


def test_path_table_examples():
    path = parse_graph("a b\nb c")  # a - b - c
    low = path_table_general(path, 2, delta=2, mode="low")
    assert low[(0, 2)] == 1 and low[(2, 0)] == 1
    assert low[(0, 0)] == 1 and low[(1, 1)] == 2 and low[(2, 2)] == 1
    # excluding b as interior leaves only the walks bouncing off a leaf
    assert path_table_general(path, 2, delta=1, mode="low") == {(1, 1): 2}

    single = parse_graph("a b")
    t = path_table_general(single, 1, delta=5, mode="low")
    assert t == {(0, 1): 1, (1, 0): 1}

    # threshold at or above max degree leaves no high vertices
    assert (
        path_table_general(path, 1, delta=2, mode="high", signature=(False,)) == {}
    )


def test_path_table_validation():
    g = parse_graph("0 1")
    with pytest.raises(GraphError):
        path_table_general(g, 0, 1)
    with pytest.raises(GraphError):
        path_table_general(g, 2, 1, mode="high", signature=(True,))


def test_hom_examples():
    k4 = parse_graph("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert hom_cycle_general(k4, 3) == 24
    tri = parse_graph("0 1\n1 2\n2 0", directed=True)
    assert hom_cycle_general(tri, 3) == 3
    forest = parse_graph("0 1\n1 2\n1 3\n4 5")
    for k in (3, 5, 7):
        assert hom_cycle_general(forest, k) == 0


def test_matches_trace_oracle():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        d = random_digraph(rng, rng.randint(1, 9), 0.3)
        for k in range(3, 9):
            assert hom_cycle_general(g, k) == trace_power(g, k)
            assert hom_cycle_general(d, k) == trace_power(d, k)


def test_layered_subgraph_kills_short_cycles():
    rng = random.Random(42)
    d = random_digraph(rng, 12, 0.3)
    for k in (3, 4, 5):
        colors = [rng.randrange(k) for _ in range(d.vertex_count)]
        layered = layered_subgraph(d, colors, k)
        for short in range(1, k):
            assert trace_power(layered, short) == 0


def test_detect_soundness_on_dags():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(3, 12)
        arcs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        dag = Digraph.from_arcs(n, arcs)
        assert not detect_cycle_general_directed(dag, 4, reps=10, seed=rng.random())


def test_detect_short_cycles_invisible():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert not detect_cycle_general_directed(tri, 4, reps=60, seed=7)


def test_detect_planted_cycle():
    rng = random.Random(44)
    hits = 0
    for trial in range(20):
        n = 20
        arcs = {(i, (i + 1) % 4) for i in range(4)}
        while len(arcs) < 30:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
        d = Digraph.from_arcs(n, sorted(arcs))
        if not has_simple_cycle_brute(d, 4, max_vertices=n):
            continue
        if detect_cycle_general_directed(d, 4, seed=trial):
            hits += 1
    assert hits >= 18


def test_default_repetitions():
    assert default_repetitions(4, 0.05) == 767
    assert default_repetitions(3, 0.05) >= 27


@pytest.mark.parametrize("delta", [0, 1, -1, 1.5, math.nan])
def test_default_repetitions_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(GraphError):
        default_repetitions(4, delta)


def brute_walk_table(g, r, delta, mode="low", signature=None, reverse=False):
    """Endpoint counts of r-step walks, enumerated one walk at a time."""
    directed = isinstance(g, Digraph)
    if directed:
        n, arcs = g.vertex_count, g.arcs()
    else:
        n, arcs = g.vertex_count, [(u, v) for u in range(g.vertex_count) for v in g.adjacency[u]]
    deg = [0] * n
    for u, v in arcs:
        deg[u] += 1
        if directed:
            deg[v] += 1
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        if reverse:
            succ[v].append(u)
        else:
            succ[u].append(v)
    table = {}

    def walk(seq):
        if len(seq) == r + 1:
            high = tuple(deg[v] > delta for v in seq)
            if mode == "low":
                ok = not any(high[1:r])
            else:
                ok = high[0] and high[1:] == tuple(signature)
            if ok:
                key = (seq[0], seq[-1])
                table[key] = table.get(key, 0) + 1
            return
        for v in succ[seq[-1]]:
            walk(seq + [v])

    for x in range(n):
        walk([x])
    return table


def test_path_table_matches_brute_walks():
    rng = random.Random(45)
    for trial in range(24):
        n = rng.randint(2, 7)
        if trial % 3 == 0:
            g = random_graph(rng, n, 0.5)
        elif trial % 3 == 1:
            g = random_digraph(rng, n, 0.35)
        else:
            arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.35]
            g = Digraph.from_arcs(n, arcs)
        for r in range(1, 5):
            for delta in range(1, 5):
                for reverse in (False, True):
                    assert path_table_general(g, r, delta, reverse=reverse) == brute_walk_table(
                        g, r, delta, reverse=reverse
                    )
                    for signature in product((False, True), repeat=r):
                        got = path_table_general(
                            g, r, delta, mode="high", signature=signature, reverse=reverse
                        )
                        assert got == brute_walk_table(g, r, delta, "high", signature, reverse)


def with_hubs(rng, n, directed):
    """A sparse random graph or digraph on n vertices with a star hub and a
    wheel hub joined to it, so that some degree exceeds every threshold."""
    pairs = set()
    while len(pairs) < n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v) if directed else (min(u, v), max(u, v)))
    star, wheel = n, n + 1
    rim = rng.sample(range(n), 12)
    for v in rng.sample(range(n), 30):
        pairs.add((star, v))
        if directed and rng.random() < 0.7:
            pairs.add((v, star))
    for i, v in enumerate(rim):
        w = rim[(i + 1) % len(rim)]
        pairs.add((v, w) if directed else (min(v, w), max(v, w)))
        pairs.add((wheel, v) if directed and i % 2 else (v, wheel))
    if not directed:
        pairs = {(min(u, v), max(u, v)) for u, v in pairs}
    return n + 2, sorted(pairs)


def build(n, pairs, directed):
    return Digraph.from_arcs(n, pairs) if directed else Graph.from_edges(n, pairs)


def test_matches_trace_with_hubs():
    rng = random.Random(46)
    for directed in (False, True):
        for _ in range(2):
            n, pairs = with_hubs(rng, 40, directed)
            g = build(n, pairs, directed)
            deg = [0] * n
            for u, v in pairs:
                deg[u] += 1
                deg[v] += 1
            # the threshold is at most ceil(sqrt(m)) for every k >= 3
            assert max(deg) > math.isqrt(len(pairs)) + 1
            for k in range(3, 10):
                assert hom_cycle_general(g, k) == trace_power(g, k, max_vertices=n)


def hang_acyclic_parts(rng, n, pairs, directed, extra):
    """Pendant trees (undirected) or DAG tails (directed) hung on a graph."""
    pairs = set(pairs)
    for v in range(n, n + extra):
        u = rng.randrange(v)
        if directed:
            # the new vertex only receives or only sends: never on a cycle
            pairs.add((u, v) if rng.random() < 0.5 else (v, u))
        else:
            pairs.add((u, v))
    return n + extra, sorted(pairs)


def test_matches_trace_with_trees_and_tails():
    rng = random.Random(47)
    for directed in (False, True):
        for _ in range(6):
            base = rng.randint(3, 9)
            pairs = [
                (u, v) for u in range(base) for v in range(base)
                if u != v and (directed or u < v) and rng.random() < 0.4
            ]
            n, pairs = hang_acyclic_parts(rng, base, pairs, directed, rng.randint(2, 10))
            g = build(n, pairs, directed)
            for k in range(3, 10):
                assert hom_cycle_general(g, k) == trace_power(g, k)
    # pendant trees carry closed walks: hom(C_4, K_2) = 2
    assert hom_cycle_general(parse_graph("0 1"), 4) == 2
    assert hom_cycle_general(parse_graph("0 1\n1 2\n1 3"), 4) == trace_power(
        parse_graph("0 1\n1 2\n1 3"), 4
    )


def test_directed_graph_and_empty_core():
    rng = random.Random(48)
    for _ in range(6):
        n = rng.randint(3, 9)
        text = "\n".join(
            f"{u} {v}" for u in range(n) for v in range(n) if u != v and rng.random() < 0.35
        )
        if not text:
            continue
        g = parse_graph(text, directed=True)
        for k in range(3, 10):
            assert hom_cycle_general(g, k) == trace_power(g, k)
    # a DAG with a hub: its cycle core is empty
    dag = Digraph.from_arcs(12, [(0, v) for v in range(1, 12)] + [(v, v + 1) for v in range(1, 11)])
    dag_graph = parse_graph("\n".join(f"{u} {v}" for u, v in dag.arcs()), directed=True)
    for k in range(3, 10):
        assert hom_cycle_general(dag, k) == 0
        assert hom_cycle_general(dag_graph, k) == 0
