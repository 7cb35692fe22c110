import random

import pytest

from cyclehom.graphs import Digraph, Graph, parse_graph
from cyclehom.oracle import (
    OracleBudgetError,
    enumerate_cycle_orientations,
    has_simple_cycle_brute,
    hom_count_brute,
    trace_power,
)


def cycle_graph(k):
    adj = tuple(tuple(sorted({(i - 1) % k, (i + 1) % k})) for i in range(k))
    return Graph(k, adj, k)


def test_hom_examples():
    k3 = parse_graph("0 1\n0 2\n1 2")
    assert hom_count_brute(cycle_graph(3), k3) == 6
    arc = Digraph.from_arcs(2, [(0, 1)])
    assert hom_count_brute(arc, arc) == 1
    edgeless = Graph(3, ((), (), ()), 0)
    assert hom_count_brute(cycle_graph(4), edgeless) == 0


def test_trace_examples():
    k3 = parse_graph("0 1\n0 2\n1 2")
    assert trace_power(k3, 3) == 6
    assert trace_power(k3, 4) == 18
    dag = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for k in range(1, 6):
        assert trace_power(dag, k) == 0


def test_brute_agrees_with_trace():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 8)
        adj = [[] for _ in range(n)]
        m = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i].append(j)
                    adj[j].append(i)
                    m += 1
        g = Graph(n, tuple(tuple(a) for a in adj), m)
        for k in range(3, 8):
            assert hom_count_brute(cycle_graph(k), g) == trace_power(g, k)


def test_orientation_enumeration():
    out3 = enumerate_cycle_orientations(3)
    assert len(out3) == 8
    assert sum(1 for _, acyclic, _ in out3 if acyclic) == 6
    out4 = enumerate_cycle_orientations(4)
    assert sum(1 for _, acyclic, _ in out4 if acyclic) == 14
    assert sum(1 for _, acyclic, p in out4 if acyclic and p == 2) == 2
    for _, acyclic, p in out4:
        if acyclic:
            assert p >= 1
        else:
            assert p == 0


def test_has_simple_cycle():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert has_simple_cycle_brute(tri, 3)
    dag = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not has_simple_cycle_brute(dag, 3)
    assert not has_simple_cycle_brute(cycle_graph(4), 3)
    assert has_simple_cycle_brute(cycle_graph(4), 4)


def test_budgets_enforced():
    big = Graph(20, tuple(() for _ in range(20)), 0)
    with pytest.raises(OracleBudgetError):
        hom_count_brute(cycle_graph(3), big)
    with pytest.raises(OracleBudgetError):
        trace_power(Graph(70, tuple(() for _ in range(70)), 0), 3)
