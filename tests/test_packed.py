"""Packed walk weights: slot helpers, the overflow check, and engine
agreement across the counters that share no weight arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclehom.pipeline as pipeline
from cyclehom.general import hom_cycle_general
from cyclehom.graphs import Digraph, Graph, GraphError
from cyclehom.oracle import hom_count_brute, trace_power
from cyclehom.pipeline import hom_cycle_degenerate
from cyclehom.ring import coefficient, degree_slot_width, pack, slot_mask, slot_width
from cyclehom.walks import build_walk_weights

DIAMOND = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def graph_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), len(edges))


def cycle_pattern(length, directed):
    arcs = [(i, (i + 1) % length) for i in range(length)]
    if directed:
        return Digraph.from_arcs(length, arcs)
    return graph_from_edges(length, arcs)


def test_slot_helpers_round_trip():
    width = slot_width(5, 6)
    value = pack(3, 1, width) + pack(2**width - 1, 4, width) + pack(7, 6, width)
    assert [coefficient(value, i, width) for i in range(8)] == [0, 3, 0, 0, 2**width - 1, 0, 7, 0]
    low = value & slot_mask(4, width)
    assert [coefficient(low, i, width) for i in range(8)] == [0, 3, 0, 0, 2**width - 1, 0, 0, 0]
    assert pack(5, 3, 0) == 5  # width 0 is the plain sum


def test_pack_rejects_count_over_slot():
    width = slot_width(4, 5)
    with pytest.raises(GraphError):
        pack(2**width, 2, width)
    with pytest.raises(GraphError):
        pack(-1, 2, width)


def test_degree_width_never_exceeds_vertex_width():
    # D <= n - 1, so bitlen(2D) <= bitlen(n) + 1: the degree bound is the narrower
    for length in range(41):
        for n in range(1, 130):
            for max_degree in range(n):
                assert degree_slot_width(n, length, max_degree) <= slot_width(n, length)
        for bits in range(8, 21):
            for n in (2**bits - 1, 2**bits, 2**bits + 1):
                assert degree_slot_width(n, length, n - 1) <= slot_width(n, length)


def test_too_small_width_raises_instead_of_corrupting(monkeypatch):
    # the diamond has two 2-walks from 0 to 3; a 1-bit slot cannot hold them
    with pytest.raises(GraphError):
        build_walk_weights(DIAMOND, 2, 1)
    monkeypatch.setattr(pipeline, "degree_slot_width", lambda n, length, max_degree: 1)
    k4 = graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(GraphError):
        hom_cycle_degenerate(k4, 6)


def test_complete_graphs_match_trace():
    # the largest coefficients a graph on n vertices can produce
    for n in range(2, 9):
        kn = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        complete = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        for length in range(3, 13):
            assert hom_cycle_degenerate(kn, length) == trace_power(kn, length)
            assert hom_cycle_degenerate(complete, length) == trace_power(complete, length)


@st.composite
def small_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    directed = draw(st.booleans())
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [pair for pair, k in zip(pairs, keep) if k]
    g = Digraph.from_arcs(n, chosen) if directed else graph_from_edges(n, chosen)
    return g, directed, draw(st.integers(min_value=3, max_value=10))


@settings(max_examples=300, deadline=None)
@given(small_inputs())
def test_counters_agree(case):
    g, directed, length = case
    want = trace_power(g, length)
    assert hom_cycle_degenerate(g, length, engine="comb") == want
    assert hom_cycle_degenerate(g, length, engine="matmul") == want
    assert hom_cycle_general(g, length) == want
    if g.vertex_count <= 5 and length <= 6:
        assert hom_count_brute(cycle_pattern(length, directed), g) == want
