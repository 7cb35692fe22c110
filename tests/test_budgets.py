"""The degenerate pipeline's narrow packing: the degree-bounded slot width,
comb's length budgets and the half-built symmetric cherry relation."""

import random
from collections import Counter

import pytest

from cyclehom.comb import _cherry_adjacency, _masked_step, hom_alt_cycle_comb
from cyclehom.general import hom_cycle_general
from cyclehom.graphs import Digraph, Graph
from cyclehom.oracle import trace_power
from cyclehom.ops import OpCounter
from cyclehom.pipeline import _oriented_pair, hom_cycle_degenerate
from cyclehom.ring import coefficient, pack, slot_mask, slot_width
from cyclehom.walks import WalkPair, WeightedDigraph, build_walk_weights, restrict_view


def star(s):
    return Graph.from_edges(s + 1, [(0, v) for v in range(1, s + 1)])


def k2s_with_tail(s, tail):
    """K_{2,s} on hubs 0 and 1, plus a path of ``tail`` edges off hub 0."""
    edges = [(h, v) for h in (0, 1) for v in range(2, s + 2)]
    n = s + 2
    prev = 0
    for _ in range(tail):
        edges.append((prev, n))
        prev = n
        n += 1
    return Graph.from_edges(n, edges)


def hub_digraph(s):
    """A hub with reciprocal arcs to s leaves and a directed path through
    the leaves: degeneracy 2, maximum degree s."""
    arcs = [(0, v) for v in range(1, s + 1)] + [(v, 0) for v in range(1, s + 1)]
    arcs += [(v, v + 1) for v in range(1, s)]
    return Digraph.from_arcs(s + 1, arcs)


# maximum degree far above the degeneracy, plus the degenerate corners
EDGE_CASES = {
    "star-1-40": star(40),
    "star-1-3": star(3),
    "k2s-tail": k2s_with_tail(24, 3),
    "hub-digraph": hub_digraph(30),
    "edgeless": Graph.from_edges(5, []),
    "edgeless-digraph": Digraph.from_arcs(4, []),
    "single-edge": Graph.from_edges(2, [(0, 1)]),
    "single-arc": Digraph.from_arcs(2, [(0, 1)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_degree_bounded_width_keeps_counts_exact(name):
    g = EDGE_CASES[name]
    n = g.vertex_count
    for length in range(3, 13):
        want = trace_power(g, length)
        assert hom_cycle_degenerate(g, length, engine="comb") == want, length
        assert hom_cycle_degenerate(g, length, engine="matmul") == want, length
        assert hom_cycle_general(g, length) == want, length
        pair, _ = _oriented_pair(g, length)
        assert 1 <= pair.along.width <= slot_width(n, length)
        assert pair.against.width == pair.along.width
        # the per-p views mask their source and keep its width
        assert restrict_view(pair.along, 1).width == pair.along.width


def test_width_is_narrowed_by_the_maximum_degree():
    g = star(40)  # maximum degree 40 over 41 vertices
    pair, _ = _oriented_pair(g, 8)
    assert pair.along.width == (41).bit_length() + 8 * (80).bit_length() < slot_width(41, 8)
    # a digraph's sides share the width of its underlying graph
    d = hub_digraph(30)
    pair, _ = _oriented_pair(d, 8)
    assert pair.along.width == pair.against.width == (31).bit_length() + 8 * (60).bit_length()


def random_graph(rng, n, p):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_digraph(rng, n, p):
    return Digraph.from_arcs(
        n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    )


def pipeline_views(g, length):
    """The per-p views ``hom_cycle_degenerate`` hands its engine."""
    pair, _ = _oriented_pair(g, length)
    for p in range(2, length // 2 + 2):
        max_run = max(1, length - (2 * p - 1))
        along = restrict_view(pair.along, max_run)
        against = along if pair.against is pair.along else restrict_view(pair.against, max_run)
        yield p, WalkPair(along=along, against=against)


def test_length_budgets_keep_the_read_coefficient():
    rng = random.Random(1414)
    cases = 0
    plain_ops, masked_ops = OpCounter(), OpCounter()
    for trial in range(40):
        n = rng.randint(2, 9)
        density = rng.choice((0.3, 0.5, 0.8))
        g = random_digraph(rng, n, density) if trial % 2 else random_graph(rng, n, density)
        for length in range(4, 11):
            for p, view in pipeline_views(g, length):
                width = view.along.width
                plain = hom_alt_cycle_comb(view, p, ops=plain_ops)
                masked = hom_alt_cycle_comb(view, p, ops=masked_ops, length=length)
                assert coefficient(masked, length, width) == coefficient(plain, length, width)
                # the mask only ever drops weight above z**length
                assert masked & slot_mask(length, width) == plain & slot_mask(length, width)
                cases += 1
    assert cases > 500
    # entries that mask to 0 are dropped, so the budgets save steps
    assert masked_ops.count < plain_ops.count


def test_masked_step_masks_every_entry_and_drops_zeros():
    width = 4
    row = {0: pack(3, 1, width) + pack(1, 4, width), 1: pack(2, 3, width)}
    adj = [
        [(2, pack(1, 2, width)), (3, pack(5, 1, width))],
        [(2, pack(1, 1, width)), (4, pack(1, 1, width))],
    ]
    keep = slot_mask(3, width)
    stepped = _masked_step(-1)(row, adj, None)
    want = {z: m for z, v in stepped.items() if (m := v & keep)}
    # 3z^3 + 2z^4 keeps 3z^3, 15z^2 + 5z^5 keeps 15z^2, 2z^4 is dropped
    assert _masked_step(keep)(row, adj, None) == want == {2: pack(3, 3, width), 3: pack(15, 2, width)}


def test_length_budgets_leave_width_zero_alone():
    rng = random.Random(1415)
    for _ in range(20):
        n = rng.randint(3, 9)
        dag = Digraph.from_arcs(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        w = build_walk_weights(dag, rng.randint(1, 3))
        assert w.width == 0
        for p in range(2, 5):
            for length in (4, 7, 10):
                plain_ops, masked_ops = OpCounter(), OpCounter()
                plain = hom_alt_cycle_comb(w, p, ops=plain_ops)
                assert hom_alt_cycle_comb(w, p, ops=masked_ops, length=length) == plain
                assert masked_ops.count == plain_ops.count


def test_symmetric_cherry_matches_the_two_sided_build():
    rng = random.Random(1416)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
        length = rng.randint(4, 9)
        w = _oriented_pair(g, length)[0].along
        # equal content, distinct objects: the general two-sided loop
        twin = _oriented_pair(g, length)[0].along
        assert twin is not w and twin.ring_view == w.ring_view
        keep = slot_mask(length - 2, w.width)
        for mask in (None, keep):
            sym_ops, two_ops = OpCounter(), OpCounter()
            sym_table, sym_partners = _cherry_adjacency(w, w, sym_ops, mask)
            two_table, two_partners = _cherry_adjacency(w, twin, two_ops, mask)
            assert sym_table == two_table
            assert [Counter(row) for row in sym_partners] == [
                Counter(row) for row in two_partners
            ]
            assert sym_ops.count == two_ops.count
        for p in (2, 3):
            assert hom_alt_cycle_comb(WalkPair(w, w), p, length=length) == hom_alt_cycle_comb(
                WalkPair(w, twin), p, length=length
            )


def test_rows_are_masked_to_their_own_budget():
    # every cherry entry is z^4, inside the budget 8 - 6 + 2 = 4 at p = 3,
    # but a row after two steps holds z^8, over its budget 8 - 2 = 6
    width, k = 6, 4
    star = Digraph.from_arcs(k + 1, [(0, v) for v in range(1, k + 1)])
    rows = [{v: pack(1, 2, width) for v in range(1, k + 1)}] + [{} for _ in range(k)]
    w = WeightedDigraph(rows=rows, source=star, horizon=2, width=width)
    plain_ops, masked_ops = OpCounter(), OpCounter()
    plain = hom_alt_cycle_comb(w, 3, ops=plain_ops)
    masked = hom_alt_cycle_comb(w, 3, ops=masked_ops, length=8)
    assert plain == k**3 * pack(1, 12, width) and masked == 0
    assert masked_ops.count < plain_ops.count
