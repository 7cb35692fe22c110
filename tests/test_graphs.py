import random
from itertools import combinations

import pytest

from cyclehom.graphs import (
    Digraph,
    Graph,
    GraphError,
    ParseError,
    cycle_core,
    degeneracy_ordering,
    orient_acyclic,
    parse_graph,
    split_by_ordering,
    write_graph,
)


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


def test_parse_basic():
    g = parse_graph("0 1\n1 2")
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("0 1\n0 1")
    # reversed duplicate is also a duplicate for undirected input
    with pytest.raises(ParseError):
        parse_graph("0 1\n1 0")
    # but a distinct arc for directed input
    d = parse_graph("0 1\n1 0", directed=True)
    assert d.arc_count() == 2
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("0 1\n1 0\n0 1", directed=True)


def test_parse_densifies_labels():
    g = parse_graph("a b\nb c")
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.labels == ("a", "b", "c")
    d = parse_graph("b a\nc b\na c", directed=True)
    assert isinstance(d, Digraph) and d.arc_count() == 3
    assert d.labels == ("b", "a", "c")


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("0 0")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("0 1\n# fine\n0 1 2")
    for directed in (False, True):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph(b"0 1\n\xff\xfe 2\n", directed=directed)


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\n0 1\n  \n1 2\n")
    assert g.edge_count == 2


def test_degeneracy_examples():
    tree = parse_graph("0 1\n0 2\n2 3\n2 4")
    assert degeneracy_ordering(tree).degeneracy == 1
    k4 = parse_graph("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert degeneracy_ordering(k4).degeneracy == 3
    c6 = parse_graph("0 1\n1 2\n2 3\n3 4\n4 5\n5 0")
    assert degeneracy_ordering(c6).degeneracy == 2


def test_degeneracy_rejects_directed():
    for d in (parse_graph("0 1", directed=True), Digraph.from_arcs(2, [(0, 1)])):
        with pytest.raises(GraphError):
            degeneracy_ordering(d)
        with pytest.raises(GraphError):
            orient_acyclic(d, degeneracy_ordering(d.underlying_graph()))


def brute_degeneracy(g: Graph) -> int:
    best = 0
    verts = range(g.vertex_count)
    for size in range(1, g.vertex_count + 1):
        for sub in combinations(verts, size):
            inside = set(sub)
            mindeg = min(
                sum(1 for u in g.neighbors(v) if u in inside) for v in sub
            )
            best = max(best, mindeg)
    return best


def test_degeneracy_matches_brute_force():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        assert degeneracy_ordering(g).degeneracy == brute_degeneracy(g)


def test_ordering_property_every_vertex_few_later_neighbors():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), 0.4)
        ordering = degeneracy_ordering(g)
        pos = {v: i for i, v in enumerate(ordering.order)}
        for v in range(g.vertex_count):
            later = sum(1 for u in g.neighbors(v) if pos[u] > pos[v])
            assert later <= ordering.degeneracy


def test_orient_acyclic_triangle():
    g = parse_graph("0 1\n0 2\n1 2")
    from cyclehom.graphs import DegeneracyOrdering

    d = orient_acyclic(g, DegeneracyOrdering(order=(0, 1, 2), degeneracy=2))
    assert d.is_dag
    assert d.out_adjacency == ((1, 2), (2,), ())
    assert d.max_out_degree == 2


def test_orient_acyclic_star_center_last():
    g = parse_graph("c 0\nc 1\nc 2")
    from cyclehom.graphs import DegeneracyOrdering

    center_last = DegeneracyOrdering(order=(1, 2, 3, 0), degeneracy=1)
    d = orient_acyclic(g, center_last)
    assert d.is_dag
    assert d.max_out_degree == 1
    center = 0
    assert all(d.out_adjacency[v] == (center,) for v in (1, 2, 3))


def test_orient_acyclic_edgeless():
    g = Graph(4, ((), (), (), ()), 0)
    ordering = degeneracy_ordering(g)
    d = orient_acyclic(g, ordering)
    assert d.is_dag and d.arc_count() == 0


def test_orient_respects_custom_order_and_degree_bound():
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        ordering = degeneracy_ordering(g)
        d = orient_acyclic(g, ordering)
        assert d.is_dag
        assert d.max_out_degree <= ordering.degeneracy
        pos = {v: i for i, v in enumerate(ordering.order)}
        for u, v in d.arcs():
            assert pos[u] < pos[v]


def test_orient_rejects_bad_ordering():
    g = parse_graph("0 1")
    from cyclehom.graphs import DegeneracyOrdering

    with pytest.raises(GraphError):
        orient_acyclic(g, DegeneracyOrdering(order=(0,), degeneracy=1))


def appearance_relabel(pairs):
    """Id map the parser will assign when reading the pairs in order."""
    relabel = {}
    for u, v in pairs:
        for t in (u, v):
            if t not in relabel:
                relabel[t] = len(relabel)
    return relabel


def test_write_round_trip_exact_relabel():
    # the reparse of a serialization is the original graph relabeled by
    # first appearance in the sorted edge list; when that order already
    # agrees with the ids, the round trip reproduces them identically
    rng = random.Random(5)
    identical = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        directed = rng.random() < 0.5
        if directed:
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.4
            ]
        else:
            pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            ]
        if not pairs:
            continue
        lines = "\n".join(f"{u} {v}" for u, v in rng.sample(pairs, len(pairs)))
        g = parse_graph(lines, directed=directed)
        g2 = parse_graph(write_graph(g), directed=directed)
        pairs_of = Digraph.arcs if directed else Graph.edges
        relabel = appearance_relabel(sorted(pairs_of(g)))
        assert g2.vertex_count == len(relabel)
        assert len(pairs_of(g2)) == len(pairs_of(g))
        expected = {(relabel[u], relabel[v]) for u, v in pairs_of(g)}
        if not directed:
            expected = {(min(u, v), max(u, v)) for u, v in expected}
        assert set(pairs_of(g2)) == expected
        if all(relabel[v] == v for v in relabel):
            assert g2 == g
            identical += 1
    assert identical > 20  # the identity case is common, not vacuous


def test_write_round_trip_identical_ids_canonical():
    # graphs whose sorted edge list introduces vertices in id order
    for text in ("0 1\n1 2\n2 3", "0 1\n0 2\n1 3\n2 3", "0 1"):
        g = parse_graph(text)
        g2 = parse_graph(write_graph(g))
        assert g2.adjacency == g.adjacency


def test_split_by_ordering_partitions_arcs():
    d = parse_graph("0 1\n1 2\n2 0", directed=True)
    ordering = degeneracy_ordering(d.underlying_graph())
    up, down = split_by_ordering(d, ordering)
    assert up.is_dag and down.is_dag
    assert up.arc_count() + down.arc_count() == d.arc_count()


def test_digraph_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        Digraph.from_arcs(2, [(0, 0)])
    with pytest.raises(GraphError):
        Digraph.from_arcs(2, [(0, 1), (0, 1)])
    loop_ok = Digraph.from_arcs(2, [(0, 0)], allow_loops=True)
    assert loop_ok.arc_count() == 1


def test_cycle_core_examples():
    tree = parse_graph("0 1\n1 2\n2 3\n1 4\n4 5")
    assert cycle_core(tree.vertex_count, tree.edges(), False) == []
    dag = Digraph.from_arcs(5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (3, 4)])
    assert cycle_core(5, dag.arcs(), True) == []
    # a 4-cycle with a pendant path (and, directed, an arc into the cycle)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]
    assert cycle_core(6, edges, False) == edges[:4]
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (6, 0)]
    assert cycle_core(7, arcs, True) == arcs[:4]


def test_cycle_core_empty_exactly_on_forests_and_dags():
    rng = random.Random(63)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.4)))
        core = cycle_core(n, g.edges(), False)
        assert bool(core) == (degeneracy_ordering(g).degeneracy >= 2)
        # every survivor has two surviving neighbors
        deg = [0] * n
        for u, v in core:
            deg[u] += 1
            deg[v] += 1
        assert all(d == 0 or d >= 2 for d in deg)

        arcs = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.15
        ]
        d = Digraph.from_arcs(n, arcs)
        core = cycle_core(n, arcs, True)
        assert bool(core) == (not d.is_dag)
        assert set(core) <= set(arcs)
        heads = {v for _, v in core}
        tails = {u for u, _ in core}
        assert heads == tails


def test_graph_from_edges_matches_parse():
    rng = random.Random(64)
    for directed in (False, True):
        for _ in range(20):
            n = rng.randint(2, 10)
            pairs = {
                (i, j) for i in range(n) for j in range(n)
                if i != j and (directed or i < j) and rng.random() < 0.3
            }
            g = parse_graph("".join(f"{u} {v}\n" for u, v in sorted(pairs)), directed)
            ids = appearance_relabel(sorted(pairs))
            assert g.labels == tuple(str(t) for t in ids)
            relabelled = [(ids[u], ids[v]) for u, v in pairs]
            if directed:
                assert isinstance(g, Digraph)
                assert Digraph.from_arcs(g.vertex_count, relabelled) == g
            else:
                assert Graph.from_edges(g.vertex_count, g.edges()) == g
                assert Graph.from_edges(g.vertex_count, relabelled) == g


def test_split_halves_equal_checked_construction():
    rng = random.Random(65)
    for _ in range(30):
        n = rng.randint(1, 12)
        arcs = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        d = Digraph.from_arcs(n, arcs)
        for half in split_by_ordering(d, degeneracy_ordering(d.underlying_graph())):
            assert half == Digraph.from_arcs(n, half.arcs())
    looped = Digraph.from_arcs(2, [(0, 1), (1, 1)], allow_loops=True)
    with pytest.raises(GraphError):
        split_by_ordering(looped, degeneracy_ordering(looped.underlying_graph()))
    d = Digraph.from_arcs(3, [(0, 1)])
    with pytest.raises(GraphError):
        split_by_ordering(d, degeneracy_ordering(parse_graph("0 1")))
