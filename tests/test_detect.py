import random
import warnings
from itertools import combinations

import pytest

import cyclehom.detect
import cyclehom.general
from cyclehom.detect import (
    GadgetInstance,
    PartitionedGraph,
    build_detection_gadget,
    detect_cycle_degenerate,
    detect_directed_cycle,
    transversal_count,
)
from cyclehom.general import detect_cycle_general_directed
from cyclehom.graphs import (
    Digraph,
    Graph,
    GraphError,
    cycle_core,
    degeneracy_ordering,
    parse_graph,
)
from cyclehom.ops import OpCounter
from cyclehom.oracle import has_simple_cycle_brute
from cyclehom.pipeline import EngineError, hom_cycle_degenerate


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


def brute_transversal_homs(pg: PartitionedGraph) -> int:
    g = pg.graph
    p = pg.part_count
    if isinstance(g, Digraph):
        def adjacent(u, v):
            return v in g.out_adjacency[u]
    else:
        def adjacent(u, v):
            return v in g.adjacency[u]

    part_of = {}
    for i, part in enumerate(pg.parts):
        for v in part:
            part_of[v] = i
    total = 0

    def extend(seq, used):
        nonlocal total
        if len(seq) == p:
            if adjacent(seq[-1], seq[0]):
                total += 1
            return
        for v in range(g.vertex_count):
            i = part_of[v]
            if used & (1 << i):
                continue
            if seq and not adjacent(seq[-1], v):
                continue
            extend(seq + [v], used | (1 << i))

    extend([], 0)
    return total


def cycle_graph(k):
    adj = tuple(tuple(sorted({(i - 1) % k, (i + 1) % k})) for i in range(k))
    return Graph(k, adj, k)


def test_transversal_examples():
    c4 = cycle_graph(4)
    pg = PartitionedGraph(c4, ((0,), (1,), (2,), (3,)))
    result = transversal_count(pg)
    assert result.hom_transversals == 8
    assert result.cycle_transversals == 1

    k3 = parse_graph("0 1\n0 2\n1 2")
    result = transversal_count(PartitionedGraph(k3, ((0,), (1,), (2,))))
    assert result.hom_transversals == 6
    assert result.cycle_transversals == 1

    edgeless = Graph(3, ((), (), ()), 0)
    result = transversal_count(PartitionedGraph(edgeless, ((0,), (1,), (2,))))
    assert result.hom_transversals == 0


def test_partition_validation():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        PartitionedGraph(g, ((0, 1), (2, 3)))  # too few parts
    with pytest.raises(GraphError):
        PartitionedGraph(g, ((0, 1), (1, 2), (3,)))  # overlap
    with pytest.raises(GraphError):
        PartitionedGraph(g, ((0,), (1,), (2,)))  # not covering


def test_transversal_matches_brute_force():
    rng = random.Random(51)
    for _ in range(30):
        n = rng.randint(4, 12)
        p = rng.randint(3, min(6, n))
        g = random_graph(rng, n, 0.45)
        parts = [[] for _ in range(p)]
        for v in range(n):
            parts[rng.randrange(p)].append(v)
        pg = PartitionedGraph(g, tuple(tuple(x) for x in parts))
        assert transversal_count(pg).hom_transversals == brute_transversal_homs(pg)


def test_gadget_directed_triangle():
    d3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    gadget = build_detection_gadget(d3, 3, ((0,), (1,), (2,)))
    graph = gadget.partitioned.graph
    assert graph.vertex_count == 6
    assert graph.edge_count == 6
    assert gadget.partitioned.part_count == 6
    assert transversal_count(gadget.partitioned).cycle_transversals == 1


def test_gadget_dag_has_no_transversal():
    dag = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    gadget = build_detection_gadget(dag, 3, ((0, 3), (1,), (2,)))
    assert transversal_count(gadget.partitioned).hom_transversals == 0


def test_gadget_always_2_degenerate():
    rng = random.Random(52)
    for _ in range(15):
        n = rng.randint(3, 10)
        arcs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4
        ]
        d = Digraph.from_arcs(n, arcs)
        parts = [[] for _ in range(3)]
        for v in range(n):
            parts[rng.randrange(3)].append(v)
        gadget = build_detection_gadget(d, 3, tuple(tuple(x) for x in parts))
        g = gadget.partitioned.graph
        if g.edge_count:
            assert degeneracy_ordering(g).degeneracy <= 2


def count_consistent_directed_cycles(d: Digraph, cls: list[int], k: int) -> int:
    """Simple directed k-cycles whose classes run 0,1,...,k-1 cyclically."""
    total = 0

    def extend(seq):
        nonlocal total
        if len(seq) == k:
            if seq[0] in d.out_adjacency[seq[-1]]:
                total += 1
            return
        for v in d.out_adjacency[seq[-1]]:
            if v in seq:
                continue
            if cls[v] != (cls[seq[-1]] + 1) % k:
                continue
            extend(seq + [v])

    for start in range(d.vertex_count):
        if cls[start] == 0:
            extend([start])
    return total


def test_gadget_multiplicity_matches_cycle_count():
    # each consistent directed k-cycle contributes exactly 2 * (2k)
    # transversal homomorphisms of the gadget
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(3, 8)
        arcs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.45
        ]
        d = Digraph.from_arcs(n, arcs)
        k = 3
        cls = [rng.randrange(k) for _ in range(n)]
        parts = tuple(
            tuple(v for v in range(n) if cls[v] == i) for i in range(k)
        )
        gadget = build_detection_gadget(d, k, parts)
        if any(not part for part in gadget.partitioned.parts):
            continue
        homs = transversal_count(gadget.partitioned).hom_transversals
        cycles = count_consistent_directed_cycles(d, cls, k)
        assert homs == 2 * (2 * k) * cycles


def test_detect_directed_cycle():
    d3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert detect_directed_cycle(d3, 3, seed=1)
    c4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not detect_directed_cycle(c4, 3, reps=40, seed=1)
    assert detect_directed_cycle(c4, 4, seed=1)


def test_detect_directed_cycle_longer_target():
    # odd transversal length: subdivide one arc class into a longer path
    d3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert detect_directed_cycle(d3, 3, seed=2, cycle_length=7)
    dag = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not detect_directed_cycle(dag, 3, reps=20, seed=2, cycle_length=7)
    gadget = build_detection_gadget(
        d3, 3, ((0,), (1,), (2,)), cycle_length=7
    )
    assert gadget.partitioned.part_count == 7


def test_detect_cycle_degenerate_graphs():
    c6 = cycle_graph(6)
    assert detect_cycle_degenerate(c6, 6, seed=3)
    tree = parse_graph("0 1\n1 2\n2 3\n3 4\n1 5\n5 6")
    assert not detect_cycle_degenerate(tree, 6, reps=25, seed=3)
    # girth above k: an 8-cycle has no 6-cycle
    assert not detect_cycle_degenerate(cycle_graph(8), 6, reps=25, seed=3)


def test_detect_cycle_degenerate_directed():
    d6 = Digraph.from_arcs(6, [(i, (i + 1) % 6) for i in range(6)])
    assert detect_cycle_degenerate(d6, 6, seed=4)
    dag = Digraph.from_arcs(6, [(i, i + 1) for i in range(5)])
    assert not detect_cycle_degenerate(dag, 6, reps=25, seed=4)


def test_detect_small_k_uses_direct_search():
    k3 = parse_graph("0 1\n0 2\n1 2")
    assert detect_cycle_degenerate(k3, 3)
    assert not detect_cycle_degenerate(cycle_graph(5), 4)
    assert has_simple_cycle_brute(cycle_graph(5), 5)
    assert detect_cycle_degenerate(cycle_graph(5), 5)


def test_degeneracy_warning():
    rng = random.Random(54)
    g = random_graph(rng, 16, 0.9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        detect_cycle_degenerate(g, 6, reps=1, seed=5, degeneracy_warning=2)
    assert any("degeneracy" in str(w.message) for w in caught)


def partitioned_with_acyclic_attachments(rng, directed):
    """A random graph or digraph with pendant trees (undirected) or DAG
    tails (directed) hung on it, randomly partitioned, plus one edge inside
    every part with two vertices."""
    base = rng.randint(3, 8)
    n = base + rng.randint(1, 6)
    pairs = {
        (u, v) for u in range(base) for v in range(base)
        if u != v and (directed or u < v) and rng.random() < 0.6
    }
    for v in range(base, n):
        # a new vertex only receives or only sends arcs: never on a cycle
        into = rng.random() < 0.5
        for u in rng.sample(range(v), min(v, rng.randint(1, 2)) if directed else 1):
            pairs.add((u, v) if into or not directed else (v, u))
    p = rng.randint(3, min(6, n))
    parts = [[] for _ in range(p)]
    for v in range(n):
        parts[rng.randrange(p)].append(v)
    for part in parts:
        if len(part) >= 2:
            u, v = rng.sample(part, 2)
            pairs.add((u, v) if directed else (min(u, v), max(u, v)))
    pairs = sorted(pairs)
    graph = Digraph.from_arcs(n, pairs) if directed else Graph.from_edges(n, pairs)
    return PartitionedGraph(graph, tuple(tuple(x) for x in parts))


def test_transversal_count_ignores_trees_tails_and_intra_part_edges():
    rng = random.Random(55)
    positive = 0
    for directed in (False, True):
        for _ in range(40):
            pg = partitioned_with_acyclic_attachments(rng, directed)
            expected = brute_transversal_homs(pg)
            assert transversal_count(pg).hom_transversals == expected
            positive += expected > 0
    assert positive > 10


def test_engine_errors_still_raise():
    pg = PartitionedGraph(cycle_graph(4), ((0,), (1,), (2,), (3,)))
    with pytest.raises(EngineError):
        transversal_count(pg, hom_engine=lambda g, p: 1)

    def broken(g, p):
        raise EngineError("broken engine")

    with pytest.raises(EngineError):
        transversal_count(pg, hom_engine=broken)


def _colour_by_residue(rng, n, k):
    return tuple(tuple(range(i, n, k)) for i in range(k))


def test_soundness_when_the_core_survives(monkeypatch):
    # Colouring vertex i of a long cycle by i mod k keeps the whole cycle
    # consistent, so its cycle core survives and every term is counted;
    # the cycle is longer than k, so no detector may answer True.
    monkeypatch.setattr(cyclehom.detect, "_random_partition", _colour_by_residue)
    layered = cyclehom.general.layered_subgraph
    monkeypatch.setattr(
        cyclehom.general, "layered_subgraph",
        lambda d, colors, k: layered(d, [v % k for v in range(d.vertex_count)], k),
    )
    calls = []

    def engine(g, p):
        calls.append(p)
        return hom_cycle_degenerate(g, p)

    c8 = Digraph.from_arcs(8, [(i, (i + 1) % 8) for i in range(8)])
    assert not detect_directed_cycle(c8, 4, reps=2, seed=1, hom_engine=engine)
    assert calls and set(calls) == {8}
    ops = OpCounter()
    assert not detect_cycle_general_directed(c8, 4, reps=2, seed=1, ops=ops)
    assert ops.count > 0

    calls.clear()
    assert not detect_cycle_degenerate(cycle_graph(12), 6, reps=2, seed=1, hom_engine=engine)
    assert calls and set(calls) == {6}


def test_transversal_count_skips_dag_terms():
    # A directed term whose kept arcs form a DAG has no closed walk, so it
    # must not reach the engine; the total stays exact.
    rng = random.Random(56)
    calls = []

    def engine(g, p):
        calls.append(g.is_dag)
        return hom_cycle_degenerate(g, p)

    positive = 0
    for _ in range(40):
        pg = partitioned_with_acyclic_attachments(rng, True)
        expected = brute_transversal_homs(pg)
        assert transversal_count(pg, hom_engine=engine).hom_transversals == expected
        positive += expected > 0
    assert calls and not any(calls)
    assert positive > 5


def _part_graph_shapes(rng, p):
    """Part-graph edge lists on p parts, one per shape, by name."""
    cycle = [(i, (i + 1) % p) for i in range(p)]
    shapes = {
        "cycle": cycle,
        "path": cycle[:-1],
        "star": [(0, i) for i in range(1, p)],
        "random": [
            (i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.5
        ],
    }
    if p >= 4:
        shapes["cycle plus chord"] = cycle + [(0, 2)]
    if p >= 5:
        # triangle 0-1-2 and cycle 0-3-...-(p-1), sharing part 0
        shapes["two cycles"] = [(0, 1), (1, 2), (2, 0), (0, 3)] + [
            (i, (i + 1) % p) for i in range(3, p)
        ]
    return shapes


def partitioned_on_part_graph(rng, p, part_edges, directed):
    """Parts of 1-3 vertices, edges only between parts adjacent in
    ``part_edges`` (each such pair joined at least once), and now and then
    an edge inside a part."""
    parts, n = [], 0
    for _ in range(p):
        size = rng.randint(1, 3)
        parts.append(tuple(range(n, n + size)))
        n += size
    pairs = set()
    for i, j in part_edges:
        joins = [(u, v) for u in parts[i] for v in parts[j] if rng.random() < 0.6]
        joins = joins or [(rng.choice(parts[i]), rng.choice(parts[j]))]
        for u, v in joins:
            if not directed:
                pairs.add((min(u, v), max(u, v)))
                continue
            if rng.random() < 0.7:
                pairs.add((u, v))
            if rng.random() < 0.5 or (v, u) not in pairs and (u, v) not in pairs:
                pairs.add((v, u))
    for part in parts:
        if len(part) >= 2 and rng.random() < 0.3:
            pairs.add((part[0], part[1]))
    pairs = sorted(pairs)
    graph = Digraph.from_arcs(n, pairs) if directed else Graph.from_edges(n, pairs)
    return PartitionedGraph(graph, tuple(parts))


def test_transversal_count_on_each_part_graph_shape():
    # The terms kept are the part sets connected and dominating in the
    # part graph; each shape drops a different share of the subsets.
    rng = random.Random(57)
    positive = {}
    for directed in (False, True):
        for _ in range(12):
            p = rng.randint(3, 7)
            for name, part_edges in _part_graph_shapes(rng, p).items():
                pg = partitioned_on_part_graph(rng, p, part_edges, directed)
                expected = brute_transversal_homs(pg)
                got = transversal_count(pg).hom_transversals
                assert got == expected, (name, directed, p)
                positive[name] = positive.get(name, 0) + (expected > 0)
    # Two cycles sharing a part have no cycle through every part.
    assert positive["two cycles"] == positive["path"] == positive["star"] == 0
    for name in ("cycle", "cycle plus chord", "random"):
        assert positive[name] > 2, name


def _recording_terms(monkeypatch):
    """Patch ``_induced_subgraph`` so that an engine can read which parts
    its term keeps; returns (engine, the recorded part tuples)."""
    last, calls = [], []
    induced = cyclehom.detect._induced_subgraph

    def recording_induced(pg, keep, edges):
        last[:] = [keep]
        return induced(pg, keep, edges)

    def engine(g, p):
        calls.append(last[0])
        return hom_cycle_degenerate(g, p)

    monkeypatch.setattr(cyclehom.detect, "_induced_subgraph", recording_induced)
    return engine, calls


def _part_neighbours(pg):
    part_of = {v: i for i, part in enumerate(pg.parts) for v in part}
    g = pg.graph
    pairs = g.arcs() if isinstance(g, Digraph) else g.edges()
    nbrs = [set() for _ in range(pg.part_count)]
    for u, v in pairs:
        if part_of[u] != part_of[v]:
            nbrs[part_of[u]].add(part_of[v])
            nbrs[part_of[v]].add(part_of[u])
    return nbrs


def test_gadget_terms_are_connected_and_dominating(monkeypatch):
    # Every arc runs from class i to class i + 1, so the k = 4 gadget's
    # core meets all 8 parts and its part graph is the 8-cycle.
    k = 4
    n = 8
    cls = [v % k for v in range(n)]
    d = Digraph.from_arcs(
        n, [(u, v) for u in range(n) for v in range(n) if cls[v] == (cls[u] + 1) % k]
    )
    partition = tuple(tuple(v for v in range(n) if cls[v] == i) for i in range(k))
    pg = build_detection_gadget(d, k, partition).partitioned
    p = pg.part_count
    engine, calls = _recording_terms(monkeypatch)
    homs = transversal_count(pg, hom_engine=engine).hom_transversals
    assert homs == 2 * (2 * k) * count_consistent_directed_cycles(d, cls, k) > 0
    assert 0 < len(calls) <= 2 * p + 1
    nbrs = _part_neighbours(pg)
    assert all(len(nbrs[i]) == 2 for i in range(p))
    for keep in calls:
        reach, frontier = {keep[0]}, [keep[0]]
        while frontier:
            for j in nbrs[frontier.pop()] & set(keep) - reach:
                reach.add(j)
                frontier.append(j)
        assert reach == set(keep), keep
        assert set(keep).union(*(nbrs[i] for i in keep)) == set(range(p)), keep


def test_complete_part_graph_keeps_every_term(monkeypatch):
    # On a complete part graph every part set is connected and dominating,
    # so every subset of two or more parts (each keeps an edge) is counted.
    rng = random.Random(58)
    p = 5
    part_edges = [(i, j) for i in range(p) for j in range(i + 1, p)]
    pg = partitioned_on_part_graph(rng, p, part_edges, directed=False)
    engine, calls = _recording_terms(monkeypatch)
    assert transversal_count(pg, hom_engine=engine).hom_transversals == (
        brute_transversal_homs(pg)
    )
    assert sorted(calls) == sorted(
        keep for size in range(2, p + 1) for keep in combinations(range(p), size)
    )


def test_gadget_rejects_out_of_range_vertices():
    d3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    for partition in (((0,), (1,), (2, 5)), ((0,), (1,), (2, -1)), ((0,), (1, 1), (2,))):
        with pytest.raises(GraphError):
            build_detection_gadget(d3, 3, partition)


@pytest.mark.parametrize("reps", [0, -3])
@pytest.mark.parametrize(
    "detector, k",
    [
        (detect_directed_cycle, 3),
        (detect_cycle_degenerate, 3),
        (detect_cycle_degenerate, 6),
        (detect_cycle_general_directed, 3),
    ],
)
def test_detectors_reject_nonpositive_repetitions(detector, k, reps):
    triangle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError):
        detector(triangle, k, reps=reps, seed=1)


@pytest.mark.parametrize(
    "detector, k",
    [
        (detect_directed_cycle, 5),
        (detect_cycle_degenerate, 4),
        (detect_cycle_degenerate, 7),
        (detect_cycle_general_directed, 5),
    ],
)
def test_detectors_skip_inputs_with_fewer_than_k_vertices(monkeypatch, detector, k):
    # every colouring of fewer than k vertices leaves a class empty, so no
    # repetition should run
    def no_repetition(*args, **kwargs):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(cyclehom.detect, "_random_partition", no_repetition)
    monkeypatch.setattr(cyclehom.general, "layered_subgraph", no_repetition)
    triangle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert detector(triangle, k, seed=1) is False
    if detector is detect_cycle_degenerate:
        assert detector(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]), k, seed=1) is False


def test_degeneracy_ordering_only_runs_above_the_warning_degree(monkeypatch):
    # The degeneracy is at most the maximum degree, so a graph whose degrees
    # stay within the warning threshold needs no ordering to decide.
    def no_ordering(g):
        raise AssertionError("degeneracy ordering ran")

    monkeypatch.setattr(cyclehom.detect, "degeneracy_ordering", no_ordering)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert detect_cycle_degenerate(cycle_graph(6), 6, seed=3)
        assert detect_cycle_degenerate(cycle_graph(6), 6, seed=3, degeneracy_warning=2)
    with pytest.raises(AssertionError, match="ordering ran"):
        detect_cycle_degenerate(cycle_graph(6), 6, seed=3, degeneracy_warning=1)


def _cyclic_part_graph(rng, p):
    """The edges of a p-cycle on the parts in a shuffled order."""
    order = list(range(p))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % p]) for i in range(p)]


def _rebuilt_digraph(pg):
    """The same partitioned digraph, rebuilt from its arcs."""
    g = pg.graph
    return PartitionedGraph(Digraph.from_arcs(g.vertex_count, g.arcs()), pg.parts)


def _core_part_graph_is_cycle(pg):
    """Whether the part graph of ``pg``'s cycle core is one p-cycle."""
    part_of = {v: i for i, part in enumerate(pg.parts) for v in part}
    g = pg.graph
    pairs = g.arcs() if isinstance(g, Digraph) else g.edges()
    core = cycle_core(
        g.vertex_count,
        [(u, v) for u, v in pairs if part_of[u] != part_of[v]],
        pg.directed(),
    )
    nbrs = [set() for _ in range(pg.part_count)]
    for u, v in core:
        nbrs[part_of[u]].add(part_of[v])
        nbrs[part_of[v]].add(part_of[u])
    if any(len(n) != 2 for n in nbrs):
        return False
    reach, frontier = {0}, [0]
    while frontier:
        for j in nbrs[frontier.pop()] - reach:
            reach.add(j)
            frontier.append(j)
    return len(reach) == pg.part_count


def _recording_graphs(monkeypatch):
    """A recording engine (see ``_recording_terms``) that also keeps the
    graph each call receives; returns (engine, [(parts, graph), ...])."""
    engine, keeps = _recording_terms(monkeypatch)
    calls = []

    def recording(g, p):
        homs = engine(g, p)
        calls.append((keeps[-1], g))
        return homs

    return recording, calls


def test_transversal_count_on_cyclic_part_graphs(monkeypatch):
    # On a cyclic part graph Q the total is one oriented count (undirected)
    # or one per direction (directed), whatever order Q visits the parts in.
    rng = random.Random(59)
    engine, calls = _recording_graphs(monkeypatch)
    positive = {"graph": 0, "digraph": 0, "rebuilt digraph": 0}
    cyclic = both_directions = 0
    for trial in range(150):
        p = 3 + trial % 5
        kind = list(positive)[trial // 5 % 3]
        pg = partitioned_on_part_graph(
            rng, p, _cyclic_part_graph(rng, p), directed=kind != "graph"
        )
        if kind == "rebuilt digraph":
            pg = _rebuilt_digraph(pg)
        expected = brute_transversal_homs(pg)
        calls.clear()
        got = transversal_count(pg, hom_engine=engine).hom_transversals
        assert got == expected, (kind, p, trial)
        positive[kind] += expected > 0
        if not _core_part_graph_is_cycle(pg):
            continue
        cyclic += 1
        assert len(calls) <= (1 if kind == "graph" else 2)
        for parts, g in calls:
            assert parts == tuple(range(p)) and isinstance(g, Digraph)
        both_directions += len(calls) == 2
    assert all(count > 10 for count in positive.values()), positive
    assert cyclic > 50 and both_directions > 2, (cyclic, both_directions)


def test_pruned_cyclic_part_graph_falls_back_to_the_dominating_sum(monkeypatch):
    # Parts 0..p-1 joined in a shuffled cycle by 4-cycles between
    # consecutive parts, except that one consecutive pair is joined only by
    # a pendant edge: the core drops it, its Q is a path, and the count
    # runs on the dominating sum with the input's own graph type.
    rng = random.Random(60)
    engine, calls = _recording_graphs(monkeypatch)
    for p in range(3, 8):
        part_edges = _cyclic_part_graph(rng, p)
        parts = [[2 * i, 2 * i + 1] for i in range(p)]
        pairs = []
        for i, j in part_edges[1:]:
            pairs += [(u, v) for u in parts[i] for v in parts[j]]
        i, j = part_edges[0]
        parts[i].append(2 * p)
        pairs.append((2 * p, parts[j][0]))
        pg = PartitionedGraph(
            Graph.from_edges(2 * p + 1, [(min(e), max(e)) for e in pairs]),
            tuple(tuple(part) for part in parts),
        )
        calls.clear()
        assert transversal_count(pg, hom_engine=engine).hom_transversals == (
            brute_transversal_homs(pg)
        ) == 0
        assert calls and not any(isinstance(g, Digraph) for _, g in calls)
        assert any(len(keep) < p for keep, _ in calls)


def test_cyclic_part_graph_takes_one_count_per_direction(monkeypatch):
    rng = random.Random(61)
    engine, calls = _recording_graphs(monkeypatch)
    for p in range(3, 8):
        order = list(range(p))
        rng.shuffle(order)
        pg = PartitionedGraph(cycle_graph(p), tuple((v,) for v in order))
        calls.clear()
        assert transversal_count(pg, hom_engine=engine).cycle_transversals == 1
        assert [keep for keep, _ in calls] == [tuple(range(p))]
        assert isinstance(calls[0][1], Digraph)

        both = Digraph.from_arcs(
            p, [(i, (i + 1) % p) for i in range(p)] + [((i + 1) % p, i) for i in range(p)]
        )
        calls.clear()
        pg = PartitionedGraph(both, tuple((v,) for v in order))
        assert transversal_count(pg, hom_engine=engine).cycle_transversals == 2
        assert [keep for keep, _ in calls] == [tuple(range(p))] * 2
        assert all(isinstance(g, Digraph) for _, g in calls)


def test_engine_errors_still_raise_on_a_directed_cycle():
    both = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 1)])
    pg = PartitionedGraph(both, ((0,), (1,), (2,), (3,)))
    with pytest.raises(EngineError, match="divisible by 4"):
        transversal_count(pg, hom_engine=lambda g, p: 1)

    def broken(g, p):
        raise EngineError("broken engine")

    with pytest.raises(EngineError, match="broken engine"):
        transversal_count(pg, hom_engine=broken)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("cycle_length", [1, 5])
def test_gadget_length_is_checked_before_any_repetition(monkeypatch, n, cycle_length):
    # A target shorter than 2k is an error even when no repetition would
    # run (n < k) or before the first one does.
    def no_repetition(*args, **kwargs):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(cyclehom.detect, "_random_partition", no_repetition)
    d = Digraph.from_arcs(n, [(v, (v + 1) % n) for v in range(n)])
    with pytest.raises(GraphError, match="at least 2k"):
        detect_directed_cycle(d, 3, reps=4, seed=1, cycle_length=cycle_length)
    with pytest.raises(GraphError, match="k >= 3"):
        build_detection_gadget(d, 2, ((0,), tuple(range(1, n))))


TAILS = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
K8 = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
K8_ARCS = Digraph.from_arcs(8, [(u, v) for u in range(8) for v in range(8) if u != v])
# (answer, repetitions run) for seeds 1..8 at reps=12: the directed
# triangle with a tail survives a 3-colouring with probability 1/9, and K8
# has a consistent 6-cycle whenever all six classes are non-empty.
TRIANGLE_STREAM = [(True, 4), (True, 4), (True, 3), (False, 12),
                   (False, 12), (True, 1), (False, 12), (True, 3)]
K8_STREAM = [(True, 3), (False, 12), (True, 12), (True, 7),
             (False, 12), (True, 1), (True, 1), (True, 4)]


@pytest.mark.parametrize(
    "detector, graph, k, expected",
    [
        (detect_directed_cycle, TAILS, 3, TRIANGLE_STREAM),
        (detect_cycle_general_directed, TAILS, 3, TRIANGLE_STREAM),
        (detect_cycle_degenerate, K8, 6, K8_STREAM),
        (detect_cycle_degenerate, K8_ARCS, 6, K8_STREAM),
    ],
)
def test_random_stream_is_pinned(monkeypatch, detector, graph, k, expected):
    # Each repetition draws one colouring, n randrange(k) calls in vertex
    # order from one random.Random(seed); the gadget and the layered
    # detector therefore see the same colourings.
    drawn = []
    for module, name in ((cyclehom.detect, "_random_partition"),
                         (cyclehom.general, "layered_subgraph")):
        def counting(*args, original=getattr(module, name)):
            drawn.append(1)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    got = []
    for seed in range(1, 9):
        drawn.clear()
        got.append((detector(graph, k, reps=12, seed=seed), len(drawn)))
    assert got == expected


def _random_small_graphs(rng, count):
    """Random graphs (one in three) and digraphs on 3-10 vertices."""
    for trial in range(count):
        n = rng.randint(3, 10)
        density = rng.uniform(0.15, 0.6)
        kind = trial % 3
        pairs = [
            (u, v) for u in range(n) for v in range(n)
            if (u < v or kind and u != v) and rng.random() < density
        ]
        yield Digraph.from_arcs(n, pairs) if kind else Graph.from_edges(n, pairs)


def test_short_cycle_search_matches_brute_force():
    # k < 6 skips colour coding for an exhaustive search, which must agree
    # with the oracle's independent one.
    rng = random.Random(62)
    positive = 0
    for g in _random_small_graphs(rng, 300):
        for k in (3, 4, 5):
            expected = has_simple_cycle_brute(g, k)
            assert detect_cycle_degenerate(g, k) == expected, (g, k)
            positive += expected
    assert positive > 200
