"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is exact-arithmetic and seeded, so results are
reproducible.
"""

import math
import random
import time
from fractions import Fraction

from cyclehom.algebra import (
    build_recovery_system,
    decompose_linear_combination,
    tensor_product,
)
from cyclehom.comb import hom_alt_cycle_comb
from cyclehom.detect import (
    PartitionedGraph,
    detect_directed_cycle,
    transversal_count,
)
from cyclehom.general import detect_cycle_general_directed, hom_cycle_general
from cyclehom.graphs import Digraph, Graph
from cyclehom.matmul import CostParams, cost_model_ck
from cyclehom.ops import OpCounter
from cyclehom.oracle import (
    enumerate_cycle_orientations,
    hom_count_brute,
    trace_power,
)
from cyclehom.pipeline import hom_cycle_degenerate
from cyclehom.walks import build_walk_weights


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


def report(criterion, ok, detail):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, 0.3)
        for ell in range(3, 11):
            expected = trace_power(g, ell)
            assert hom_cycle_degenerate(g, ell, engine="comb") == expected
            assert hom_cycle_degenerate(g, ell, engine="matmul") == expected
            assert hom_cycle_general(g, ell) == expected
            checked += 1
    report(
        1,
        True,
        f"oracle equivalence on {checked} graph/length combos "
        f"({time.time() - started:.1f}s)",
    )


def three_degenerate_graph(rng, n, window=8):
    """Each vertex attaches to 3 earlier vertices within a recent window."""
    adj = [[] for _ in range(n)]
    m = 0
    for v in range(1, n):
        lo = max(0, v - window)
        cands = list(range(lo, v))
        rng.shuffle(cands)
        for u in cands[: min(3, len(cands))]:
            adj[u].append(v)
            adj[v].append(u)
            m += 1
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), m)


def test_criterion_2_cross_engine_equality():
    started = time.time()
    rng = random.Random(102)
    sizes = [300, 300] + [rng.randint(20, 300) for _ in range(48)]
    for index, n in enumerate(sizes):
        g = three_degenerate_graph(rng, n)
        for ell in (6, 8):
            comb = hom_cycle_degenerate(g, ell, engine="comb")
            matmul = hom_cycle_degenerate(g, ell, engine="matmul")
            assert comb == matmul, (index, n, ell)
    report(
        2,
        True,
        f"comb == matmul on 50 3-degenerate graphs (n up to 300, l in 6,8) "
        f"({time.time() - started:.1f}s)",
    )


def test_criterion_3_cost_model_reproduction():
    started = time.time()
    checks = [
        (3, 2, Fraction(1, 100), Fraction(4, 3), 0.02),
        (4, 2, Fraction(1, 100), Fraction(7, 5), 0.02),
        (5, 2, Fraction(1, 20), Fraction(3, 2), 0.05),  # coarsened per spec
        (3, 3, Fraction(1, 100), Fraction(3, 2), 0.02),
    ]
    results = []
    for k, omega, step, target, tolerance in checks:
        value, _ = cost_model_ck(k, CostParams(omega=Fraction(omega), grid_step=step))
        error = abs(float(value - target))
        assert error <= tolerance, (k, omega, float(value), float(target))
        results.append(f"c_{k}(w={omega})={float(value):.4f}")
    report(3, True, ", ".join(results) + f" ({time.time() - started:.1f}s)")


def test_criterion_4_multiplicity_identity():
    started = time.time()
    rng = random.Random(104)
    for trial in range(50):
        n = rng.randint(2, 6)
        arcs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        dag = Digraph.from_arcs(n, arcs)
        und = dag.underlying_graph()
        for ell in range(3, 9):
            orientation_sum = sum(
                hom_count_brute(h, dag)
                for h, _, _ in enumerate_cycle_orientations(ell)
            )
            assert hom_cycle_degenerate(und, ell) == orientation_sum, (trial, ell)
    report(
        4,
        True,
        f"composition sum equals the full orientation sum on 50 DAGs, l in 3..8 "
        f"({time.time() - started:.1f}s)",
    )


def brute_transversal_homs(pg: PartitionedGraph) -> int:
    g = pg.graph
    p = pg.part_count
    part_of = {}
    for i, part in enumerate(pg.parts):
        for v in part:
            part_of[v] = i
    total = 0

    def extend(seq, used):
        nonlocal total
        if len(seq) == p:
            if seq[0] in g.adjacency[seq[-1]]:
                total += 1
            return
        for v in range(g.vertex_count):
            i = part_of[v]
            if used & (1 << i):
                continue
            if seq and v not in g.adjacency[seq[-1]]:
                continue
            extend(seq + [v], used | (1 << i))

    extend([], 0)
    return total


def test_criterion_5_inclusion_exclusion():
    started = time.time()
    rng = random.Random(105)
    for trial in range(100):
        n = rng.randint(4, 14)
        p = rng.randint(3, min(6, n))
        g = random_graph(rng, n, rng.choice([0.3, 0.5]))
        parts = [[] for _ in range(p)]
        for v in range(n):
            parts[rng.randrange(p)].append(v)
        pg = PartitionedGraph(g, tuple(tuple(x) for x in parts))
        # the 2p divisibility is asserted inside transversal_count
        result = transversal_count(pg)
        assert result.hom_transversals == brute_transversal_homs(pg), trial
    report(
        5,
        True,
        f"inclusion-exclusion equals brute enumeration on 100 partitioned graphs "
        f"({time.time() - started:.1f}s)",
    )


def planted_cycle_instance(rng, n, k, extra_arcs):
    verts = rng.sample(range(n), k)
    arcs = {(verts[i], verts[(i + 1) % k]) for i in range(k)}
    while len(arcs) < k + extra_arcs:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return Digraph.from_arcs(n, sorted(arcs))


def random_dag_instance(rng, n, m):
    arcs = set()
    tries = 0
    while len(arcs) < m and tries < 10 * m:
        tries += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i < j:
            arcs.add((i, j))
    return Digraph.from_arcs(n, sorted(arcs))


def test_criterion_6_detection():
    started = time.time()
    rng = random.Random(106)
    k = 4
    trials = 100

    gadget_hits = 0
    general_hits = 0
    for trial in range(trials):
        d = planted_cycle_instance(rng, 50, k, extra_arcs=216)
        if detect_directed_cycle(d, k, seed=1000 + trial, delta=0.05):
            gadget_hits += 1
        if detect_cycle_general_directed(d, k, seed=1000 + trial, delta=0.05):
            general_hits += 1
    assert gadget_hits >= 95, gadget_hits
    assert general_hits >= 95, general_hits

    # soundness: random DAGs have no cycles at all; every repetition of
    # either detector must come back negative
    false_positives = 0
    for trial in range(1000):
        d = random_dag_instance(rng, 20, 30)
        if detect_directed_cycle(d, k, reps=2, seed=trial):
            false_positives += 1
        if detect_cycle_general_directed(d, k, reps=3, seed=trial):
            false_positives += 1
    assert false_positives == 0
    report(
        6,
        True,
        f"planted hits gadget={gadget_hits}/100 general={general_hits}/100, "
        f"0 false positives over 1000 cycle-free instances "
        f"({time.time() - started:.1f}s)",
    )


def test_criterion_7_homomorphism_algebra():
    started = time.time()
    rng = random.Random(107)

    def rnd_digraph(max_n):
        n = rng.randint(1, max_n)
        arcs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5
        ]
        return Digraph.from_arcs(n, arcs)

    for _ in range(50):
        h = rnd_digraph(4)
        g1 = rnd_digraph(4)
        g2 = rnd_digraph(4)
        product = tensor_product(g1, g2)
        assert hom_count_brute(h, product, max_host=16) == hom_count_brute(
            h, g1
        ) * hom_count_brute(h, g2)

    arc = Digraph.from_arcs(2, [(0, 1)])
    path2 = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    cherry = Digraph.from_arcs(3, [(0, 1), (0, 2)])
    pattern_sets = [
        ([arc], [Fraction(5)]),
        ([arc, path2], [Fraction(1), Fraction(1)]),
        ([arc, path2, cherry], [Fraction(2), Fraction(1), Fraction(3)]),
    ]
    for patterns, coefficients in pattern_sets:
        system = build_recovery_system(patterns, coefficients, seed=7)

        def oracle(d):
            return sum(
                int(c) * hom_count_brute(h, d, max_host=4096, max_pattern=12)
                for c, h in zip(system.coefficients, system.patterns)
            )

        for _ in range(20):
            g = rnd_digraph(4)
            recovered = decompose_linear_combination(system, oracle, g)
            assert recovered == [hom_count_brute(h, g) for h in system.patterns]
    report(
        7,
        True,
        "tensor multiplicativity on 50 pairs, recovery round-trips for k = 1..3 "
        f"on 20 targets each ({time.time() - started:.1f}s)",
    )


def two_degenerate_dag(rng, n):
    arcs = []
    for v in range(1, n):
        picks = rng.sample(range(v), min(2, v))
        arcs.extend((v, u) for u in picks)
    return Digraph.from_arcs(n, arcs)


def sparse_graph(rng, n, m):
    edges = set()
    tries = 0
    while len(edges) < m and tries < 10 * m:
        tries += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), len(edges))


def fitted_exponent(sizes, counts):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(c, 1)) for c in counts]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def test_criterion_8_scaling_smoke():
    started = time.time()
    rng = random.Random(108)

    comb_sizes = []
    comb_ops = []
    for exp in range(8, 15):
        n = 1 << exp
        dag = two_degenerate_dag(rng, n)
        w = build_walk_weights(dag, 1)
        ops = OpCounter()
        hom_alt_cycle_comb(w, 3, ops=ops)
        comb_sizes.append(n)
        comb_ops.append(ops.count)
    comb_exponent = fitted_exponent(comb_sizes, comb_ops)
    comb_constant = max(
        c / (n**1.5 * math.log(n) ** 2) for n, c in zip(comb_sizes, comb_ops)
    )
    assert comb_exponent <= 1.65, comb_exponent

    general_sizes = []
    general_ops = []
    for exp in range(8, 15):
        n = 1 << exp
        g = sparse_graph(rng, n, n)
        ops = OpCounter()
        hom_cycle_general(g, 6, ops=ops)
        general_sizes.append(g.edge_count)
        general_ops.append(ops.count)
    general_exponent = fitted_exponent(general_sizes, general_ops)
    general_constant = max(
        c / (m**1.67) for m, c in zip(general_sizes, general_ops)
    )
    assert general_exponent <= 1.8, general_exponent

    report(
        8,
        True,
        f"comb l=3 exponent {comb_exponent:.3f} (<=1.65), c={comb_constant:.3f}; "
        f"general k=6 exponent {general_exponent:.3f} (<=1.8), "
        f"c={general_constant:.3f} ({time.time() - started:.1f}s)",
    )
