import random
from fractions import Fraction

import pytest

from cyclehom.algebra import (
    BlowupSpec,
    _solve,
    blowup,
    build_recovery_system,
    decompose_linear_combination,
    digraphs_isomorphic,
    tensor_product,
)
from cyclehom.graphs import Digraph, GraphError
from cyclehom.oracle import hom_count_brute

ARC = Digraph.from_arcs(2, [(0, 1)])
PATH2 = Digraph.from_arcs(3, [(0, 1), (1, 2)])
CHERRY = Digraph.from_arcs(3, [(0, 1), (0, 2)])
C3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def random_digraph(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Digraph.from_arcs(n, arcs)


def test_tensor_product_examples():
    t = tensor_product(ARC, ARC)
    assert t.vertex_count == 4
    assert t.arc_count() == 1
    t = tensor_product(C3, C3)
    assert t.vertex_count == 9
    assert t.arc_count() == 9
    edgeless = Digraph.from_arcs(2, [])
    assert tensor_product(C3, edgeless).arc_count() == 0


def test_tensor_product_budget():
    big = Digraph.from_arcs(100, [])
    with pytest.raises(GraphError):
        tensor_product(big, big, max_vertices=500)


def test_tensor_multiplicativity():
    rng = random.Random(61)
    for _ in range(40):
        h = random_digraph(rng, rng.randint(1, 4), 0.5)
        g1 = random_digraph(rng, rng.randint(1, 4), 0.5)
        g2 = random_digraph(rng, rng.randint(1, 4), 0.5)
        combined = hom_count_brute(h, tensor_product(g1, g2), max_host=16)
        assert combined == hom_count_brute(h, g1) * hom_count_brute(h, g2)


def test_tensor_out_degree_bound():
    rng = random.Random(62)
    for _ in range(20):
        f = random_digraph(rng, rng.randint(1, 5), 0.5)
        g = random_digraph(rng, rng.randint(1, 5), 0.5)
        t = tensor_product(f, g)
        assert t.max_out_degree <= f.vertex_count * g.max_out_degree


def test_blowup_examples():
    b = blowup(BlowupSpec(ARC, (2, 3)))
    assert b.vertex_count == 5
    assert b.arc_count() == 6
    same = blowup(BlowupSpec(PATH2, (1, 1, 1)))
    assert digraphs_isomorphic(same, PATH2)


def test_blowup_hom_expansion():
    # hom(H, blowup(H_j, sizes)) expands as a sum over maps into H_j of
    # size products; spot-check against brute force on 3-vertex bases
    rng = random.Random(63)
    for _ in range(10):
        base = random_digraph(rng, 3, 0.6)
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        blown = blowup(BlowupSpec(base, sizes))
        for h in (ARC, PATH2, CHERRY):
            direct = hom_count_brute(h, blown, max_host=16)
            expected = 0
            n = base.vertex_count
            arcs = set(base.arcs())

            def maps(prefix):
                nonlocal expected
                if len(prefix) == h.vertex_count:
                    weight = 1
                    for v in prefix:
                        weight *= sizes[v]
                    expected += weight
                    return
                i = len(prefix)
                for cand in range(n):
                    good = True
                    for u, v in h.arcs():
                        if u == i and v < i and (cand, prefix[v]) not in arcs:
                            good = False
                        if v == i and u < i and (prefix[u], cand) not in arcs:
                            good = False
                    if good:
                        maps(prefix + [cand])

            maps([])
            assert direct == expected


def test_isomorphism_check():
    assert digraphs_isomorphic(PATH2, Digraph.from_arcs(3, [(2, 0), (0, 1)]))
    assert not digraphs_isomorphic(PATH2, CHERRY)
    with pytest.raises(GraphError):
        digraphs_isomorphic(Digraph.from_arcs(9, []), Digraph.from_arcs(9, []))


def test_recovery_scalar_case():
    system = build_recovery_system([ARC], [Fraction(5)], seed=1)
    assert len(system.probes) == 1

    def oracle(d):
        return 5 * hom_count_brute(ARC, d, max_host=64)

    rng = random.Random(64)
    g = random_digraph(rng, 4, 0.5)
    assert decompose_linear_combination(system, oracle, g) == [
        hom_count_brute(ARC, g)
    ]


def test_recovery_rejects_isomorphic_patterns():
    with pytest.raises(GraphError):
        build_recovery_system(
            [PATH2, Digraph.from_arcs(3, [(1, 0), (0, 2)])], [1, 1]
        )


def test_recovery_orders_patterns_by_size():
    system = build_recovery_system([PATH2, ARC], [2, 3], seed=2)
    sizes = [h.vertex_count + h.arc_count() for h in system.patterns]
    assert sizes == sorted(sizes)


def test_recovery_round_trip():
    rng = random.Random(65)
    patterns = [ARC, PATH2, CHERRY]
    system = build_recovery_system(patterns, [1, 1, 1], seed=3)

    def oracle(d):
        return sum(
            int(c) * hom_count_brute(h, d, max_host=256)
            for c, h in zip(system.coefficients, system.patterns)
        )

    for _ in range(8):
        g = random_digraph(rng, rng.randint(1, 4), 0.5)
        recovered = decompose_linear_combination(system, oracle, g)
        assert recovered == [hom_count_brute(h, g) for h in system.patterns]
    edgeless = Digraph.from_arcs(3, [])
    recovered = decompose_linear_combination(system, oracle, edgeless)
    assert recovered == [hom_count_brute(h, edgeless) for h in system.patterns]


def test_recovery_detects_bad_oracle():
    system = build_recovery_system([ARC, PATH2], [1, 1], seed=4)

    def broken(d):
        return 1 + sum(
            int(c) * hom_count_brute(h, d, max_host=256)
            for c, h in zip(system.coefficients, system.patterns)
        )

    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        decompose_linear_combination(system, broken, g)


def test_solve_swaps_rows_and_reports_singular_matrices():
    f = Fraction
    # the first pivot is 0, so the elimination must swap rows
    assert _solve([[f(0), f(2)], [f(3), f(1)]], [f(4), f(5)]) == [f(1), f(2)]
    assert _solve([[f(1), f(2)], [f(2), f(4)]], [f(1), f(2)]) is None
