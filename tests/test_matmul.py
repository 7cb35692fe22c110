import random
from fractions import Fraction
from itertools import product

import pytest

from cyclehom.comb import hom_alt_cycle_comb
from cyclehom.graphs import Digraph, GraphError
from cyclehom.matmul import (
    CostParams,
    EvaluationPlan,
    build_cherry_table,
    cost_model_ck,
    hom_alt_cycle_matmul,
    in_degree_classes,
    plan_matrix_chain,
)
from cyclehom.ops import OpCounter
from cyclehom.pipeline import hom_cycle_degenerate
from cyclehom.walks import build_walk_weights
from test_acceptance import three_degenerate_graph


def random_dag(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Digraph.from_arcs(n, arcs)


def weights(d):
    return build_walk_weights(d, 1)


def test_cherry_table_star():
    w = weights(Digraph.from_arcs(3, [(0, 1), (0, 2)]))
    table = build_cherry_table(w).entries
    assert table == {(1, 2): 1, (2, 1): 1, (1, 1): 1, (2, 2): 1}


def test_cherry_table_weighted_product():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    w = build_walk_weights(d, 2)  # w(0,3) = 1 + 2 walks
    table = build_cherry_table(w).entries
    # centers 0 (three out-arcs incl. weight-3 pair products) contribute
    assert table[(1, 2)] == 1
    assert table[(1, 3)] == 1 * 3
    assert table[(3, 3)] == 3 * 3 + 1 + 1  # centers 0, 1, 2


def test_cherry_table_explicit_weights():
    from cyclehom.walks import WeightedDigraph

    support = Digraph.from_arcs(3, [(0, 1), (0, 2)])
    w = WeightedDigraph(rows=[{1: 2, 2: 3}, {}, {}], source=support, horizon=1)
    table = build_cherry_table(w).entries
    assert table[(1, 2)] == 6
    assert table[(2, 1)] == 6
    assert table[(1, 1)] == 4
    assert table[(2, 2)] == 9


def test_cherry_table_edgeless():
    w = build_walk_weights(Digraph.from_arcs(3, []), 1)
    assert build_cherry_table(w).entries == {}


def test_plan_examples():
    cp = CostParams(omega=Fraction(2))
    plan = plan_matrix_chain((Fraction(0),) * 3, 3, cp)
    assert plan.objective == 1
    plan = plan_matrix_chain((Fraction(1),) * 3, 3, cp)
    assert plan.objective == 1
    for k in (2, 3, 4, 5):
        plan = plan_matrix_chain((Fraction(1, 2),) * k, k, cp)
        for i in range(k):
            assert plan.exponents[(i, (i + 1) % k)] == 1


def test_plan_validates_inputs():
    cp = CostParams()
    with pytest.raises(GraphError):
        plan_matrix_chain((Fraction(0),), 1, cp)
    with pytest.raises(GraphError):
        plan_matrix_chain((Fraction(2), Fraction(0)), 2, cp)


def brute_min_cost(d, k, cp):
    """Minimum predicted exponent over every chain-evaluation strategy."""
    one = Fraction(1)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def options(i, j):
        span = (j - i) % k
        if span == 1:
            return (one,)
        outs = []
        for c in options(i, (j - 1) % k):
            outs.append(c + d[(j - 1) % k])
        for c in options((i + 1) % k, j):
            outs.append(c + d[(i + 1) % k])
        for t in range(1, span):
            r = (i + t) % k
            mm = cp.mm_exponent(one - d[i], one - d[r], one - d[j])
            for c1 in options(i, r):
                for c2 in options(r, j):
                    outs.append(max(c1, c2, mm))
        return tuple(sorted(set(outs)))

    best = None
    for i in range(k):
        for j in range(i + 1, k):
            for c1 in options(i, j):
                for c2 in options(j, i):
                    cand = max(c1, c2)
                    if best is None or cand < best:
                        best = cand
    return best


def test_plan_is_minimal_over_all_strategies():
    rng = random.Random(21)
    cp = CostParams(omega=Fraction(2))
    for k in (3, 4):
        for _ in range(15):
            d = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(k))
            plan = plan_matrix_chain(d, k, cp)
            assert plan.objective == brute_min_cost(d, k, cp)


def test_cost_model_values():
    # exact optima land on grid points of the chosen steps
    val, arg = cost_model_ck(3, CostParams(omega=Fraction(2), grid_step=Fraction(1, 30)))
    assert val == Fraction(4, 3)
    val, _ = cost_model_ck(4, CostParams(omega=Fraction(2), grid_step=Fraction(1, 20)))
    assert val == Fraction(7, 5)
    val, _ = cost_model_ck(5, CostParams(omega=Fraction(2), grid_step=Fraction(1, 20)))
    assert val == Fraction(3, 2)
    val, _ = cost_model_ck(3, CostParams(omega=Fraction(3), grid_step=Fraction(1, 20)))
    assert val == Fraction(3, 2)


def test_cost_model_d_k_rule():
    # with omega = 2 the chain engine beats the table engine for k in 3..5
    for k in (3, 4, 5):
        val, _ = cost_model_ck(k, CostParams(omega=Fraction(2), grid_step=Fraction(1, 20)))
        comb_exp = Fraction(2) - Fraction(1, (k + 1) // 2)
        assert min(val, comb_exp) == val


def test_cost_model_budget_error():
    with pytest.raises(GraphError):
        cost_model_ck(5, CostParams(grid_step=Fraction(1, 100)), budget=1000)


def test_in_degree_classes():
    d = Digraph.from_arcs(5, [(0, 4), (1, 4), (2, 4), (3, 4), (0, 3)])
    classes = in_degree_classes(weights(d))
    assert classes[2] == [4]  # in-degree 4
    assert classes[0] == [3]  # in-degree 1
    total = sum(len(v) for v in classes.values())
    assert total == 2  # vertices with in-degree 0 are unclassified


def test_engines_agree():
    rng = random.Random(22)
    for _ in range(40):
        d = random_dag(rng, rng.randint(2, 9), 0.5)
        w = weights(d)
        for ell in (2, 3, 4):
            assert hom_alt_cycle_matmul(w, ell) == hom_alt_cycle_comb(w, ell)


def uniform_plan(d, k, step, closing_pair):
    """A valid, deliberately unoptimized plan: ``step(i, j)`` on every chain
    of span >= 2."""
    exponents = {}
    choices = {}
    for span in range(1, k):
        for i in range(k):
            j = (i + span) % k
            exponents[(i, j)] = Fraction(span)
            choices[(i, j)] = ("base",) if span == 1 else step(i, j)
    return EvaluationPlan(
        k=k, d=tuple(d), exponents=exponents, choices=choices,
        closing_pair=closing_pair, objective=Fraction(k),
    )


def all_right_plan(d, k, cp):
    """Always extend right, close at (0, 1)."""
    return uniform_plan(d, k, lambda i, j: ("right",), (0, 1))


def all_left_plan(d, k, cp):
    """Always extend left, close at (0, 1)."""
    return uniform_plan(d, k, lambda i, j: ("left",), (0, 1))


def all_split_plan(d, k, cp):
    """Split every chain at its first interior node."""
    return uniform_plan(
        d, k, lambda i, j: ("split", (i + 1) % k), (1, 2) if k > 2 else (0, 1)
    )


def test_plan_soundness_any_plan_same_count():
    rng = random.Random(23)
    for _ in range(15):
        d = random_dag(rng, rng.randint(3, 8), 0.5)
        w = weights(d)
        for ell in (2, 3, 4):
            reference = hom_alt_cycle_matmul(w, ell)
            assert hom_alt_cycle_matmul(w, ell, planner=all_right_plan) == reference
            assert hom_alt_cycle_matmul(w, ell, planner=all_left_plan) == reference
            assert hom_alt_cycle_matmul(w, ell, planner=all_split_plan) == reference


@pytest.mark.parametrize("ell, total", [(6, 40_021), (8, 274_935)])
def test_matmul_op_count_pinned(ell, total):
    # every plan step is one sparse product: one op per pair of nonzero
    # entries that meet, so the total is fixed by the plans' bracketing
    ops = OpCounter()
    g = three_degenerate_graph(random.Random(7), 120)
    hom_cycle_degenerate(g, ell, engine="matmul", ops=ops)
    assert ops.count == total


def test_class_size_bound():
    rng = random.Random(24)
    for _ in range(10):
        d = random_dag(rng, rng.randint(2, 10), 0.5)
        w = weights(d)
        m = d.arc_count()
        for c, verts in in_degree_classes(w).items():
            assert len(verts) <= max(1, 2 * m // (2**c))


def test_cost_model_picks_comb_at_omega_3():
    # the fact the auto planner relies on to skip the grid at omega = 3
    for k in (2, 3, 4, 5):
        val, _ = cost_model_ck(k, CostParams(grid_step=Fraction(1, 20)))
        assert val >= Fraction(2) - Fraction(1, (k + 1) // 2)
