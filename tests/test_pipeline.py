import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclehom
import cyclehom.comb
import cyclehom.matmul
import cyclehom.pipeline
from cyclehom.comb import hom_two_paths
from cyclehom.graphs import Digraph, Graph, GraphError, parse_graph
from cyclehom.matmul import CostParams, cost_model_ck
from cyclehom.oracle import enumerate_cycle_orientations, hom_count_brute, trace_power
from cyclehom.ops import OpCounter
from cyclehom.pipeline import (
    EngineError,
    _engine_for,
    _oriented_pair,
    _two_path_sum,
    hom_cycle_degenerate,
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


def random_digraph(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Digraph.from_arcs(n, arcs)


K3 = parse_graph("0 1\n0 2\n1 2")
C6 = parse_graph("0 1\n1 2\n2 3\n3 4\n4 5\n5 0")


def test_spec_values():
    assert hom_cycle_degenerate(K3, 6) == 66
    assert hom_cycle_degenerate(K3, 3) == 6
    assert hom_cycle_degenerate(C6, 6) == 132
    empty = Graph(5, ((), (), (), (), ()), 0)
    for ell in (3, 4, 7):
        assert hom_cycle_degenerate(empty, ell) == 0


def test_rejects_short_cycles_and_bad_engine():
    with pytest.raises(GraphError):
        hom_cycle_degenerate(K3, 2)
    with pytest.raises(GraphError):
        hom_cycle_degenerate(K3, 4, engine="fft")


def test_matches_trace_oracle_undirected():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10), 0.35)
        for ell in range(3, 9):
            want = trace_power(g, ell)
            assert hom_cycle_degenerate(g, ell, engine="comb", cross_check=True) == want
            assert hom_cycle_degenerate(g, ell, engine="matmul") == want
            assert hom_cycle_degenerate(g, ell, engine="auto") == want


def test_matches_trace_oracle_directed():
    rng = random.Random(32)
    for _ in range(25):
        d = random_digraph(rng, rng.randint(1, 8), 0.3)
        for ell in range(3, 8):
            want = trace_power(d, ell)
            assert hom_cycle_degenerate(d, ell, engine="comb") == want
            assert hom_cycle_degenerate(d, ell, engine="matmul") == want


def test_directed_graph_input_form():
    g = parse_graph("0 1\n1 2\n2 0", directed=True)
    assert hom_cycle_degenerate(g, 3) == 3
    assert hom_cycle_degenerate(g, 4) == 0
    assert hom_cycle_degenerate(g, 6) == 3


def test_ordering_invariance_under_relabeling():
    rng = random.Random(33)
    g = random_graph(rng, 9, 0.4)
    reference = hom_cycle_degenerate(g, 6)
    for _ in range(5):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        adj = [[] for _ in range(g.vertex_count)]
        for u, v in g.edges():
            adj[perm[u]].append(perm[v])
            adj[perm[v]].append(perm[u])
        relabeled = Graph(
            g.vertex_count,
            tuple(tuple(sorted(a)) for a in adj),
            g.edge_count,
        )
        assert hom_cycle_degenerate(relabeled, 6) == reference


def test_multiplicity_identity_vs_orientation_sum():
    # the composition-sum driver equals summing brute counts over all
    # labeled acyclic orientations of the cycle
    rng = random.Random(34)
    for _ in range(10):
        n = rng.randint(2, 6)
        arcs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        dag = Digraph.from_arcs(n, arcs)
        und = dag.underlying_graph()
        for ell in (3, 4, 5, 6):
            direct = sum(
                hom_count_brute(h, dag)
                for h, acyclic, _ in enumerate_cycle_orientations(ell)
                if acyclic
            )
            assert hom_cycle_degenerate(und, ell) == direct


def test_engine_invariance_larger():
    rng = random.Random(35)
    for _ in range(5):
        g = random_graph(rng, 40, 0.08)
        for ell in (6, 7):
            assert hom_cycle_degenerate(g, ell, engine="comb") == hom_cycle_degenerate(
                g, ell, engine="matmul"
            )


def test_default_engine_long_cycle():
    # the auto planner must not run the cost-model grid at omega = 3,
    # which exceeds its point budget from base size 7 (length 14) on
    assert hom_cycle_degenerate(K3, 14) == 2**14 + 2


def test_auto_picks_comb_when_the_cost_grid_is_over_budget():
    # From base size 7 on the planner's grid exceeds the cost model's point
    # budget at any omega; auto then returns comb instead of raising.
    assert _engine_for(7) == "comb"
    with pytest.raises(GraphError):
        cost_model_ck(7, CostParams(omega=Fraction(2), grid_step=Fraction(1, 20)))


@pytest.mark.parametrize("omega", [Fraction(2), Fraction(5, 2), Fraction(3)])
def test_auto_is_comb_at_every_omega_without_the_cost_model(monkeypatch, omega):
    # execution is always classical, so auto prices engines at omega = 3,
    # and a matmul engine bracketing its chains at omega counts the same
    def no_model(*args, **kwargs):
        raise AssertionError("auto must not run the cost model")

    monkeypatch.setattr(cyclehom.matmul, "_vector_objective", no_model)
    for p in range(2, 9):
        assert _engine_for(p) == "comb"
    monkeypatch.setattr(cyclehom.matmul, "_CLASSICAL", CostParams(omega=omega))
    monkeypatch.setattr(cyclehom.matmul, "_PLAN_CACHE", {})
    g = random_graph(random.Random(11), 30, 0.12)
    for ell in (6, 8):
        assert hom_cycle_degenerate(g, ell, engine="matmul") == hom_cycle_degenerate(g, ell)


def test_counting_at_omega_2_leaves_numpy_out():
    src = str(Path(cyclehom.__file__).resolve().parent.parent)
    probe = (
        "import sys\n"
        "from cyclehom.graphs import parse_graph\n"
        "from cyclehom.pipeline import hom_cycle_degenerate\n"
        "k3 = parse_graph('0 1\\n0 2\\n1 2')\n"
        "print(hom_cycle_degenerate(k3, 8), hom_cycle_degenerate(k3, 8, engine='matmul'),"
        " 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    )
    assert out.stdout.split() == ["258", "258", "False"]


def reciprocal_digraph(rng, n, p, share):
    """A random digraph in which about ``share`` of the arcs have their
    reverse arc too."""
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.add((u, v) if rng.random() < 0.5 else (v, u))
                if rng.random() < share:
                    arcs |= {(u, v), (v, u)}
    return Digraph.from_arcs(n, sorted(arcs))


def test_one_pass_two_path_sum_matches_the_split_counts():
    rng = random.Random(1720)
    for trial in range(30):
        n = rng.randint(1, 10)
        if trial % 2:
            g = reciprocal_digraph(rng, n, 0.5, 0.4)
        else:
            g = random_graph(rng, n, rng.choice((0.3, 0.6)))
        for length in range(3, 11):
            pair, _ = _oriented_pair(g, length)
            one_ops, split_ops = OpCounter(), OpCounter()
            split = sum(hom_two_paths(pair, a, length - a, split_ops) for a in range(1, length))
            assert _two_path_sum(pair, length, one_ops) == split
            assert one_ops.count == split_ops.count


def test_cross_check_catches_a_wrong_two_path_sum(monkeypatch):
    g = reciprocal_digraph(random.Random(1721), 8, 0.6, 0.5)
    assert hom_cycle_degenerate(g, 6, cross_check=True) == trace_power(g, 6)
    right = cyclehom.pipeline._two_path_sum
    monkeypatch.setattr(
        cyclehom.pipeline, "_two_path_sum", lambda *args: right(*args) + 1
    )
    with pytest.raises(EngineError):
        hom_cycle_degenerate(g, 6, cross_check=True)


@pytest.mark.parametrize("closed_form", ["_trace_square", "_trace_cube"])
def test_cross_check_catches_a_wrong_closed_form(monkeypatch, closed_form):
    g = reciprocal_digraph(random.Random(1722), 8, 0.6, 0.5)
    u = random_graph(random.Random(1723), 8, 0.6)
    for graph in (g, u):
        assert hom_cycle_degenerate(graph, 7, cross_check=True) == trace_power(graph, 7)
    right = getattr(cyclehom.comb, closed_form)
    # doubling moves every nonzero z**l coefficient
    monkeypatch.setattr(cyclehom.comb, closed_form, lambda *args: 2 * right(*args))
    for graph in (g, u):
        with pytest.raises(EngineError, match="closed-form"):
            hom_cycle_degenerate(graph, 7, cross_check=True)
