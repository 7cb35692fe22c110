"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

The scipy reference must agree with the program's brute-force oracle on
small graphs, and the benchmark must count an answer that is off by one as
wrong and a run with a failed call as not correct.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from cyclehom.graphs import Digraph, parse_graph  # noqa: E402
from cyclehom.oracle import trace_power  # noqa: E402


def small_graphs():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        yield n, edges, False
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        yield n, arcs, True


@pytest.mark.parametrize("length", range(3, 9))
def test_closed_walks_matches_oracle(length):
    for n, pairs, directed in small_graphs():
        g = Digraph.from_arcs(n, pairs) if directed else parse_graph(gen.edge_text(pairs))
        # parse_graph drops isolated vertices; trace(A^l) does not depend on them
        assert refcheck.closed_walks(n, pairs, directed, length) == trace_power(g, length)


def test_off_by_one_count_is_wrong():
    n, edges = gen.three_degenerate_edges(random.Random(3), 30)
    want = refcheck.closed_walks(n, edges, False, 6)
    tally = run.Tally()
    tally.record("exact", want, want)
    assert (tally.failed, tally.wrong) == (0, 0)
    tally.record("one more", want + 1, want)
    tally.record("one less", want - 1, want)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 2)
    out = run.result(tally, {"wall_s": (1.0, "s")})
    assert out["correct"] is False


def test_failed_call_is_not_correct():
    tally = run.Tally()
    tally.record("raised", None, 12, "ValueError: boom")
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert run.result(tally, {"wall_s": (1.0, "s")})["correct"] is False
    tally = run.Tally()
    tally.record("exact", 12, 12)
    assert run.result(tally, {"wall_s": (1.0, "s")})["correct"] is True


def test_overflow_guard_refuses():
    n, edges = gen.three_degenerate_edges(random.Random(4), 50)
    with pytest.raises(refcheck.RefCheckError):
        refcheck.closed_walks(n, edges, False, 40)


def test_detection_answer_follows_construction():
    rng = random.Random(6)
    n, arcs, _ = gen.planted_cycle_arcs(rng, 20, 4, extra=10)
    assert refcheck.expected_detection(n, arcs, True, 4, built_with_cycle=True)
    n, dag = gen.dag_arcs(rng, 20, 60)
    assert not refcheck.expected_detection(n, dag, True, 4, built_with_cycle=False)
    n, tree = gen.tree_edges(rng, 30)
    assert not refcheck.expected_detection(n, tree, False, 6, built_with_cycle=False)
    with pytest.raises(refcheck.RefCheckError):
        refcheck.expected_detection(n, tree, False, 6, built_with_cycle=True)


def test_self_times_and_transparent_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["see-through", 5.0, 9.0, 0, None],
        ["deep", 6.0, 8.0, 2, None],
    ]
    own = self_times(spans, frozenset({"see-through"}))
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(2.0)


def test_tracer_marks_missing_names_and_restores():
    import cyclehom.walks as walks

    original = walks.build_walk_weights
    tracer = Tracer()
    tracer.wrap("cyclehom.walks.no_such_function")
    tracer.wrap("cyclehom.walks.build_walk_weights", lambda w: len(w.per_length))
    assert tracer.missing == {"cyclehom.walks.no_such_function"}
    tracer.active = True
    w = walks.build_walk_weights(Digraph.from_arcs(3, [(0, 1), (1, 2)]), 2)
    tracer.active = False
    tracer.uninstall()
    assert walks.build_walk_weights is original
    spans, _ = tracer.take()
    assert [(s[0], s[4]) for s in spans] == [
        ("cyclehom.walks.build_walk_weights", len(w.per_length))
    ]
