"""The program names and parameters the benchmark's traced run hooks into.

``perfbench/layers.py`` wraps program functions by dotted name and reads
their return values; a name that is renamed away turns its metric into a
``null`` in the traced report instead of failing.  This test installs the
same tracer on tiny calls of both counters and the three detectors, so such
a rename fails here first.  It also checks the detection metrics against
repetitions counted here: ``detect.reps`` must be the colourings drawn and
``detect.hit_rep`` the repetition that hit, averaged over the hits.
"""

import importlib
import inspect
import statistics
import sys
from pathlib import Path

import pytest

import cyclehom.cli
import cyclehom.detect
import cyclehom.general
import cyclehom.pipeline
from cyclehom.graphs import Digraph, parse_graph
from cyclehom.ops import OpCounter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
C6 = "".join(f"{v} {(v + 1) % 6}\n" for v in range(6))
# A directed triangle with a tail: the seed-1 stream at k = 3 keeps it
# consistent first at repetition 4 (pinned in test_detect.py).
TAILS = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``layers`` module and its ``Tracer`` class."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers"), importlib.import_module("spans").Tracer
    sys.modules.pop("layers", None)
    sys.modules.pop("spans", None)


def _counting_repetitions(monkeypatch):
    """Count the colourings drawn, one ``_random_partition`` or
    ``layered_subgraph`` call per repetition; returns a function that makes
    a detector call and records (repetitions run, answer)."""
    drawn, calls = [], []
    for module, name in ((cyclehom.detect, "_random_partition"),
                         (cyclehom.general, "layered_subgraph")):
        def counting(*args, original=getattr(module, name)):
            drawn.append(1)
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    def detect(module, func, graph, k, reps):
        before = len(drawn)
        # looked up at call time, so the call goes through the tracer
        found = getattr(module, func)(graph, k, reps=reps, seed=1)
        calls.append((len(drawn) - before, found))

    return detect, calls


def test_traced_names_and_metrics_are_present(perfbench, tmp_path, capsys, monkeypatch):
    layers, Tracer = perfbench
    detect, detect_calls = _counting_repetitions(monkeypatch)
    for (module, func), metric in layers.OPS_PARAMETER.items():
        fn = getattr(importlib.import_module(f"cyclehom.{module}"), func)
        assert "ops" in inspect.signature(fn).parameters, metric

    tracer = Tracer()
    layers.install(tracer)
    tracer.wrap(layers.CLI_MAIN)
    try:
        assert tracer.missing == set()
        counters = {metric: OpCounter() for metric in layers.OPS_METRICS}
        triangle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        c6 = parse_graph(C6)
        edges = tmp_path / "c6.txt"
        edges.write_text(C6)
        tracer.active = True
        assert cyclehom.pipeline.hom_cycle_degenerate(c6, 6, ops=counters["comb.ops"]) == 132
        assert cyclehom.general.hom_cycle_general(c6, 6, ops=counters["general.ops"]) == 132
        tails, dag = Digraph.from_arcs(5, TAILS), Digraph.from_arcs(5, TAILS[3:])
        tree = parse_graph("0 1\n1 2\n1 3\n3 4\n3 5\n5 6\n")
        for module, func, graph, k, reps in (
            (cyclehom.detect, "detect_directed_cycle", triangle, 3, 2),
            (cyclehom.detect, "detect_cycle_degenerate", c6, 6, 2),
            (cyclehom.general, "detect_cycle_general_directed", triangle, 3, 2),
            # misses on a DAG and a tree
            (cyclehom.detect, "detect_directed_cycle", dag, 3, 2),
            (cyclehom.detect, "detect_cycle_degenerate", tree, 6, 2),
            (cyclehom.general, "detect_cycle_general_directed", dag, 3, 2),
            # hits at repetition 4
            (cyclehom.detect, "detect_directed_cycle", tails, 3, 12),
            (cyclehom.general, "detect_cycle_general_directed", tails, 3, 12),
        ):
            detect(module, func, graph, k, reps)
        assert cyclehom.cli.main(["hom-count", "--cycle", "4", "--input", str(edges)]) == 0
        tracer.active = False
        spans, calls = tracer.take()
        metrics = layers.pass_metrics(spans, calls, {m: c.count for m, c in counters.items()})
    finally:
        tracer.active = False
        tracer.uninstall()
    capsys.readouterr()
    assert [name for name, value in metrics.items() if value is None] == []
    # size hooks that read return values: per_length and the cherry table
    assert metrics["walks.build_entries"] > 0 and metrics["comb.cherry_entries"] > 0
    # every miss runs all its repetitions; the tails calls hit at repetition 4
    assert [run for run, found in detect_calls if not found] == [2] * 6
    hits = [run for run, found in detect_calls if found]
    assert hits == [4, 4]
    assert metrics["detect.reps"] == sum(run for run, _ in detect_calls)
    assert metrics["detect.hit_rep"] == statistics.mean(hits)
