"""The program names and parameters the benchmark's traced run hooks into.

``perfbench/layers.py`` wraps program functions by dotted name and reads
their return values; a name that is renamed away turns its metric into a
``null`` in the traced report instead of failing.  This test installs the
same tracer on tiny calls of both counters and the three detectors, so such
a rename fails here first.
"""

import importlib
import inspect
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


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``layers`` module and its ``Tracer`` class."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers"), importlib.import_module("spans").Tracer
    sys.modules.pop("layers", None)
    sys.modules.pop("spans", None)


def test_traced_names_and_metrics_are_present(perfbench, tmp_path, capsys):
    layers, Tracer = perfbench
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
        cyclehom.detect.detect_directed_cycle(triangle, 3, reps=2, seed=1)
        cyclehom.detect.detect_cycle_degenerate(c6, 6, reps=2, seed=1)
        cyclehom.general.detect_cycle_general_directed(triangle, 3, reps=2, seed=1)
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
