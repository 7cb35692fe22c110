"""The benchmark's workloads: seeded inputs and the calls made on them.

A workload draws its inputs from ``random.Random(seed)`` and lists the
operations one pass makes, in order.  Every pass makes the same calls, so
a run always attempts whole rounds.  This module does not import the
program; ``build`` turns the generated inputs into program objects through
``parse_graph`` and ``Digraph.from_arcs`` once the caller has imported it.

Detector seeds are fixed (``DETECT_SEED``): the workload seed changes the
inputs, never the partitions a detector draws for a given vertex count.
The detection inputs are dense enough that the first repetition with no
empty colour class finds a cycle, so the time to a hit does not swing with
the input seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import gen

DETECT_SEED = 7
COUNT_LENGTHS = (5, 6, 7, 8)
GENERAL_LENGTHS = (6, 7, 8)
TRIANGLE = "0 1\n1 2\n0 2\n"


@dataclass(frozen=True)
class Input:
    """A generated graph; ``has_cycle`` is set for detection inputs."""

    name: str
    n: int
    pairs: list
    directed: bool
    has_cycle: bool | None = None


@dataclass(frozen=True)
class Op:
    """One program call: ``module.func(graph, size, **kwargs)``.

    ``size`` is the cycle length, counted (``kind`` "count") or detected
    (``kind`` "detect").
    """

    module: str
    func: str
    input: str
    size: int
    kind: str
    kwargs: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = "".join(f", {k}={v}" for k, v in self.kwargs.items() if k != "seed")
        return f"{self.func}({self.input}, {self.size}{extra})"


@dataclass(frozen=True)
class CliCall:
    """One ``python -m cyclehom.cli`` invocation on a generated file."""

    argv: tuple
    input: str
    size: int
    kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], list[Input]]
    ops: tuple = ()
    cli_calls: tuple = ()
    warm_lengths: tuple = ()


def _count_degenerate_inputs(rng: random.Random) -> list[Input]:
    n, edges = gen.three_degenerate_edges(rng, 128, window=4)
    m, dir_edges = gen.three_degenerate_edges(rng, 128, window=4)
    m, arcs = gen.orient_with_reciprocals(rng, m, dir_edges, reciprocal=0.2)
    return [Input("deg3", n, edges, False), Input("deg3-dir", m, arcs, True)]


def _count_general_inputs(rng: random.Random) -> list[Input]:
    n, edges = gen.sparse_edges(rng, 10_000, 10_000)
    m, arcs = gen.random_arcs(rng, 10_000, 10_000)
    d, deg_edges = gen.three_degenerate_edges(rng, 2000)
    return [
        Input("sparse", n, edges, False),
        Input("random-dir", m, arcs, True),
        Input("deg3", d, deg_edges, False),
    ]


def _detect_hit_inputs(rng: random.Random) -> list[Input]:
    n, arcs, _ = gen.planted_cycle_arcs(rng, 10, 4, extra=84)
    m, edges = gen.three_degenerate_edges(rng, 600, window=4)
    return [
        Input("planted", n, arcs, True, has_cycle=True),
        Input("deg3", m, edges, False, has_cycle=True),
    ]


def _detect_miss_inputs(rng: random.Random) -> list[Input]:
    n, arcs = gen.dag_arcs(rng, 12, 63)
    m, edges = gen.tree_edges(rng, 1000)
    return [
        Input("dag", n, arcs, True, has_cycle=False),
        Input("tree", m, edges, False, has_cycle=False),
    ]


def _cli_inputs(rng: random.Random) -> list[Input]:
    n, edges = gen.three_degenerate_edges(rng, 24)
    s, sparse = gen.sparse_edges(rng, 10_000, 10_000)
    p, planted, _ = gen.planted_cycle_arcs(rng, 50, 4, extra=216)
    d, dag = gen.dag_arcs(rng, 50, 200)
    return [
        Input("small", n, edges, False),
        Input("sparse", s, sparse, False),
        Input("planted", p, planted, True, has_cycle=True),
        Input("dag", d, dag, True, has_cycle=False),
    ]


def _detectors(planted_or_dag: str, undirected: str, reps: int, degenerate_reps: int):
    seed = {"seed": DETECT_SEED}
    return (
        Op("detect", "detect_directed_cycle", planted_or_dag, 4, "detect",
           {"reps": reps, **seed}),
        Op("general", "detect_cycle_general_directed", planted_or_dag, 4, "detect", seed),
        Op("detect", "detect_cycle_degenerate", undirected, 6, "detect",
           {"reps": degenerate_reps, **seed}),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-degenerate",
            _count_degenerate_inputs,
            ops=tuple(
                Op("pipeline", "hom_cycle_degenerate", name, length, "count")
                for name in ("deg3", "deg3-dir")
                for length in COUNT_LENGTHS
            ),
            warm_lengths=COUNT_LENGTHS,
        ),
        Workload(
            "count-general",
            _count_general_inputs,
            ops=tuple(
                Op("general", "hom_cycle_general", name, k, "count")
                for name in ("sparse", "random-dir", "deg3")
                for k in GENERAL_LENGTHS
            ),
        ),
        Workload(
            "detect-hit",
            _detect_hit_inputs,
            ops=_detectors("planted", "deg3", reps=8, degenerate_reps=8),
            warm_lengths=(6, 8),
        ),
        Workload(
            "detect-miss",
            _detect_miss_inputs,
            ops=_detectors("dag", "tree", reps=2, degenerate_reps=2),
            warm_lengths=(6, 8),
        ),
        Workload(
            "cli",
            _cli_inputs,
            cli_calls=(
                CliCall(("hom-count", "--cycle", "10"), "small", 10, "count"),
                CliCall(("hom-count", "--general", "--cycle", "6"), "sparse", 6, "count"),
                CliCall(("detect", "--directed", "--general", "--k", "4",
                         "--seed", str(DETECT_SEED)), "planted", 4, "detect"),
                CliCall(("detect", "--directed", "--general", "--k", "4",
                         "--seed", str(DETECT_SEED)), "dag", 4, "detect"),
            ),
        ),
    )
}


def edge_texts(inputs: list[Input]) -> dict[str, str]:
    """Edge-list text of every undirected input, as a user's file holds it."""
    return {inp.name: gen.edge_text(inp.pairs) for inp in inputs if not inp.directed}


def build(inputs: list[Input], texts: dict[str, str]) -> dict:
    """Program objects for the inputs: the part of set-up the program pays.

    Undirected graphs go through ``parse_graph`` on their edge-list text,
    digraphs through ``Digraph.from_arcs``.  Imports the program, so the
    caller must have put its sources on the path.
    """
    from cyclehom.graphs import Digraph, parse_graph

    built = {}
    for inp in inputs:
        if inp.directed:
            built[inp.name] = Digraph.from_arcs(inp.n, inp.pairs)
        else:
            built[inp.name] = parse_graph(texts[inp.name])
    return built


def call(op: Op, graphs: dict, **extra):
    """Make one op's call; the function is looked up on its module at call
    time, so wrappers installed by the traced run are the ones called."""
    fn = getattr(sys.modules[f"cyclehom.{op.module}"], op.func)
    return fn(graphs[op.input], op.size, **op.kwargs, **extra)


def warm(lengths) -> None:
    """Pay the lazy work of a first call: the ``auto`` planner's per-p
    cost model, reached by counting on a triangle at each length used."""
    from cyclehom.graphs import parse_graph
    from cyclehom.pipeline import hom_cycle_degenerate

    triangle = parse_graph(TRIANGLE)
    for length in lengths:
        hom_cycle_degenerate(triangle, length)
