"""Cycle-homomorphism counting in bounded-degeneracy graphs.

A homomorphism of the l-cycle into an undirected graph, read against a
degeneracy orientation, traverses some acyclic orientation of the cycle: a
cyclic pattern of ascending and descending runs.  Grouping orientations by
their number of sources p, every orientation with p sources is a directed
subdivision of the alternating 2p-cycle, and summing the subdivision choices
is exactly what the polynomial walk weights compute: the coefficient of z**l
in the alternating-cycle count over the walk-weight digraph adds up all
orientations with p sources, each counted p times out of the l placements of
a distinguished source.  Hence

    hom(C_l, G) = sum over p of (l / p) * S_p,

with S_p the z**l coefficient for base size p.  At p = 1 the one source
and the one sink split the cycle into two walks, so S_1 is the z**l
coefficient of sum over x, y of along[x][y] * against[x][y], read in one
pass over the walk rows.  Directed inputs follow the same decomposition
with arcs split into ascending and descending walk weights.
"""

from __future__ import annotations

from .comb import _low_high, hom_alt_cycle_comb, hom_two_paths
from .graphs import (
    Digraph,
    Graph,
    GraphError,
    degeneracy_ordering,
    orient_acyclic,
    split_by_ordering,
)
from .matmul import CostParams, hom_alt_cycle_matmul
from .ops import OpCounter
from .ring import coefficient, degree_slot_width
from .walks import WalkPair, build_walk_weights, restrict_view

ENGINES = ("comb", "matmul", "auto")


class EngineError(GraphError):
    """An internal consistency assertion failed inside a counting engine."""


def _engine_for(p: int, cp: CostParams) -> str:
    """The engine ``auto`` runs for the alternating 2p-cycle: comb, at
    every p and every omega.

    Execution is always classical, so the choice is priced at omega = 3
    whatever ``cp.omega`` says; ``cp`` only prices matmul's bracketing.
    At omega = 3 the cost model's c_p is at least comb's 2 - 1/ceil(p/2)
    for p = 2..6 (c_6 = 9/5 >= 5/3), and from p = 7 on its grid is over
    budget, so the model is never consulted.  This is the one place where
    ``auto`` resolves.
    """
    return "comb"


def _oriented_pair(g: Graph | Digraph, length: int):
    """Degeneracy-orient the input and build full-horizon walk weights.

    The weights hold walks of length up to ``length - 1``, packed at
    ``ring.degree_slot_width(n, length, D)``, with D the maximum degree of
    the graph the ordering is taken on: the width that keeps z**length
    coefficients of cycle counts exact.  Undirected graphs yield one weight
    structure used on both sides; digraphs split their arcs into ascending
    and descending DAGs first, and both are packed at the one width
    computed from their underlying graph.  Returns (pair, degeneracy).
    """
    if isinstance(g, Graph):
        ordering = degeneracy_ordering(g)
        dag = orient_acyclic(g, ordering)
        w = build_walk_weights(dag, length - 1, _width(g, length))
        return WalkPair(along=w, against=w), ordering.degeneracy
    underlying = g.underlying_graph()
    ordering = degeneracy_ordering(underlying)
    ascending, descending = split_by_ordering(g, ordering)
    width = _width(underlying, length)
    along = build_walk_weights(ascending, length - 1, width)
    against = build_walk_weights(descending, length - 1, width)
    return WalkPair(along=along, against=against), ordering.degeneracy


def _width(g: Graph, length: int) -> int:
    return degree_slot_width(g.vertex_count, length, max(map(len, g.adjacency), default=0))


def hom_cycle_degenerate(
    g: Graph | Digraph,
    length: int,
    engine: str = "auto",
    cp: CostParams | None = None,
    ops: OpCounter | None = None,
    cross_check: bool = False,
) -> int:
    """Exact hom(C_length, g); the directed cycle when g is directed.

    ``engine`` picks how alternating-cycle counts are computed: "comb" for
    the closed-walk engine, "matmul" for the matrix-chain engine, or "auto"
    (``_engine_for``: comb at every omega).  ``cp`` prices only matmul's
    bracketing; execution is always classical.  ``cross_check`` recounts
    S_1 split by split and by direct enumeration, and S_2 and S_3 by the
    low/high closed walks (``comb._low_high``), and raises ``EngineError``
    on any disagreement.
    """
    if length < 3:
        raise GraphError("cycle length must be >= 3")
    if engine not in ENGINES:
        raise GraphError(f"unknown engine {engine!r}")
    if cp is None:
        cp = CostParams()
    if g.vertex_count == 0:
        return 0

    pair, _ = _oriented_pair(g, length)
    total = 0
    for p in range(1, length // 2 + 1):
        s_p = _base_count(pair, p, length, engine, cp, ops, cross_check)
        scaled = length * s_p
        if scaled % p:
            raise EngineError(
                f"composition sum for base {p} is not divisible by {p}"
            )
        total += scaled // p
    return total


def _base_count(
    pair: WalkPair,
    p: int,
    length: int,
    engine: str,
    cp: CostParams,
    ops: OpCounter | None,
    cross_check: bool,
) -> int:
    """S_p: combined count of subdivisions of the 2p-source base of size l."""
    if p == 1:
        total = _two_path_sum(pair, length, ops)
        if cross_check:
            split = sum(hom_two_paths(pair, a, length - a) for a in range(1, length))
            direct = sum(_one_source_direct(pair, a, length - a) for a in range(1, length))
            if not total == split == direct:
                raise EngineError("two-path count disagrees with direct enumeration")
        return total

    max_run = length - (2 * p - 1)
    along = restrict_view(pair.along, max_run)
    against = along if pair.against is pair.along else restrict_view(pair.against, max_run)
    view = WalkPair(along=along, against=against)
    result = coefficient(_run_engine(view, p, length, engine, cp, ops), length, along.width)
    if cross_check and p <= 3:
        walked = _low_high(view, p, None, None, length)
        if coefficient(walked, length, along.width) != result:
            raise EngineError(f"closed-form count for base {p} disagrees with the closed walks")
    return result


def _run_engine(view: WalkPair, p: int, length: int, engine: str, cp: CostParams, ops):
    if engine == "auto":
        engine = _engine_for(p, cp)
    if engine == "comb":
        return hom_alt_cycle_comb(view, p, ops=ops, length=length)
    return hom_alt_cycle_matmul(view, p, cp=cp, ops=ops)


def _two_path_sum(pair: WalkPair, length: int, ops: OpCounter | None) -> int:
    """S_1 in one pass over the rows: the z**length coefficient of
    sum over x, y of along[x][y] * against[x][y].

    An a-walk x -> y along and a (length - a)-walk x -> y against meet in
    slot length of the product, so the sum adds hom_two_paths(pair, a,
    length - a) over every split a; ``ring.degree_slot_width`` keeps that
    slot exact.  With ``ops``, one op per (x, y, a) whose two counts are
    both nonzero, the products the split-by-split count makes.
    """
    along, against = pair.along, pair.against
    width = along.width
    if against is along:
        common = [(w, w) for row in along.rows for w in row.values()]
    else:
        common = [
            (wa, wb)
            for ra, rb in zip(along.rows, against.rows)
            for y, wa in ra.items()
            if (wb := rb.get(y))
        ]
    if ops:
        mask = (1 << width) - 1
        ops.add(sum(
            1
            for wa, wb in common
            for a in range(1, length)
            if wa >> (width * a) & mask and wb >> (width * (length - a)) & mask
        ))
    return coefficient(sum(wa * wb for wa, wb in common), length, width)


def _one_source_direct(pair: WalkPair, a: int, b: int) -> int:
    """Linear-time single-source orientation count by fresh walk expansion.

    Cross-check path: recounts walks by breadth-first sweeps over the
    source DAGs' arcs instead of the packed rows.
    """

    def endpoints(adj, source: int, steps: int) -> dict[int, int]:
        frontier = {source: 1}
        for _ in range(steps):
            nxt: dict[int, int] = {}
            for u, cnt in frontier.items():
                for v in adj[u]:
                    nxt[v] = nxt.get(v, 0) + cnt
            frontier = nxt
            if not frontier:
                break
        return frontier

    along_adj = pair.along.source.out_adjacency
    against_adj = pair.against.source.out_adjacency
    total = 0
    for u in range(pair.vertex_count):
        ea = endpoints(along_adj, u, a)
        if not ea:
            continue
        eb = endpoints(against_adj, u, b)
        for v, ca in ea.items():
            cb = eb.get(v)
            if cb:
                total += ca * cb
    return total
