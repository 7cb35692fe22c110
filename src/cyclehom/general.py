"""Combinatorial cycle-homomorphism counting in arbitrary graphs.

hom(C_k, G) is the number of closed k-walks.  With a degree threshold
delta, a vertex is low when its degree is at most delta and high otherwise
(the split of Alon, Yuster and Zwick, "Finding and counting given length
cycles", 1997).  The count runs anchor by anchor: each anchor x grows one
walk row {y: count} forward for floor(k/2) steps and one backward for
ceil(k/2) steps, joins the two rows over their common endpoints y, and
drops them.  Memory holds one anchor's rows, never a table over all (x, y)
pairs.

- A closed walk through low vertices only is counted at its position 0,
  from a low anchor whose rows extend through low vertices only: at most
  delta**ceil(k/2) entries per row.
- A closed walk through some high vertex is counted at its first high
  position.  From a high anchor the rows extend through every vertex and
  are keyed by the low/high signature of their positions, so that the join
  knows the whole cycle pattern.

This is ``comb._closed_walks``, the engine the degenerate pipeline runs on
its weighted cherry relation; here each step moves along an unweighted
adjacency list.  With delta = ceil(m ** (1 / ceil(k/2))) this takes about
m**(2 - 1/ceil(k/2)) time.  A digraph is first cut to its cycle core
(graphs.cycle_core): a vertex with no surviving in-arc or out-arc lies on
no closed walk.  An undirected graph is not pruned, since closed walks
bounce on pendant trees (hom(C_4, K_2) = 2).

Also hosts the colour-coding loop of the three detectors (Alon, Yuster
and Zwick, "Color-coding", 1995): ``repetitions`` checks k and fixes the
repetition count, and ``_colour_coding`` skips inputs with fewer than k
vertices and feeds one seeded random stream to the detector's trial, once
per repetition, until a trial finds a cycle.  The layered trial is here.
"""

from __future__ import annotations

import math
import random

from .comb import _closed_walks, _high_tables, _low_tables, integer_ceil_root
from .graphs import Digraph, Graph, GraphError, cycle_core
from .ops import OpCounter


def _adjacency(g: Graph | Digraph, core: bool):
    """(total degree, forward lists, reverse lists, whether g is a Digraph).

    With ``core`` a ``Digraph`` keeps only its cycle core's arcs, over the
    vertices they touch, relabeled densely; a ``Graph`` is always kept
    whole, its one adjacency serving as both lists.
    """
    if isinstance(g, Graph):
        return [len(a) for a in g.adjacency], g.adjacency, g.adjacency, False
    n = g.vertex_count
    arcs = g.arcs()
    if core:
        index: dict[int, int] = {}
        arcs = [
            (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
            for u, v in cycle_core(n, arcs, True)
        ]
        n = len(index)
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        fwd[u].append(v)
        rev[v].append(u)
    return [len(fwd[v]) + len(rev[v]) for v in range(n)], fwd, rev, True


def _split(adj, high: list[bool]) -> tuple[list[list[int]], list[list[int]]]:
    """Each adjacency list cut into its low and its high targets."""
    low_adj = [[v for v in nbrs if not high[v]] for nbrs in adj]
    high_adj = [[v for v in nbrs if high[v]] for nbrs in adj]
    return low_adj, high_adj


def _extend(row: dict[int, int], adj, ops: OpCounter | None) -> dict[int, int]:
    """One walk step: the walk counts of ``row`` moved along every list entry."""
    nxt: dict[int, int] = {}
    get = nxt.get
    for y, c in row.items():
        for z in adj[y]:
            nxt[z] = get(z, 0) + c
    if ops:
        ops.add(sum(len(adj[y]) for y in row))
    return nxt


def path_table_general(
    g: Graph | Digraph,
    r: int,
    delta: int,
    mode: str = "low",
    signature: tuple[bool, ...] | None = None,
    reverse: bool = False,
    ops: OpCounter | None = None,
) -> dict[tuple[int, int], int]:
    """Path-homomorphism endpoint counts on a general graph.

    ``mode`` "low" bounds the degree of interior vertices by ``delta``;
    "high" requires a high-degree start and a full low/high ``signature``
    over the remaining r positions.  ``reverse`` walks against arc
    directions (meaningful for digraphs).  A cross-check reference: no
    engine calls it.
    """
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    deg, fwd, rev, _ = _adjacency(g, core=False)
    high = [d > delta for d in deg]
    lists = _split(rev if reverse else fwd, high)
    if mode == "low":
        return _low_tables(lists, r, _extend, ops)[r]
    if mode != "high":
        raise GraphError(f"unknown mode {mode!r}")
    if signature is None or len(signature) != r:
        raise GraphError(f"high mode needs a signature of length {r}")
    return _high_tables(high, lists, r, _extend, ops)[r].get(tuple(signature), {})


def hom_cycle_general(
    g: Graph | Digraph, k: int, ops: OpCounter | None = None
) -> int:
    """Exact hom(C_k, g) for any graph or digraph, no degeneracy assumed.

    Anchor by anchor, joins a floor(k/2)-step forward row with a
    ceil(k/2)-step backward row over their endpoints, with the low/high
    threshold at ceil(m ** (1 / ceil(k/2))); a digraph is counted on its
    cycle core.  See the module docstring.
    """
    if k < 3:
        raise GraphError("cycle length must be >= 3")
    deg, fwd, rev, directed = _adjacency(g, core=True)
    m = sum(deg) // 2
    if m == 0:
        return 0
    delta = max(1, integer_ceil_root(m, (k + 1) // 2))
    high = [d > delta for d in deg]
    rev_lists = _split(rev, high) if directed else None
    return _closed_walks(k, high, _split(fwd, high), rev_lists, [_extend] * k, ops)


def default_repetitions(k: int, delta: float = 0.05) -> int:
    """Repetitions for failure probability delta at the k**-k success bound."""
    if not 0 < delta < 1:
        raise GraphError("failure probability delta must lie in (0, 1)")
    return max(1, math.ceil(k**k * math.log(1.0 / delta)))


def repetitions(k: int, reps: int | None, delta: float) -> int:
    """An explicit repetition count, which must be >= 1, or the default
    for failure probability delta; the cycle length k must be >= 3."""
    if k < 3:
        raise GraphError("cycle length must be >= 3")
    if reps is None:
        return default_repetitions(k, delta)
    if reps < 1:
        raise GraphError("repetition count must be >= 1")
    return reps


def _colour_coding(n: int, k: int, reps: int, seed: int | None, trial) -> bool:
    """Whether ``trial(rng)`` finds a cycle in one of ``reps`` repetitions,
    all drawing from one ``random.Random(seed)``; none runs when n < k, as
    every k-colouring of fewer than k vertices leaves a class empty."""
    if n < k:
        return False
    rng = random.Random(seed)
    return any(trial(rng) for _ in range(reps))


def layered_subgraph(d: Digraph, colors: list[int], k: int) -> Digraph:
    """Keep only arcs from color class i to class i+1 (mod k)."""
    arcs = [
        (u, v)
        for u, v in d.arcs()
        if colors[v] == (colors[u] + 1) % k
    ]
    return Digraph.from_arcs(d.vertex_count, arcs)


def detect_cycle_general_directed(
    d: Digraph,
    k: int,
    reps: int | None = None,
    seed: int | None = None,
    delta: float = 0.05,
    ops: OpCounter | None = None,
) -> bool:
    """Randomized directed k-cycle detection in an arbitrary digraph.

    Each repetition partitions the vertices into k random classes and keeps
    only arcs between consecutive classes; in that layered digraph every
    k-cycle homomorphism is a simple k-cycle, so a positive count certifies
    a cycle (no false positives).  A cycle survives a repetition with
    probability at least k**-k, which sets the default repetition count.
    """
    reps = repetitions(k, reps, delta)
    n = d.vertex_count

    def trial(rng: random.Random) -> bool:
        layered = layered_subgraph(d, [rng.randrange(k) for _ in range(n)], k)
        # An empty directed cycle core (graphs.cycle_core) is a DAG: no
        # closed walk, so no count to make.
        return not layered.is_dag and hom_cycle_general(layered, k, ops=ops) > 0

    return _colour_coding(n, k, reps, seed, trial)
