"""Combinatorial cycle-homomorphism counting in arbitrary graphs.

The same low/high-degree split as the degenerate engine, but run directly on
the input graph: path tables enumerate walks whose interior vertices have
degree at most a threshold, high tables extend from a large-degree anchor,
and joining the two halves over every low/high pattern of the cycle vertices
counts hom(C_k, G) in about m**(2 - 1/ceil(k/2)) time.  Also hosts directed
k-cycle detection by random layered partitions.
"""

from __future__ import annotations

import math
import random
from itertools import product

from .comb import integer_ceil_root
from .graphs import Digraph, Graph, GraphError
from .ops import OpCounter


def _degree_and_adjacency(g: Graph | Digraph):
    """(total degree, forward adjacency, reverse adjacency, directed flag)."""
    if isinstance(g, Digraph):
        fwd = [list(nbrs) for nbrs in g.out_adjacency]
        rev: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for u, nbrs in enumerate(g.out_adjacency):
            for v in nbrs:
                rev[v].append(u)
        deg = [len(fwd[v]) + len(rev[v]) for v in range(g.vertex_count)]
        return deg, fwd, rev, True
    if g.directed:
        return _degree_and_adjacency(g.to_digraph())
    adj = [list(nbrs) for nbrs in g.adjacency]
    deg = [len(a) for a in adj]
    return deg, adj, adj, False


def _low_tables(
    adj: list[list[int]],
    deg: list[int],
    r_max: int,
    delta: int,
    ops: OpCounter | None,
) -> dict[int, dict[tuple[int, int], int]]:
    """Counts of r-edge walks keyed by endpoints, interior vertices low.

    Positions 2..r of the walk must have degree <= delta; the endpoints are
    unconstrained here and get filtered at join time.
    """
    tables: dict[int, dict[tuple[int, int], int]] = {}
    first: dict[tuple[int, int], int] = {}
    for x in range(len(adj)):
        for u in adj[x]:
            first[(x, u)] = 1
    if ops:
        ops.add(len(first))
    tables[1] = first
    for r in range(2, r_max + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (x, v), cnt in tables[r - 1].items():
            if deg[v] > delta:
                continue
            for y in adj[v]:
                key = (x, y)
                nxt[key] = nxt.get(key, 0) + cnt
                if ops:
                    ops.add()
        tables[r] = nxt
    return tables


def _high_tables(
    adj: list[list[int]],
    deg: list[int],
    r_max: int,
    delta: int,
    ops: OpCounter | None,
) -> dict[int, dict[tuple[bool, ...], dict[tuple[int, int], int]]]:
    """Walk counts from high-degree anchors, keyed by the low/high pattern
    of every later position including the far endpoint."""
    base: dict[tuple[bool, ...], dict[tuple[int, int], int]] = {}
    for x in range(len(adj)):
        if deg[x] <= delta:
            continue
        for y in adj[x]:
            sig = (deg[y] > delta,)
            tab = base.setdefault(sig, {})
            tab[(x, y)] = tab.get((x, y), 0) + 1
            if ops:
                ops.add()
    levels = {1: base}
    for r in range(2, r_max + 1):
        columns: dict[tuple[bool, ...], dict[int, list[tuple[int, int]]]] = {}
        for sig, tab in levels[r - 1].items():
            col: dict[int, list[tuple[int, int]]] = {}
            for (x, u), cnt in tab.items():
                col.setdefault(u, []).append((x, cnt))
            columns[sig] = col
        nxt: dict[tuple[bool, ...], dict[tuple[int, int], int]] = {}
        for u in range(len(adj)):
            outs = adj[u]
            if not outs:
                continue
            for sig, col in columns.items():
                hits = col.get(u)
                if not hits:
                    continue
                for y in outs:
                    new_sig = sig + (deg[y] > delta,)
                    tab = nxt.setdefault(new_sig, {})
                    for x, cnt in hits:
                        key = (x, y)
                        tab[key] = tab.get(key, 0) + cnt
                        if ops:
                            ops.add()
        levels[r] = nxt
    return levels


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
    directions (meaningful for digraphs).
    """
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    deg, fwd, rev, _ = _degree_and_adjacency(g)
    adj = rev if reverse else fwd
    if mode == "low":
        return _low_tables(adj, deg, r, delta, ops)[r]
    if mode != "high":
        raise GraphError(f"unknown mode {mode!r}")
    if signature is None or len(signature) != r:
        raise GraphError(f"high mode needs a signature of length {r}")
    return _high_tables(adj, deg, r, delta, ops)[r].get(tuple(signature), {})


def hom_cycle_general(
    g: Graph | Digraph, k: int, ops: OpCounter | None = None
) -> int:
    """Exact hom(C_k, g) for any graph or digraph, no degeneracy assumed.

    Splits the cycle at an anchor into paths of lengths floor(k/2) and
    ceil(k/2) and joins their endpoint tables over every low/high pattern,
    with the threshold at ceil(m ** (1 / ceil(k/2))).
    """
    if k < 3:
        raise GraphError("cycle length must be >= 3")
    deg, fwd, rev, directed = _degree_and_adjacency(g)
    n = len(deg)
    m = sum(len(a) for a in fwd)
    if not directed:
        m //= 2
    if m == 0:
        return 0
    delta = max(1, integer_ceil_root(m, (k + 1) // 2))
    a = k // 2
    b = k - a

    low_fwd = _low_tables(fwd, deg, a, delta, ops)
    high_fwd = _high_tables(fwd, deg, a, delta, ops)
    if directed:
        low_rev = _low_tables(rev, deg, b, delta, ops)
        high_rev = _high_tables(rev, deg, b, delta, ops)
    else:
        low_rev = _low_tables(fwd, deg, b, delta, ops) if b != a else low_fwd
        high_rev = _high_tables(fwd, deg, b, delta, ops) if b != a else high_fwd

    total = 0
    t1 = low_fwd[a]
    t2 = low_rev[b]
    if len(t2) < len(t1):
        t1, t2 = t2, t1
    for key, c1 in t1.items():
        if deg[key[0]] > delta or deg[key[1]] > delta:
            continue
        c2 = t2.get(key)
        if c2:
            total += c1 * c2
            if ops:
                ops.add()

    high_a = high_fwd[a]
    high_b = high_rev[b]
    for pattern in product((False, True), repeat=k):
        if not any(pattern):
            continue
        anchor = pattern.index(True)
        sig_f = tuple(pattern[(anchor + t) % k] for t in range(1, a + 1))
        sig_r = tuple(pattern[(anchor - t) % k] for t in range(1, b + 1))
        ta = high_a.get(sig_f)
        if not ta:
            continue
        tb = high_b.get(sig_r)
        if not tb:
            continue
        if len(tb) < len(ta):
            ta, tb = tb, ta
        for key, c1 in ta.items():
            c2 = tb.get(key)
            if c2:
                total += c1 * c2
                if ops:
                    ops.add()
    return total


def default_repetitions(k: int, delta: float = 0.05) -> int:
    """Repetitions for failure probability delta at the k**-k success bound."""
    return max(1, math.ceil(k**k * math.log(1.0 / delta)))


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
    if k < 3:
        raise GraphError("cycle length must be >= 3")
    if reps is None:
        reps = default_repetitions(k, delta)
    rng = random.Random(seed)
    for _ in range(reps):
        colors = [rng.randrange(k) for _ in range(d.vertex_count)]
        layered = layered_subgraph(d, colors, k)
        # An empty directed cycle core (graphs.cycle_core) is a DAG: no
        # closed walk, so no count to make.
        if layered.is_dag:
            continue
        if hom_cycle_general(layered, k, ops=ops) > 0:
            return True
    return False
