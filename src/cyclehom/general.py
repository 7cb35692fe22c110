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

With delta = ceil(m ** (1 / ceil(k/2))) this takes about
m**(2 - 1/ceil(k/2)) time.  A digraph is first cut to its cycle core
(graphs.cycle_core): a vertex with no surviving in-arc or out-arc lies on
no closed walk.  An undirected graph is not pruned, since closed walks
bounce on pendant trees (hom(C_4, K_2) = 2).  Also hosts directed k-cycle
detection by random layered partitions.
"""

from __future__ import annotations

import math
import random
from itertools import product

from .comb import integer_ceil_root
from .graphs import Digraph, Graph, GraphError, cycle_core
from .ops import OpCounter


def _adjacency(g: Graph | Digraph, core: bool):
    """(total degree, forward lists, reverse lists, directed flag).

    With ``core`` a digraph keeps only its cycle core's arcs, over the
    vertices they touch, relabeled densely; an undirected graph is always
    kept whole.
    """
    if isinstance(g, Graph) and not g.directed:
        return [len(a) for a in g.adjacency], g.adjacency, g.adjacency, False
    n = g.vertex_count
    arcs = g.arcs() if isinstance(g, Digraph) else g.edges()
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


def _extend_signed(
    rows: dict[tuple[bool, ...], dict[int, int]],
    low_adj: list[list[int]],
    high_adj: list[list[int]],
    ops: OpCounter | None,
) -> dict[tuple[bool, ...], dict[int, int]]:
    """One step of signature-keyed rows; the signature gains the new
    endpoint's high flag."""
    nxt: dict[tuple[bool, ...], dict[int, int]] = {}
    for sig, row in rows.items():
        for flag, adj in ((False, low_adj), (True, high_adj)):
            stepped = _extend(row, adj, ops)
            if stepped:
                nxt[sig + (flag,)] = stepped
    return nxt


def _join(f: dict[int, int], r: dict[int, int], ops: OpCounter | None) -> int:
    """Sum over common endpoints of the product of the two rows' counts."""
    if len(r) < len(f):
        f, r = r, f
    total = 0
    products = 0
    get = r.get
    for y, c in f.items():
        c2 = get(y)
        if c2:
            total += c * c2
            products += 1
    if ops:
        ops.add(products)
    return total


def _low_tables(
    adj,
    deg: list[int],
    r_max: int,
    delta: int,
    ops: OpCounter | None,
) -> dict[int, dict[tuple[int, int], int]]:
    """Counts of r-edge walks keyed by endpoints, interior vertices low.

    Positions 1..r-1 of the walk must have degree <= delta; the endpoints
    are unconstrained.  Assembled from one row per start vertex.
    """
    low_adj, high_adj = _split(adj, [d > delta for d in deg])
    tables: dict[int, dict[tuple[int, int], int]] = {r: {} for r in range(1, r_max + 1)}
    for x in range(len(adj)):
        row = {x: 1}
        for r in range(1, r_max + 1):
            tab = tables[r]
            for y, c in _extend(row, high_adj, ops).items():
                tab[(x, y)] = c
            row = _extend(row, low_adj, ops)
            for y, c in row.items():
                tab[(x, y)] = c
    return tables


def _high_tables(
    adj,
    deg: list[int],
    r_max: int,
    delta: int,
    ops: OpCounter | None,
) -> dict[int, dict[tuple[bool, ...], dict[tuple[int, int], int]]]:
    """Walk counts from high-degree anchors, keyed by the low/high pattern
    of every later position including the far endpoint.  Assembled from
    each high anchor's signature rows."""
    high = [d > delta for d in deg]
    low_adj, high_adj = _split(adj, high)
    levels: dict[int, dict[tuple[bool, ...], dict[tuple[int, int], int]]] = {
        r: {} for r in range(1, r_max + 1)
    }
    for x in range(len(adj)):
        if not high[x]:
            continue
        rows: dict[tuple[bool, ...], dict[int, int]] = {(): {x: 1}}
        for r in range(1, r_max + 1):
            rows = _extend_signed(rows, low_adj, high_adj, ops)
            for sig, row in rows.items():
                tab = levels[r].setdefault(sig, {})
                for y, c in row.items():
                    tab[(x, y)] = c
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
    deg, fwd, rev, _ = _adjacency(g, core=False)
    adj = rev if reverse else fwd
    if mode == "low":
        return _low_tables(adj, deg, r, delta, ops)[r]
    if mode != "high":
        raise GraphError(f"unknown mode {mode!r}")
    if signature is None or len(signature) != r:
        raise GraphError(f"high mode needs a signature of length {r}")
    return _high_tables(adj, deg, r, delta, ops)[r].get(tuple(signature), {})


def _signature_pairs(
    k: int, a: int, b: int
) -> dict[tuple[bool, ...], list[tuple[tuple[bool, ...], int]]]:
    """The halves' signatures for every low/high pattern of the k positions
    with a high one, split at its first high position: sig_f -> [(sig_r,
    patterns)].

    Patterns that differ only in how many low positions precede the first
    high one share a pair; the pair is joined once and weighted by their
    number.
    """
    weights: dict[tuple[tuple[bool, ...], tuple[bool, ...]], int] = {}
    for pattern in product((False, True), repeat=k):
        if not any(pattern):
            continue
        anchor = pattern.index(True)
        sig_f = tuple(pattern[(anchor + t) % k] for t in range(1, a + 1))
        sig_r = tuple(pattern[(anchor - t) % k] for t in range(1, b + 1))
        weights[sig_f, sig_r] = weights.get((sig_f, sig_r), 0) + 1
    by_forward: dict[tuple[bool, ...], list[tuple[tuple[bool, ...], int]]] = {}
    for (sig_f, sig_r), weight in weights.items():
        by_forward.setdefault(sig_f, []).append((sig_r, weight))
    return by_forward


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
    n = len(deg)
    m = sum(deg) // 2
    if m == 0:
        return 0
    delta = max(1, integer_ceil_root(m, (k + 1) // 2))
    a = k // 2
    b = k - a
    high = [d > delta for d in deg]
    fwd_low, fwd_high = _split(fwd, high)
    rev_low, rev_high = _split(rev, high) if directed else (fwd_low, fwd_high)

    # Closed walks through low vertices only, anchored at position 0.
    total = 0
    for x in range(n):
        if high[x] or not deg[x]:
            continue
        f = {x: 1}
        for _ in range(a):
            f = _extend(f, fwd_low, ops)
        if not f:
            continue
        if directed:
            r = {x: 1}
            for _ in range(b):
                r = _extend(r, rev_low, ops)
        else:
            # Undirected: the backward row is the forward row, plus one
            # step at odd k.
            r = _extend(f, fwd_low, ops) if b > a else f
        total += _join(f, r, ops)

    # Closed walks through a high vertex, anchored at the first one.
    pairs = _signature_pairs(k, a, b)
    for x in range(n):
        if not high[x]:
            continue
        fs: dict[tuple[bool, ...], dict[int, int]] = {(): {x: 1}}
        for _ in range(a):
            fs = _extend_signed(fs, fwd_low, fwd_high, ops)
        if directed:
            rs: dict[tuple[bool, ...], dict[int, int]] = {(): {x: 1}}
            for _ in range(b):
                rs = _extend_signed(rs, rev_low, rev_high, ops)
        else:
            rs = _extend_signed(fs, fwd_low, fwd_high, ops) if b > a else fs
        for sig_f, f in fs.items():
            for sig_r, weight in pairs.get(sig_f, ()):
                r = rs.get(sig_r)
                if r:
                    total += weight * _join(f, r, ops)
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
