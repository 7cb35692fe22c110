"""Combinatorial engine for alternating cycle orientations.

The alternating orientation of the 2l-cycle has l sources and l sinks.  Its
weighted homomorphism count is assembled from path tables over the weighted
digraph: a "low" table enumerates alternating-path maps whose interior sink
images have small in-degree, and "high" tables extend paths anchored at a
large-in-degree sink, split by the low/high pattern of the remaining sinks.
Joining two tables over shared endpoints and summing over all sink patterns
yields the count in time n**(2 - 1/ceil(l/2)) up to logarithmic factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import GraphError
from .ops import OpCounter
from .walks import WalkPair, WeightedDigraph, as_pair, union_in_degrees


def integer_ceil_root(n: int, r: int) -> int:
    """Smallest t >= 1 with t**r >= n, computed exactly."""
    if n <= 1:
        return 1
    t = max(1, int(round(n ** (1.0 / r))) - 2)
    while t**r < n:
        t += 1
    return t


@dataclass(frozen=True)
class DegreeSignature:
    """Low/high pattern of the sinks of an alternating path, start excluded.

    ``high[t]`` is the status of the sink at path position 2(t + 2) - 1, so
    the tuple covers positions 3, 5, ..., 2r+1 in order.
    """

    high: tuple[bool, ...]

    @property
    def r(self) -> int:
        return len(self.high)

    def positions(self) -> dict[int, str]:
        return {
            2 * t + 3: ("high" if flag else "low") for t, flag in enumerate(self.high)
        }


@dataclass(frozen=True)
class PathTable:
    """Sparse endpoint-pair table of alternating-path homomorphism weights."""

    kind: str  # "low" or "high"
    r: int
    threshold: int
    entries: dict[tuple[int, int], int]
    signature: DegreeSignature | None = None


def _weight_sides(pair: WalkPair, reverse: bool) -> tuple[WeightedDigraph, WeightedDigraph]:
    """(along, against) weights for a traversal direction around the cycle."""
    if reverse:
        return pair.against, pair.along
    return pair.along, pair.against


def _cherry_adjacency(
    wl: WeightedDigraph, wa: WeightedDigraph, ops: OpCounter | None
) -> tuple[
    dict[tuple[int, int], int], dict[int, list[tuple[int, int]]]
]:
    """Single-source two-sink path weights, as a table and partner lists.

    The table keys (first, second) sink; partners[v] lists every (y, w)
    with a nonzero aggregate, which is what both table extensions consume:
    one extension step is a join against these lists.
    """
    table: dict[tuple[int, int], int] = {}
    for z in range(wl.vertex_count):
        against_out = wa.out_items(z)
        along_out = wl.out_items(z)
        if ops:
            ops.add(len(against_out) * len(along_out))
        for x, wax in against_out:
            for y, wly in along_out:
                key = (x, y)
                val = wax * wly
                got = table.get(key)
                table[key] = val if got is None else got + val
    partners: dict[int, list[tuple[int, int]]] = {}
    for (v, y), weight in table.items():
        partners.setdefault(v, []).append((y, weight))
    return table, partners


def _low_tables(
    pair: WalkPair,
    r_max: int,
    delta: int,
    indeg: list[int],
    reverse: bool,
    ops: OpCounter | None = None,
    cherries=None,
) -> dict[int, dict[tuple[int, int], int]]:
    """Low path tables for r = 1..r_max in one traversal direction.

    Interior sinks are restricted to in-degree <= delta; the two endpoint
    sinks are left unconstrained (callers filter them at join time).
    """
    wl, wa = _weight_sides(pair, reverse)
    if cherries is None:
        cherries = _cherry_adjacency(wl, wa, ops)
    base, partners = cherries
    tables: dict[int, dict[tuple[int, int], int]] = {1: base}
    for r in range(2, r_max + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (x, v), wt in tables[r - 1].items():
            if indeg[v] > delta:
                continue
            hits = partners.get(v)
            if not hits:
                continue
            if ops:
                ops.add(len(hits))
            for y, cw in hits:
                key = (x, y)
                val = wt * cw
                got = nxt.get(key)
                nxt[key] = val if got is None else got + val
        tables[r] = nxt
    return tables


def _high_tables(
    pair: WalkPair,
    r_max: int,
    delta: int,
    indeg: list[int],
    reverse: bool,
    ops: OpCounter | None = None,
    cherries=None,
) -> dict[int, dict[tuple[bool, ...], dict[tuple[int, int], int]]]:
    """High path tables for r = 1..r_max, keyed by sink signature.

    Every stored pair (x, y) has in-degree(x) > delta; the signature pins
    the low/high status of all later sinks including the far endpoint y.
    """
    wl, wa = _weight_sides(pair, reverse)
    if cherries is None:
        cherries = _cherry_adjacency(wl, wa, ops)
    cherry_table, partners = cherries
    base: dict[tuple[bool, ...], dict[tuple[int, int], int]] = {}
    for (x, y), weight in cherry_table.items():
        if indeg[x] <= delta:
            continue
        sig = (indeg[y] > delta,)
        tab = base.setdefault(sig, {})
        tab[(x, y)] = weight
        if ops:
            ops.add()
    levels = {1: base}
    for r in range(2, r_max + 1):
        nxt_level: dict[tuple[bool, ...], dict[tuple[int, int], int]] = {}
        tabs_by_sig: dict[tuple[tuple[bool, ...], bool], dict] = {}
        for sig, prev in levels[r - 1].items():
            for (x, v), wt in prev.items():
                hits = partners.get(v)
                if not hits:
                    continue
                if ops:
                    ops.add(len(hits))
                for y, cw in hits:
                    ybit = indeg[y] > delta
                    tab = tabs_by_sig.get((sig, ybit))
                    if tab is None:
                        tab = nxt_level.setdefault(sig + (ybit,), {})
                        tabs_by_sig[(sig, ybit)] = tab
                    key = (x, y)
                    val = wt * cw
                    got = tab.get(key)
                    tab[key] = val if got is None else got + val
        levels[r] = nxt_level
    return levels


def path_table_low(
    w: WeightedDigraph | WalkPair,
    r: int,
    delta: int,
    reverse: bool = False,
    ops: OpCounter | None = None,
) -> PathTable:
    """Endpoint weights of alternating-path maps with low interior sinks."""
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    pair = as_pair(w)
    indeg = union_in_degrees(pair)
    tables = _low_tables(pair, r, delta, indeg, reverse, ops)
    return PathTable(kind="low", r=r, threshold=delta, entries=tables[r])


def path_table_high(
    w: WeightedDigraph | WalkPair,
    r: int,
    delta: int,
    signature: DegreeSignature | tuple[bool, ...],
    reverse: bool = False,
    ops: OpCounter | None = None,
) -> PathTable:
    """Endpoint weights of alternating-path maps anchored at a high sink."""
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    sig = signature if isinstance(signature, DegreeSignature) else DegreeSignature(tuple(signature))
    if sig.r != r:
        raise GraphError(f"signature covers {sig.r} sinks, path needs {r}")
    pair = as_pair(w)
    indeg = union_in_degrees(pair)
    levels = _high_tables(pair, r, delta, indeg, reverse, ops)
    entries = levels[r].get(sig.high, {})
    return PathTable(kind="high", r=r, threshold=delta, entries=entries, signature=sig)


def _join(
    t1: dict[tuple[int, int], int],
    t2: dict[tuple[int, int], int],
    ops: OpCounter | None,
    endpoint_filter=None,
) -> int:
    if len(t2) < len(t1):
        t1, t2 = t2, t1
    total = 0
    for key, w1 in t1.items():
        w2 = t2.get(key)
        if w2 is None:
            continue
        if endpoint_filter is not None and not endpoint_filter(key):
            continue
        total += w1 * w2
        if ops:
            ops.add()
    return total


def hom_alt_cycle_comb(
    w: WeightedDigraph | WalkPair,
    half_length: int,
    delta: int | None = None,
    ops: OpCounter | None = None,
) -> int:
    """Total weight of homomorphisms from the alternating 2l-cycle.

    ``half_length`` is l, the number of sources (= sinks).  The threshold
    defaults to ceil(n ** (1 / ceil(l/2))), which balances the low and high
    table costs.
    """
    ell = half_length
    if ell < 2:
        raise GraphError("alternating cycle needs half-length >= 2")
    pair = as_pair(w)
    n = pair.vertex_count
    if n == 0:
        return 0
    indeg = union_in_degrees(pair)
    if delta is None:
        delta = max(1, integer_ceil_root(n, (ell + 1) // 2))
    a = ell // 2
    b = ell - a

    symmetric = pair.along is pair.against
    wl_ccw, wa_ccw = _weight_sides(pair, True)
    cherries_ccw = _cherry_adjacency(wl_ccw, wa_ccw, ops)
    low_ccw = _low_tables(pair, b, delta, indeg, True, ops, cherries_ccw)
    high_ccw = _high_tables(pair, b, delta, indeg, True, ops, cherries_ccw)
    if symmetric:
        low_cw, high_cw = low_ccw, high_ccw
    else:
        wl_cw, wa_cw = _weight_sides(pair, False)
        cherries_cw = _cherry_adjacency(wl_cw, wa_cw, ops)
        low_cw = _low_tables(pair, a, delta, indeg, False, ops, cherries_cw)
        high_cw = _high_tables(pair, a, delta, indeg, False, ops, cherries_cw)

    def low_endpoints(key: tuple[int, int]) -> bool:
        x, y = key
        return indeg[x] <= delta and indeg[y] <= delta

    total = _join(low_cw[a], low_ccw[b], ops, low_endpoints)

    high_a = high_cw[a]
    high_b = high_ccw[b]
    for pattern in product((False, True), repeat=ell):
        if not any(pattern):
            continue
        anchor = pattern.index(True)
        sig_cw = tuple(pattern[(anchor + t) % ell] for t in range(1, a + 1))
        sig_ccw = tuple(pattern[(anchor - t) % ell] for t in range(1, b + 1))
        t_cw = high_a.get(sig_cw)
        if not t_cw:
            continue
        t_ccw = high_b.get(sig_ccw)
        if not t_ccw:
            continue
        total += _join(t_cw, t_ccw, ops)
    return total


def hom_two_paths(
    w: WeightedDigraph | WalkPair, x1: int, x2: int, ops: OpCounter | None = None
) -> int:
    """Sum over vertex pairs of (x1-walk count) * (x2-walk count).

    This is the homomorphism count of the single-source cycle orientation
    made of two internally disjoint directed paths of lengths x1 and x2.
    """
    if x1 < 1 or x2 < 1:
        raise GraphError("path lengths must be >= 1")
    if x1 + x2 < 3:
        raise GraphError("two-path base needs total length >= 3")
    pair = as_pair(w)
    if x1 > pair.along.horizon or x2 > pair.against.horizon:
        raise GraphError("path length exceeds the walk horizon")
    against = pair.against.per_length
    total = 0
    for (x, y, step), c1 in pair.along.per_length.items():
        if step != x1:
            continue
        c2 = against.get((x, y, x2))
        if c2:
            total += c1 * c2
            if ops:
                ops.add()
    return total
