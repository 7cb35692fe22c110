"""Combinatorial engine for alternating cycle orientations.

The alternating orientation of the 2l-cycle has l sources and l sinks.
Summing out each source leaves the weighted cherry relation over sinks,
T[x][y] = sum_z against(z, x) * along(z, y), so the weighted homomorphism
count is the weighted count of closed l-walks in T.

This module hosts the one low/high closed-walk engine, ``_closed_walks``,
which ``general.hom_cycle_general`` runs on plain adjacency lists and
``hom_alt_cycle_comb`` runs on T (the split of Alon, Yuster and Zwick,
"Finding and counting given length cycles", 1997).  A vertex is high when
its degree (here: a sink's in-degree) exceeds a threshold.  Anchor by
anchor, a closed walk through low vertices only is counted at its
position 0 from rows that extend through low vertices only, and one
through a high vertex is counted at its first high position from rows
keyed by the low/high signature of their positions.  Each anchor joins a
floor(l/2)-step forward row with a ceil(l/2)-step backward row (in the
transpose, or the forward row again when T is symmetric) over their
endpoints.  The caller passes one step per row length: weighted over
(target, weight) lists here, unweighted in ``general``.  With the
threshold at ceil(n ** (1 / ceil(l/2))) this takes about
n**(2 - 1/ceil(l/2)) time.

On packed weights the caller reads one coefficient, z**length, so comb
works to length budgets: each cherry entry covers two of the 2l runs and
has no slot below 2, so T keeps only slots <= length - 2l + 2 and a row
after s steps only slots <= length - 2(l - s); entries that mask to 0
are dropped.  An undirected input's T is symmetric and built half-way:
each unordered sink pair of a source is multiplied once and mirrored.
The path tables are assemblies of the same rows, kept as cross-check
references: ``path_table_low``, ``path_table_high``, their ``PathTable``
and ``DegreeSignature`` types and the ``_low_tables``/``_high_tables``
builders behind them.  No engine calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import GraphError
from .ops import OpCounter
from .ring import slot_mask
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
    the tuple covers positions 3, 5, ..., 2r+1 in order.  A cross-check
    reference: only ``path_table_high`` takes it.
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
    """Sparse endpoint-pair table of alternating-path homomorphism weights.

    A cross-check reference: returned by the path-table functions, which no
    engine calls.
    """

    kind: str  # "low" or "high"
    r: int
    threshold: int
    entries: dict[tuple[int, int], int]
    signature: DegreeSignature | None = None


def _cherry_adjacency(
    wl: WeightedDigraph,
    wa: WeightedDigraph,
    ops: OpCounter | None,
    keep: int | None = None,
) -> tuple[dict[tuple[int, int], int], list[list[tuple[int, int]]]]:
    """Single-source two-sink path weights, as a table and partner lists.

    The table keys (first, second) sink; partners[v] lists every (y, w)
    with a nonzero aggregate: the cherry relation's out-lists, which the
    closed-walk steps consume.  When both sides are one object the relation
    is symmetric: each unordered sink pair of a source is multiplied once
    and the table mirrored.  ``keep`` masks every entry (a slot budget);
    entries that mask to 0 are dropped.
    """
    table: dict[tuple[int, int], int] = {}
    get = table.get
    symmetric = wl is wa
    for z in range(wl.vertex_count):
        along_out = wl.out_items(z)
        if symmetric:
            if ops:
                ops.add(len(along_out) ** 2)
            # out-lists ascend, so this half holds the pairs x <= y
            for i, (x, wax) in enumerate(along_out):
                for y, wly in along_out[i:]:
                    key = (x, y)
                    val = wax * wly
                    got = get(key)
                    table[key] = val if got is None else got + val
            continue
        against_out = wa.out_items(z)
        if ops:
            ops.add(len(against_out) * len(along_out))
        for x, wax in against_out:
            for y, wly in along_out:
                key = (x, y)
                val = wax * wly
                got = get(key)
                table[key] = val if got is None else got + val
    if keep is not None:
        table = {key: m for key, value in table.items() if (m := value & keep)}
    if symmetric:
        table.update([((y, x), value) for (x, y), value in table.items() if x != y])
    partners: list[list[tuple[int, int]]] = [[] for _ in range(wl.vertex_count)]
    for (v, y), weight in table.items():
        partners[v].append((y, weight))
    return table, partners


def _weighted_split(partners, high: list[bool], transpose: bool = False):
    """(low, high) out-lists of the cherry relation, or of its transpose:
    each (y, w) entry goes to the list of its target's status."""
    n = len(partners)
    low: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    hi: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, items in enumerate(partners):
        for y, w in items:
            if transpose:
                (hi if high[x] else low)[y].append((x, w))
            else:
                (hi if high[y] else low)[x].append((y, w))
    return low, hi


def _masked_step(keep: int):
    """One weighted step: the weights of a row moved along every (z, w)
    entry, multiplied by w and masked by ``keep`` (a slot budget; -1 keeps
    everything).  Endpoints whose products all mask to 0 are dropped."""

    def step(row: dict[int, int], adj, ops: OpCounter | None) -> dict[int, int]:
        nxt: dict[int, int] = {}
        get = nxt.get
        for y, c in row.items():
            for z, w in adj[y]:
                if v := c * w & keep:
                    nxt[z] = get(z, 0) + v
        if ops:
            ops.add(sum(len(adj[y]) for y in row))
        return nxt

    return step


def _extend_signed(rows, lists, step, ops: OpCounter | None):
    """One step of signature-keyed rows; the signature gains the new
    endpoint's high flag."""
    nxt: dict[tuple[bool, ...], dict[int, int]] = {}
    for sig, row in rows.items():
        for flag, adj in zip((False, True), lists):
            stepped = step(row, adj, ops)
            if stepped:
                nxt[sig + (flag,)] = stepped
    return nxt


def _join(f: dict[int, int], r: dict[int, int], ops: OpCounter | None) -> int:
    """Sum over common endpoints of the product of the two rows' weights."""
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


def _closed_walks(k: int, high: list[bool], fwd, rev, steps, ops: OpCounter | None) -> int:
    """Weighted count of closed k-walks in a relation, anchor by anchor.

    ``fwd`` and ``rev`` are the (low, high) out-lists of the relation and
    of its transpose, split by target status; ``rev`` is None when the
    relation is symmetric.  ``steps[s](row, lists, ops)`` moves a row
    {y: weight} that has taken s steps one more step along lists, so a
    step may depend on how far its row has come.  Each anchor joins a
    floor(k/2)-step forward row with a ceil(k/2)-step backward row over
    their endpoints.
    """
    a = k // 2
    b = k - a
    fwd_low = fwd[0]
    rev_low = fwd_low if rev is None else rev[0]

    # Closed walks through low vertices only, anchored at position 0.
    total = 0
    for x, is_high in enumerate(high):
        if is_high or not fwd_low[x]:
            continue
        f = {x: 1}
        for s in range(a):
            f = steps[s](f, fwd_low, ops)
        if not f:
            continue
        if rev is None:
            # Symmetric: the backward row is the forward row, plus one
            # step at odd k.
            r = steps[a](f, fwd_low, ops) if b > a else f
        else:
            r = {x: 1}
            for s in range(b):
                r = steps[s](r, rev_low, ops)
        total += _join(f, r, ops)

    # Closed walks through a high vertex, anchored at the first one.
    pairs = _signature_pairs(k, a, b)
    for x, is_high in enumerate(high):
        if not is_high:
            continue
        fs: dict[tuple[bool, ...], dict[int, int]] = {(): {x: 1}}
        for s in range(a):
            fs = _extend_signed(fs, fwd, steps[s], ops)
        if rev is None:
            rs = _extend_signed(fs, fwd, steps[a], ops) if b > a else fs
        else:
            rs = {(): {x: 1}}
            for s in range(b):
                rs = _extend_signed(rs, rev, steps[s], ops)
        for sig_f, f in fs.items():
            for sig_r, weight in pairs.get(sig_f, ()):
                r = rs.get(sig_r)
                if r:
                    total += weight * _join(f, r, ops)
    return total


def _low_tables(lists, r_max: int, step, ops: OpCounter | None):
    """{r: {(x, y): weight}} of r-step walks whose interior vertices are
    low, for r = 1..r_max; the endpoints are unconstrained.  Assembled
    from one row per start vertex.  A cross-check reference behind the
    path-table functions; no engine calls it."""
    low, high_lists = lists
    tables: dict[int, dict[tuple[int, int], int]] = {r: {} for r in range(1, r_max + 1)}
    for x in range(len(low)):
        row = {x: 1}
        for r in range(1, r_max + 1):
            tab = tables[r]
            for y, c in step(row, high_lists, ops).items():
                tab[(x, y)] = c
            row = step(row, low, ops)
            for y, c in row.items():
                tab[(x, y)] = c
    return tables


def _high_tables(high: list[bool], lists, r_max: int, step, ops: OpCounter | None):
    """{r: {sig: {(x, y): weight}}} of r-step walks from high anchors x,
    keyed by the low/high pattern of every later position including the
    far endpoint.  Assembled from each high anchor's signature rows.  A
    cross-check reference behind the path-table functions; no engine calls
    it."""
    levels: dict[int, dict[tuple[bool, ...], dict[tuple[int, int], int]]] = {
        r: {} for r in range(1, r_max + 1)
    }
    for x, is_high in enumerate(high):
        if not is_high:
            continue
        rows: dict[tuple[bool, ...], dict[int, int]] = {(): {x: 1}}
        for r in range(1, r_max + 1):
            rows = _extend_signed(rows, lists, step, ops)
            for sig, row in rows.items():
                tab = levels[r].setdefault(sig, {})
                for y, c in row.items():
                    tab[(x, y)] = c
    return levels


def _cherry_relation(
    pair: WalkPair, delta: int, ops: OpCounter | None, keep: int | None = None
):
    """High flags of the sinks (in-degree above ``delta``) and the cherry
    relation's partner lists, entries masked by ``keep``."""
    high = [d > delta for d in union_in_degrees(pair)]
    return high, _cherry_adjacency(pair.along, pair.against, ops, keep)[1]


def path_table_low(
    w: WeightedDigraph | WalkPair,
    r: int,
    delta: int,
    reverse: bool = False,
    ops: OpCounter | None = None,
) -> PathTable:
    """Endpoint weights of alternating-path maps with low interior sinks.

    A cross-check reference: no engine calls it.
    """
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    high, partners = _cherry_relation(as_pair(w), delta, ops)
    lists = _weighted_split(partners, high, reverse)
    entries = _low_tables(lists, r, _masked_step(-1), ops)[r]
    return PathTable(kind="low", r=r, threshold=delta, entries=entries)


def path_table_high(
    w: WeightedDigraph | WalkPair,
    r: int,
    delta: int,
    signature: DegreeSignature | tuple[bool, ...],
    reverse: bool = False,
    ops: OpCounter | None = None,
) -> PathTable:
    """Endpoint weights of alternating-path maps anchored at a high sink.

    A cross-check reference: no engine calls it.
    """
    if r < 1:
        raise GraphError("path parameter r must be >= 1")
    sig = signature if isinstance(signature, DegreeSignature) else DegreeSignature(tuple(signature))
    if sig.r != r:
        raise GraphError(f"signature covers {sig.r} sinks, path needs {r}")
    high, partners = _cherry_relation(as_pair(w), delta, ops)
    lists = _weighted_split(partners, high, reverse)
    entries = _high_tables(high, lists, r, _masked_step(-1), ops)[r].get(sig.high, {})
    return PathTable(kind="high", r=r, threshold=delta, entries=entries, signature=sig)


def hom_alt_cycle_comb(
    w: WeightedDigraph | WalkPair,
    half_length: int,
    delta: int | None = None,
    ops: OpCounter | None = None,
    length: int | None = None,
) -> int:
    """Total weight of homomorphisms from the alternating 2l-cycle.

    ``half_length`` is l, the number of sources (= sinks): the count is the
    weighted count of closed l-walks in the cherry relation.  The threshold
    defaults to ceil(n ** (1 / ceil(l/2))), which balances the low and high
    row costs.

    ``length`` is the only coefficient the caller reads, z**length, of
    packed weights (width > 0).  Every cherry entry covers two runs and
    has no slot below 2, so an entry can reach z**length only through its
    slots <= length - 2l + 2, and a row after s steps only through its
    slots <= length - 2(l - s).  With ``length`` set, entries and rows are
    masked to these budgets and entries that mask to 0 are dropped: only
    the result's slots above z**length change.  At width 0 or without
    ``length`` nothing is masked.
    """
    ell = half_length
    if ell < 2:
        raise GraphError("alternating cycle needs half-length >= 2")
    pair = as_pair(w)
    n = pair.vertex_count
    if n == 0:
        return 0
    if delta is None:
        delta = max(1, integer_ceil_root(n, (ell + 1) // 2))
    width = pair.along.width
    steps = [_masked_step(-1)] * ell
    keep = None
    if length is not None and width:
        if length < 2 * ell:
            return 0
        keep = slot_mask(length - 2 * ell + 2, width)
        steps = [
            _masked_step(slot_mask(length - 2 * (ell - s), width)) for s in range(1, ell + 1)
        ]
    high, partners = _cherry_relation(pair, delta, ops, keep)
    fwd = _weighted_split(partners, high)
    rev = None if pair.along is pair.against else _weighted_split(partners, high, True)
    return _closed_walks(ell, high, fwd, rev, steps, ops)


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
