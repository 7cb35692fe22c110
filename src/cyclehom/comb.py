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
are dropped.  T is accumulated straight from the packed walk rows into
one dict per sink, masked row by row.  An undirected input's T is
symmetric and built half-way: each unordered sink pair of a source is
multiplied once, under its smaller sink, and mirrored.

Such a budgeted call (``length`` set, width > 0, as the pipeline makes
it) counts l = 2 and l = 3 in closed form on T instead: tr(T**2) is one
pass over T's entries, and

    tr(T**3) = sum_x T[x][x]**3 + 3 * sum_{x != y} T[x][x] T[x][y] T[y][x]
             + 3 * sum_{triangles} (T[x][y] T[y][z] T[z][x]
                                    + T[x][z] T[z][y] T[y][x])

over the triangles of T's support graph, listed from rank-ordered
out-lists (degree order, as the paper orients G by degeneracy) in
O(a(T) * |T|) time for the arboricity a.  Two-entry products are masked
to slots <= length - 2, the row budget after two steps.  Both results
keep only slots 0..length, so every route returns the same value.  l >= 4,
width 0 and unbudgeted calls run the low/high engine (``_low_high``).

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

    Accumulates one dict per first sink, rel[x][y] = sum over sources z of
    against(z, x) * along(z, y).  The table keys (first, second) sink;
    partners[x] lists every (y, w) of rel[x]: the cherry relation's
    out-lists, which the closed-walk steps consume.  When both sides are
    one object the relation is symmetric: each unordered sink pair of a
    source is multiplied once, under its smaller sink, and mirrored.
    ``keep`` masks every entry (a slot budget); entries that mask to 0 are
    dropped.
    """
    rel: list[dict[int, int]] = [{} for _ in range(wl.vertex_count)]
    symmetric = wl is wa
    for z, along_row in enumerate(wl.rows):
        if not along_row:
            continue
        if symmetric:
            if ops:
                ops.add(len(along_row) ** 2)
            # sorted, so this half holds the pairs x <= y
            items = sorted(along_row.items())
            for i, (x, wax) in enumerate(items):
                row = rel[x]
                get = row.get
                for y, wly in items[i:]:
                    row[y] = get(y, 0) + wax * wly
            continue
        against_row = wa.rows[z]
        if ops:
            ops.add(len(against_row) * len(along_row))
        along_items = along_row.items()
        for x, wax in against_row.items():
            row = rel[x]
            get = row.get
            for y, wly in along_items:
                row[y] = get(y, 0) + wax * wly
    if keep is not None:
        rel = [{y: m for y, value in row.items() if (m := value & keep)} for row in rel]
    if symmetric:
        for x, row in enumerate(rel):
            for y, value in row.items():
                if y > x:
                    rel[y][x] = value
    table = {(x, y): value for x, row in enumerate(rel) for y, value in row.items()}
    return table, [list(row.items()) for row in rel]


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


def _trace_square(table, partners, symmetric: bool, ops: OpCounter | None) -> int:
    """tr(T**2) = sum over x, y of T[x][y] * T[y][x], in one pass over T.

    Symmetric T sums the squares of its entries; otherwise each entry looks
    up its transpose in ``table``.  With ``ops``, one op per entry scanned
    and one per product.
    """
    if symmetric:
        total = sum(v * v for row in partners for _, v in row)
        products = len(table)
    else:
        get = table.get
        total = 0
        products = 0
        for (x, y), v in table.items():
            if back := get((y, x)):
                total += v * back
                products += 1
    if ops:
        ops.add(len(table) + products)
    return total


def _trace_cube(table, partners, symmetric: bool, keep: int, ops: OpCounter | None) -> int:
    """tr(T**3) from the diagonal, the support pairs and the triangles of T,
    by the expansion in the module docstring.

    The support graph joins x != y when T[x][y] or T[y][x] is nonzero.  It
    is oriented from lower to higher rank (support degree, ties by id), so
    each pair is read once and each triangle found once, from its lowest
    vertex, by intersecting out-lists: O(a(T) * |T|) for the arboricity a
    (Chiba and Nishizeki, "Arboricity and subgraph listing algorithms",
    1985).  Every two-entry product is masked by ``keep``.  With ``ops``,
    one op per entry of T read, one per out-list entry probed for a
    triangle's third vertex (the shorter of the two lists intersected) and
    one per two- or three-entry product.
    """
    n = len(partners)
    diag = [0] * n
    if symmetric:
        degree = [len(row) for row in partners]
    else:
        degree = [0] * n
    for (x, y), v in table.items():
        if x == y:
            diag[x] = v
            if symmetric:
                degree[x] -= 1
        elif not symmetric and (x < y or (y, x) not in table):
            degree[x] += 1
            degree[y] += 1
    rank = [0] * n
    for r, x in enumerate(sorted(range(n), key=degree.__getitem__)):
        rank[x] = r

    cubes = sum((d * d & keep) * d for d in diag if d)
    pairs = 0
    cycles = 0
    pair_products = 0
    triple_products = 0
    if symmetric:
        # out[x][y] = T[x][y] for support neighbours y ranked above x
        out = [{y: v for y, v in row if rank[y] > rx} for row, rx in zip(partners, rank)]
        for x, ox in enumerate(out):
            dx = diag[x]
            for y, v in ox.items():
                if dx or diag[y]:
                    pairs += (v * v & keep) * (dx + diag[y])
                    pair_products += 1
                oy = out[y]
                common = ox.keys() & oy.keys()
                triple_products += len(common)
                for z in common:
                    cycles += (v * oy[z] & keep) * ox[z]
        total = cubes + 3 * pairs + 6 * cycles
    else:
        # out[x][y] = (T[x][y], T[y][x]) for support neighbours y ranked above x
        out = [{} for _ in range(n)]
        get = table.get
        for (x, y), v in table.items():
            if x == y:
                continue
            if rank[x] < rank[y]:
                out[x][y] = (v, get((y, x), 0))
            elif (y, x) not in table:
                out[y][x] = (0, v)
        for x, ox in enumerate(out):
            dx = diag[x]
            for y, (xy, yx) in ox.items():
                if xy and yx and (dx or diag[y]):
                    pairs += (xy * yx & keep) * (dx + diag[y])
                    pair_products += 1
                oy = out[y]
                common = ox.keys() & oy.keys()
                triple_products += 2 * len(common)
                for z in common:
                    yz, zy = oy[z]
                    xz, zx = ox[z]
                    cycles += (xy * yz & keep) * zx + (xz * zy & keep) * yx
        total = cubes + 3 * pairs + 3 * cycles
    if ops:
        probes = sum(min(len(ox), len(out[y])) for ox in out for y in ox)
        ops.add(len(table) + probes + sum(1 for d in diag if d) + pair_products + triple_products)
    return total


def hom_alt_cycle_comb(
    w: WeightedDigraph | WalkPair,
    half_length: int,
    delta: int | None = None,
    ops: OpCounter | None = None,
    length: int | None = None,
) -> int:
    """Total weight of homomorphisms from the alternating 2l-cycle.

    ``half_length`` is l, the number of sources (= sinks): the count is the
    weighted count of closed l-walks in the cherry relation, tr(T**l).
    The threshold defaults to ceil(n ** (1 / ceil(l/2))), which balances
    the low and high row costs.

    ``length`` is the only coefficient the caller reads, z**length, of
    packed weights (width > 0).  Every cherry entry covers two runs and
    has no slot below 2, so an entry can reach z**length only through its
    slots <= length - 2l + 2, and a row after s steps only through its
    slots <= length - 2(l - s).  With ``length`` set, entries and rows are
    masked to these budgets and entries that mask to 0 are dropped.  Such
    a budgeted call at l = 2 or 3 reads tr(T**2) in one pass over T and
    tr(T**3) from T's diagonal, support pairs and rank-ordered triangles
    (``_trace_square``, ``_trace_cube``); at l >= 4 it runs the low/high
    engine.  Its result keeps only slots 0..length, so both routes return
    the same value.  At width 0 or without ``length`` nothing is masked and
    every l runs the low/high engine.
    """
    ell = half_length
    if ell < 2:
        raise GraphError("alternating cycle needs half-length >= 2")
    pair = as_pair(w)
    if pair.vertex_count == 0:
        return 0
    width = pair.along.width
    if length is not None and width:
        if length < 2 * ell:
            return 0
        if ell <= 3:
            keep = slot_mask(length - 2 * ell + 2, width)
            table, partners = _cherry_adjacency(pair.along, pair.against, ops, keep)
            symmetric = pair.along is pair.against
            if ell == 2:
                total = _trace_square(table, partners, symmetric, ops)
            else:
                total = _trace_cube(table, partners, symmetric, slot_mask(length - 2, width), ops)
            return total & slot_mask(length, width)
    return _low_high(pair, ell, delta, ops, length)


def _low_high(
    pair: WalkPair, ell: int, delta: int | None, ops: OpCounter | None, length: int | None
) -> int:
    """tr(T**ell) by ``_closed_walks`` on the cherry relation, with the
    length budgets of ``hom_alt_cycle_comb`` when ``length`` is set and the
    weights are packed.  The pipeline's ``cross_check`` recounts its
    closed-form base sizes here."""
    n = pair.vertex_count
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
    A cross-check reference over the per-length view: the pipeline reads
    all splits at once from the packed rows.
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
