"""Walk-count weights over a bounded-out-degree DAG, as packed rows.

For every vertex x of a DAG this builds one row {y: weight}: the
walk-count polynomial sum_l count_l(x, y) z**l over the lengths
1 <= l <= horizon, evaluated at z = 2**width (see ``ring``).  A width > 0
packs each count into its own ``width``-bit slot, which is what lets the
cycle engines separate contributions by total walk length; width 0 is the
plain sum over lengths.

One pass in reverse topological order builds every row from the rows of
its out-neighbours, row(x) = sum over arcs x -> c of z * (1 + row(c)),
masked to the horizon.  Every later phase of the degenerate pipeline reads
these rows.  The per-length table, the (x, y)-keyed weights, the support
digraph and the out-item lists are derived views, built on demand for the
cross-checks and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Digraph, GraphError
from .ring import slot_mask


@dataclass(frozen=True)
class WeightedDigraph:
    """Packed walk weights, one row per vertex.

    ``rows[x][y]`` is sum_l count_l(x, y) * 2**(width * l) over the lengths
    l <= ``horizon`` with a walk, where count_l(x, y) is the number of
    l-edge walks from x to y in ``source``; a pair with no such walk has no
    entry.  ``source`` is the DAG the rows were built from: a width-0 view
    is restricted, and its per-length counts are decoded, by rebuilding
    from it.
    """

    rows: list[dict[int, int]]
    source: Digraph = field(compare=False)
    horizon: int
    width: int = 0

    @property
    def vertex_count(self) -> int:
        return len(self.rows)

    @property
    def ring_view(self) -> dict[tuple[int, int], int]:
        """The weights keyed by (x, y)."""
        return {(x, y): weight for x, row in enumerate(self.rows) for y, weight in row.items()}

    @property
    def digraph(self) -> Digraph:
        """The support: the arc (x, y) exists exactly when x's row has y."""
        # The keys are distinct pairs of a DAG's walk relation: a DAG again.
        return Digraph._from_out_lists([list(row) for row in self.rows], is_dag=True)

    @property
    def per_length(self) -> dict[tuple[int, int, int], int]:
        """{(x, y, l): count_l(x, y)} over the nonzero counts: the slots of
        the rows, or at width 0 of rows rebuilt from ``source``."""
        rows, width = self.rows, self.width
        if not width:
            width = _exact_width(self.source, self.horizon)
            rows = _packed_rows(self.source, self.horizon, width)
        mask = (1 << width) - 1
        return {
            (x, y, step): count
            for x, row in enumerate(rows)
            for y, weight in row.items()
            for step in range(1, self.horizon + 1)
            if (count := weight >> (width * step) & mask)
        }


def _topological_order(d: Digraph) -> list[int]:
    """Kahn's algorithm: every arc points forward in the returned order."""
    indeg = list(d.in_degree)
    order = [v for v, k in enumerate(indeg) if not k]
    adjacency = d.out_adjacency
    for u in order:
        for v in adjacency[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    return order


def _packed_rows(d: Digraph, horizon: int, width: int) -> list[dict[int, int]]:
    """Every vertex's row at ``width`` > 0, sinks first.

    Slot l - 1 of the unshifted sum over out-neighbours c of 1 + row(c)
    counts the l-walks from x, so one shift moves every count to its slot
    and one mask drops the walks longer than the horizon (and the carries
    of their slot, which only move upward).
    """
    keep = slot_mask(horizon, width)
    rows: list[dict[int, int]] = [{} for _ in range(d.vertex_count)]
    adjacency = d.out_adjacency
    for x in reversed(_topological_order(d)):
        if not adjacency[x]:
            continue
        row: dict[int, int] = {}
        get = row.get
        for c in adjacency[x]:
            row[c] = get(c, 0) + 1
            for y, weight in rows[c].items():
                row[y] = get(y, 0) + weight
        rows[x] = {y: m for y, weight in row.items() if (m := weight << width & keep)}
    return rows


def _exact_width(d: Digraph, horizon: int) -> int:
    """The narrowest width whose slots hold every count of walks up to
    ``horizon`` edges: at most max_out_degree**horizon walks leave a
    vertex."""
    return max(1, (d.max_out_degree**horizon).bit_length())


def build_walk_weights(d: Digraph, horizon: int, width: int = 0) -> WeightedDigraph:
    """Count all walks of length up to ``horizon`` between every pair.

    Each pair's weight packs count_l into slot l at ``width`` bits per slot;
    width 0 is the plain sum over lengths, built at the narrowest exact
    width and summed slot by slot.  A cycle count's coefficients up to
    z**l stay exact at ``ring.degree_slot_width(n, l, D)``, with D the
    maximum degree of the graph whose walks it adds up.  Raises GraphError
    up front when max_out_degree**horizon, the most walks that can leave a
    vertex, does not fit ``width`` bits, since a count over its slot would
    carry into the next one.  Requires a DAG; one pass in reverse
    topological order, with n * max_out_degree**horizon entries in the
    worst case.
    """
    if horizon < 1:
        raise GraphError("walk horizon must be >= 1")
    if width < 0:
        raise GraphError("slot width must be >= 0")
    if not d.is_dag:
        raise GraphError("walk weights require an acyclic digraph")
    if width:
        if (d.max_out_degree**horizon) >> width:
            raise GraphError(
                f"walks of up to {horizon} edges at out-degree {d.max_out_degree} "
                f"do not fit a {width}-bit slot"
            )
        return WeightedDigraph(_packed_rows(d, horizon, width), d, horizon, width)
    exact = _exact_width(d, horizon)
    mask = (1 << exact) - 1
    slots = range(exact, exact * (horizon + 1), exact)
    rows = [
        {y: sum(weight >> shift & mask for shift in slots) for y, weight in row.items()}
        for row in _packed_rows(d, horizon, exact)
    ]
    return WeightedDigraph(rows, d, horizon)


def restrict_view(w: WeightedDigraph, max_length: int) -> WeightedDigraph:
    """The weights of walks of length <= ``max_length`` only, at ``w``'s width.

    Used by the cycle pipeline to derive, from one full walk-count pass, the
    per-base-size views whose arc weights never exceed the length any single
    subdivision path can attain.  A packed ``w`` keeps its width, and with
    it the source's exact-coefficient bound: this is one slot mask per row
    entry, and entries that mask to 0 are dropped.  At width 0 the sums
    are rebuilt from the source DAG.
    """
    if max_length < 1:
        raise GraphError("walk length bound must be >= 1")
    horizon = min(w.horizon, max_length)
    if not w.width:
        return build_walk_weights(w.source, horizon)
    keep = slot_mask(horizon, w.width)
    rows = [{y: m for y, weight in row.items() if (m := weight & keep)} for row in w.rows]
    return WeightedDigraph(rows, w.source, horizon, w.width)


@dataclass(frozen=True)
class WalkPair:
    """Two-sided walk weights for directed-cycle counting.

    ``along`` weights arcs of the alternating cycle that point with the
    traversal direction, ``against`` the ones that point against it.  For
    undirected inputs both sides are the same object.
    """

    along: WeightedDigraph
    against: WeightedDigraph

    @property
    def vertex_count(self) -> int:
        return self.along.vertex_count


def as_pair(w: WeightedDigraph | WalkPair) -> WalkPair:
    if isinstance(w, WalkPair):
        return w
    return WalkPair(along=w, against=w)


def union_in_degrees(pair: WalkPair) -> list[int]:
    """In-degree of each vertex over the union of both weight supports:
    the number of rows that hold it on either side."""
    indeg = [0] * pair.vertex_count
    if pair.along is pair.against:
        for row in pair.along.rows:
            for y in row:
                indeg[y] += 1
        return indeg
    for along, against in zip(pair.along.rows, pair.against.rows):
        for y in along.keys() | against.keys():
            indeg[y] += 1
    return indeg
