"""Walk-count weights over a bounded-out-degree DAG.

From a DAG this builds, for every ordered pair (x, y) and every length
1 <= l <= horizon, the exact number of directed x->y walks with l edges,
plus one int weight per pair: the walk-count polynomial sum_l count_l z**l
evaluated at z = 2**width (see ``ring``).  The POLYNOMIAL view packs each
count into its own ``width``-bit slot, which is what lets the cycle engines
separate contributions by total walk length; the AGGREGATE view is width 0,
the plain sum over lengths.  One forward sweep per source fills the
per-length counts and the packed weights together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Digraph, GraphError
from .ring import degree_slot_width, pack, slot_mask, slot_width

AGGREGATE = "aggregate"
POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class WeightedDigraph:
    """A digraph whose arcs carry per-length walk counts and a packed weight.

    ``per_length[(x, y, l)]`` is the number of l-edge walks from x to y in
    the source DAG; ``ring_view[(x, y)]`` is sum_l per_length[(x, y, l)] *
    2**(width * l) over the lengths the view keeps.  ``digraph`` is the
    support: the arc (x, y) exists exactly when the weight is nonzero.
    """

    digraph: Digraph
    horizon: int
    per_length: dict[tuple[int, int, int], int] = field(compare=False)
    ring_view: dict[tuple[int, int], int] = field(compare=False)
    width: int = 0

    @property
    def vertex_count(self) -> int:
        return self.digraph.vertex_count

    def out_items(self, x: int) -> list[tuple[int, int]]:
        return [(y, self.ring_view[(x, y)]) for y in self.digraph.out_adjacency[x]]


def _view(
    view: str, n: int, horizon: int, trunc: int, max_degree: int | None = None
) -> tuple[int, int]:
    """(slot width, longest walk kept) of a view.

    The POLYNOMIAL width keeps slots up to ``trunc`` exact; a known
    ``max_degree`` narrows it to ``ring.degree_slot_width``.
    """
    if view == AGGREGATE:
        return 0, horizon
    if view == POLYNOMIAL:
        width = slot_width(n, trunc)
        if max_degree is not None:
            width = max(1, min(width, degree_slot_width(n, trunc, max_degree)))
        return width, min(horizon, trunc)
    raise GraphError(f"unknown view {view!r}")


def _packed(per_length: dict, top: int, width: int) -> dict[tuple[int, int], int]:
    """Pack the counts of walks no longer than ``top`` into one int per pair."""
    ring_view: dict[tuple[int, int], int] = {}
    for (x, y, step), count in per_length.items():
        if step <= top:
            key = (x, y)
            ring_view[key] = ring_view.get(key, 0) + pack(count, step, width)
    return ring_view


def _weighted(
    n: int, horizon: int, per_length: dict, ring_view: dict, width: int
) -> WeightedDigraph:
    # The keys are distinct pairs of a DAG's walk relation: a DAG again.
    out: list[list[int]] = [[] for _ in range(n)]
    for x, y in ring_view:
        out[x].append(y)
    return WeightedDigraph(
        digraph=Digraph._from_out_lists(out, is_dag=True), horizon=horizon,
        per_length=per_length, ring_view=ring_view, width=width,
    )


def build_walk_weights(
    d: Digraph,
    horizon: int,
    view: str = AGGREGATE,
    trunc: int | None = None,
    max_degree: int | None = None,
) -> WeightedDigraph:
    """Count all walks of length up to ``horizon`` between every pair.

    ``view`` selects the weight per pair: AGGREGATE sums the counts,
    POLYNOMIAL packs count_l into slot l, dropping lengths above ``trunc``
    (defaults to the horizon), at the slot width that keeps coefficients up
    to z**trunc of cycle counts exact.  ``max_degree`` bounds the degree of
    the graph whose walks the cycle counts add up (for a digraph, of its
    underlying graph) and narrows that width (``ring.degree_slot_width``);
    both sides of a digraph's pair must get the same value.  Requires a
    DAG; runs one forward sweep per source, so time and output size are
    n * max_out_degree**horizon in the worst case.
    """
    if horizon < 1:
        raise GraphError("walk horizon must be >= 1")
    if not d.is_dag:
        raise GraphError("walk weights require an acyclic digraph")
    n = d.vertex_count
    trunc = horizon if trunc is None else trunc
    width, top = _view(view, n, horizon, trunc, max_degree)
    per_length: dict[tuple[int, int, int], int] = {}
    ring_view: dict[tuple[int, int], int] = {}
    adjacency = d.out_adjacency
    for x in range(n):
        if not adjacency[x]:
            continue
        frontier = {x: 1}
        weights: dict[int, int] = {}
        for step in range(1, horizon + 1):
            nxt: dict[int, int] = {}
            for u, cnt in frontier.items():
                for v in adjacency[u]:
                    nxt[v] = nxt.get(v, 0) + cnt
            if not nxt:
                break
            for y, cnt in nxt.items():
                per_length[(x, y, step)] = cnt
                if step <= top:
                    weights[y] = weights.get(y, 0) + pack(cnt, step, width)
            frontier = nxt
        for y, weight in weights.items():
            ring_view[(x, y)] = weight
    return _weighted(n, horizon, per_length, ring_view, width)


def restrict_view(
    w: WeightedDigraph, max_length: int, view: str, trunc: int | None = None
) -> WeightedDigraph:
    """The weights of walks of length <= ``max_length`` only.

    Used by the cycle pipeline to derive, from one full walk-count pass, the
    per-base-size views whose arc weights never exceed the length any single
    subdivision path can attain.  A packed ``w`` keeps its width under the
    POLYNOMIAL view, and with it the source's exact-coefficient bound: this
    is one slot mask per weight.  Otherwise the weights are repacked from
    the per-length counts.  ``per_length`` is shared with ``w``: it keeps
    the counts up to the source horizon.
    """
    n = w.vertex_count
    horizon = min(w.horizon, max_length)
    trunc = max_length if trunc is None else trunc
    if w.width and view == POLYNOMIAL:
        width = w.width
        keep = slot_mask(min(horizon, trunc), width)
        ring_view = {key: m for key, value in w.ring_view.items() if (m := value & keep)}
    else:
        width, top = _view(view, n, horizon, trunc)
        ring_view = _packed(w.per_length, top, width)
    return _weighted(n, horizon, w.per_length, ring_view, width)


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
    """In-degree of each vertex over the union of both weight supports."""
    n = pair.vertex_count
    if pair.along is pair.against:
        return list(pair.along.digraph.in_degree)
    indeg = [0] * n
    seen: set[tuple[int, int]] = set()
    for side in (pair.along, pair.against):
        for u, v in side.digraph.arcs():
            if (u, v) not in seen:
                seen.add((u, v))
                indeg[v] += 1
    return indeg
