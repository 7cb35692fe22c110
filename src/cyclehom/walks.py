"""Walk-count weights over a bounded-out-degree DAG.

From a DAG this builds, for every ordered pair (x, y) and every length
1 <= l <= horizon, the exact number of directed x->y walks with l edges,
plus one int weight per pair: the walk-count polynomial sum_l count_l z**l
evaluated at z = 2**width (see ``ring``).  A width > 0 packs each count
into its own ``width``-bit slot, which is what lets the cycle engines
separate contributions by total walk length; width 0 is the plain sum over
lengths.  One forward sweep per source fills the per-length counts and the
packed weights together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Digraph, GraphError
from .ring import pack, slot_mask


@dataclass(frozen=True)
class WeightedDigraph:
    """A digraph whose arcs carry per-length walk counts and a packed weight.

    ``per_length[(x, y, l)]`` is the number of l-edge walks from x to y in
    the source DAG; ``ring_view[(x, y)]`` is sum_l per_length[(x, y, l)] *
    2**(width * l) over the lengths up to ``horizon``.  ``digraph`` is the
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


def _packed(per_length: dict, top: int) -> dict[tuple[int, int], int]:
    """Sum the counts of walks no longer than ``top`` into one int per pair
    (width 0)."""
    ring_view: dict[tuple[int, int], int] = {}
    for (x, y, step), count in per_length.items():
        if step <= top:
            key = (x, y)
            ring_view[key] = ring_view.get(key, 0) + count
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


def build_walk_weights(d: Digraph, horizon: int, width: int = 0) -> WeightedDigraph:
    """Count all walks of length up to ``horizon`` between every pair.

    Each pair's weight packs count_l into slot l at ``width`` bits per slot
    (``ring.pack``, which raises on a count that does not fit); width 0 is
    the plain sum over lengths.  A cycle count's coefficients up to z**l
    stay exact at ``ring.degree_slot_width(n, l, D)``, with D the maximum
    degree of the graph whose walks it adds up.  Requires a DAG; runs one
    forward sweep per source, so time and output size are
    n * max_out_degree**horizon in the worst case.
    """
    if horizon < 1:
        raise GraphError("walk horizon must be >= 1")
    if width < 0:
        raise GraphError("slot width must be >= 0")
    if not d.is_dag:
        raise GraphError("walk weights require an acyclic digraph")
    n = d.vertex_count
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
                weights[y] = weights.get(y, 0) + pack(cnt, step, width)
            frontier = nxt
        for y, weight in weights.items():
            ring_view[(x, y)] = weight
    return _weighted(n, horizon, per_length, ring_view, width)


def restrict_view(w: WeightedDigraph, max_length: int) -> WeightedDigraph:
    """The weights of walks of length <= ``max_length`` only, at ``w``'s width.

    Used by the cycle pipeline to derive, from one full walk-count pass, the
    per-base-size views whose arc weights never exceed the length any single
    subdivision path can attain.  A packed ``w`` keeps its width, and with
    it the source's exact-coefficient bound: this is one slot mask per
    weight.  At width 0 the sums are rebuilt from the per-length counts.
    ``per_length`` is shared with ``w``: it keeps the counts up to the
    source horizon.
    """
    if max_length < 1:
        raise GraphError("walk length bound must be >= 1")
    horizon = min(w.horizon, max_length)
    if w.width:
        keep = slot_mask(horizon, w.width)
        ring_view = {key: m for key, value in w.ring_view.items() if (m := value & keep)}
    else:
        ring_view = _packed(w.per_length, horizon)
    return _weighted(w.vertex_count, horizon, w.per_length, ring_view, w.width)


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
