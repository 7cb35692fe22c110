"""Cycle detection through transversal counting.

A partitioned graph's cycle transversals (simple p-cycles using each part
exactly once) are counted on its cycle core.  When the part graph Q (parts
joined by a core edge) is a single p-cycle, as on both detectors' inputs
below, a closed p-walk is a transversal exactly when it winds once around
Q, so one count of the core oriented forward along Q (undirected) or one
count per direction (directed) gives the total: one or two counts in place
of the 2p + 1 inclusion-exclusion terms, each handed to the engine as a
``Digraph``.  On any other Q the count is an inclusion-exclusion over part
subsets, each term a plain cycle-homomorphism count on an induced
subgraph; since a term adds over the components of Q it induces, and a
component's signs cancel unless its closed neighbourhood is every part,
only connected, dominating part sets are counted.  Directed k-cycle
detection in an arbitrary digraph reduces to this: randomly k-partition,
keep arcs between consecutive classes, subdivide each arc, and the
subdivided graph is a 2-degenerate 2k-partite graph whose transversals are
exactly the surviving directed k-cycles.  The paper's converse reduction
hands that gadget to an undirected hom(C_2k) counter; the oriented route
here hands its orientation to a directed hom(C_p) counter instead.
Degenerate-graph detection skips the gadget and counts transversals of the
consistent subgraph itself.  Both supply only their trial, one colouring
in and hit or miss out, to ``general``'s colour-coding loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .general import _colour_coding, repetitions
from .graphs import Digraph, Graph, GraphError, cycle_core, degeneracy_ordering
from .pipeline import EngineError, hom_cycle_degenerate

# detect_cycle_degenerate searches exhaustively, ignoring reps and seed, for
# k below this bound.
EXHAUSTIVE_BELOW_K = 6


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph plus a partition of its vertices into at least three parts."""

    graph: Graph | Digraph
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.graph.vertex_count
        if len(self.parts) < 3:
            raise GraphError("partition needs at least 3 parts")
        seen: set[int] = set()
        for part in self.parts:
            for v in part:
                if not 0 <= v < n:
                    raise GraphError(f"vertex {v} out of range")
                if v in seen:
                    raise GraphError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != n:
            raise GraphError("parts do not cover the vertex set")

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def directed(self) -> bool:
        return isinstance(self.graph, Digraph)


@dataclass(frozen=True)
class TransversalCount:
    """Homomorphism-level and cycle-level transversal counts."""

    hom_transversals: int
    cycle_transversals: int


@dataclass(frozen=True)
class GadgetInstance:
    """Subdivided layered graph whose transversals are directed k-cycles."""

    partitioned: PartitionedGraph
    subdivision_vertices: dict[tuple[int, int], tuple[int, ...]]


def _induced_subgraph(
    make, keep: tuple[int, ...], edges: list[tuple[int, int, int]]
) -> Graph | Digraph | None:
    """The kept parts' share of ``edges``, each (u, v, mask of its parts).

    ``make(n, pairs)`` builds the result, so it decides between ``Digraph``
    and ``Graph``.  Only vertices with a kept edge are kept, relabeled
    densely: an isolated vertex adds nothing to a cycle-homomorphism count.
    None when no edge is kept.
    """
    keep_mask = sum(1 << i for i in keep)
    index: dict[int, int] = {}
    pairs = [
        (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
        for u, v, mask in edges
        if mask & keep_mask == mask
    ]
    if not pairs:
        return None
    return make(len(index), pairs)


def _term(make, keep, edges, p: int, hom_engine) -> int:
    """hom(C_p) of the kept parts' share of ``edges``."""
    sub = _induced_subgraph(make, keep, edges)
    # A DAG has no closed walk: its term is 0 without a count.
    if sub is None or isinstance(sub, Digraph) and sub.is_dag:
        return 0
    return hom_engine(sub, p)


def _cyclic_order(closed: list[int]) -> list[int] | None:
    """The parts in cyclic order when the part graph Q is one cycle through
    all of them, else None; ``closed[i]`` is the mask of part i and its
    neighbours in Q."""
    p = len(closed)
    nbrs = [closed[i] & ~(1 << i) for i in range(p)]
    if any(m.bit_count() != 2 for m in nbrs):
        return None
    # Q is 2-regular: walk it from part 0 and fail on a shorter cycle.
    order = [0, (nbrs[0] & -nbrs[0]).bit_length() - 1]
    while len(order) < p:
        nxt = (nbrs[order[-1]] & ~(1 << order[-2])).bit_length() - 1
        if nxt == 0:
            return None
        order.append(nxt)
    return order


def transversal_count(
    pg: PartitionedGraph, hom_engine=None
) -> TransversalCount:
    """Count cycle transversals: by oriented counts on a cyclic part graph,
    by inclusion-exclusion over part subsets otherwise.

    ``hom_engine(graph, p)`` must return hom(C_p, graph) exactly; it
    defaults to the degenerate-graph pipeline.  A transversal uses no edge
    inside a part and only vertices on cycles of what remains, so every
    count runs on that cycle core (``graphs.cycle_core``), and none at all
    when the core misses a part.  Let Q be the part graph of the core
    (parts joined by a core edge).

    When Q is a single p-cycle, as for the gadget and the degenerate
    detector, each step of a closed p-walk moves one part forward or back
    along Q's cyclic order, and the walk is a transversal exactly when it
    winds once around Q.  With D+ the core edges that step forward (an
    undirected edge taken in its forward direction) and D- the arcs that
    step back, the total is 2 * hom(C_p, D+) undirected and
    hom(C_p, D+) + hom(C_p, D-) directed: one or two counts in place of
    the 2p + 1 inclusion-exclusion terms a cyclic Q needs, and the engine
    receives a ``Digraph`` even for an undirected partitioned graph.

    Otherwise a subset's term adds over the components of Q it induces,
    and a component's signs cancel unless it reaches every part, so only
    the part sets that are connected and dominating in Q are counted: all
    of them on a complete Q.  A directed count whose arcs form a DAG is 0
    and skips the engine.  The homomorphism-level total is divisible by 2p
    (p in the directed case), one orbit per transversal cycle; a failed
    division means the engine is broken.
    """
    if hom_engine is None:
        hom_engine = hom_cycle_degenerate
    g = pg.graph
    p = pg.part_count
    directed = pg.directed()
    part_of = [0] * g.vertex_count
    for i, part in enumerate(pg.parts):
        for v in part:
            part_of[v] = i
    pairs = g.arcs() if isinstance(g, Digraph) else g.edges()
    core = cycle_core(
        g.vertex_count,
        [(u, v) for u, v in pairs if part_of[u] != part_of[v]],
        directed,
    )
    edges = [(u, v, 1 << part_of[u] | 1 << part_of[v]) for u, v in core]
    full = (1 << p) - 1
    covered = 0
    closed = [1 << i for i in range(p)]  # part i and its neighbours in Q
    for mask in {mask for _, _, mask in edges}:
        covered |= mask
        for i in range(p):
            if mask >> i & 1:
                closed[i] |= mask
    if covered != full:
        return TransversalCount(hom_transversals=0, cycle_transversals=0)
    order = _cyclic_order(closed)
    if order is not None:
        total = _winding_total(order, part_of, edges, directed, hom_engine)
    else:
        total = _dominating_total(g, closed, edges, hom_engine)
    orbit = p if directed else 2 * p
    if total % orbit:
        raise EngineError(
            f"transversal total {total} not divisible by {orbit}; engine bug"
        )
    return TransversalCount(hom_transversals=total, cycle_transversals=total // orbit)


def _dominating_total(
    g: Graph | Digraph,
    closed: list[int],
    edges: list[tuple[int, int, int]],
    hom_engine,
) -> int:
    """Inclusion-exclusion over the part sets connected and dominating in
    the part graph Q; ``closed[i]`` is the mask of part i and its
    neighbours in Q."""
    make = Digraph.from_arcs if isinstance(g, Digraph) else Graph.from_edges
    p = len(closed)
    full = (1 << p) - 1
    total = 0
    # The connected part sets of each size, each with its closed
    # neighbourhood; every one of size s + 1 grows from one of size s.
    level = {1 << i: closed[i] for i in range(p)}
    for size in range(1, p + 1):
        sign = -1 if (p - size) % 2 else 1
        for keep, reach in level.items():
            if reach == full:
                parts = tuple(i for i in range(p) if keep >> i & 1)
                total += sign * _term(make, parts, edges, p, hom_engine)
        level = {
            keep | 1 << i: reach | closed[i]
            for keep, reach in level.items()
            for i in range(p)
            if (reach & ~keep) >> i & 1
        }
    return total


def _winding_total(
    order: list[int],
    part_of: list[int],
    edges: list[tuple[int, int, int]],
    directed: bool,
    hom_engine,
) -> int:
    """Closed p-walks winding once around the cyclic part graph ``order``."""
    p = len(order)
    position = [0] * p
    for t, i in enumerate(order):
        position[i] = t
    forward: list[tuple[int, int, int]] = []
    backward: list[tuple[int, int, int]] = []
    for u, v, mask in edges:
        if (position[part_of[v]] - position[part_of[u]]) % p == 1:
            forward.append((u, v, mask))
        elif directed:
            backward.append((u, v, mask))
        else:
            forward.append((v, u, mask))
    every = tuple(range(p))
    total = _term(Digraph.from_arcs, every, forward, p, hom_engine)
    if not directed:
        return 2 * total
    return total + _term(Digraph.from_arcs, every, backward, p, hom_engine)


def _gadget_length(k: int, cycle_length: int | None) -> int:
    """The gadget's transversal length p >= 2k (2k by default), for k >= 3."""
    if k < 3:
        raise GraphError("gadget needs k >= 3")
    p = 2 * k if cycle_length is None else cycle_length
    if p < 2 * k:
        raise GraphError("gadget cycle length must be at least 2k")
    return p


def build_detection_gadget(
    d: Digraph,
    k: int,
    partition: tuple[tuple[int, ...], ...],
    cycle_length: int | None = None,
) -> GadgetInstance:
    """Layer a digraph by a k-partition and subdivide the surviving arcs.

    Arcs not going from class i to class i+1 (mod k) are dropped; every kept
    arc becomes an undirected path through fresh vertices.  With the default
    cycle length 2k each arc is split once and the parts alternate vertex
    classes and arc classes.  Larger targets p subdivide the class-1-to-2
    arcs into a path of length p + 2 - 2k instead, supporting odd p.
    """
    p = _gadget_length(k, cycle_length)
    if len(partition) != k:
        raise GraphError(f"expected a {k}-partition")
    n = d.vertex_count
    cls = [-1] * n
    for i, part in enumerate(partition):
        for v in part:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range")
            cls[v] = i
    if any(c < 0 for c in cls):
        raise GraphError("partition does not cover the vertex set")

    long_len = p + 2 - 2 * k  # length of the paths replacing class-0 arcs
    edges: list[tuple[int, int]] = []
    next_id = n
    subdivision: dict[tuple[int, int], tuple[int, ...]] = {}
    arc_class_members: list[list[list[int]]] = [
        [[] for _ in range(long_len - 1 if i == 0 else 1)] for i in range(k)
    ]
    for u, v in d.arcs():
        i = cls[u]
        if cls[v] != (i + 1) % k:
            continue
        length = long_len if i == 0 else 2
        chain = [next_id + t for t in range(length - 1)]
        next_id += length - 1
        subdivision[(u, v)] = tuple(chain)
        path = [u] + chain + [v]
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
        for slot, z in enumerate(chain):
            arc_class_members[i][slot].append(z)

    gadget_graph = Graph.from_edges(next_id, edges)
    parts: list[tuple[int, ...]] = []
    for i in range(k):
        parts.append(tuple(partition[i]))
        for slot_members in arc_class_members[i]:
            parts.append(tuple(slot_members))
    pg = PartitionedGraph(graph=gadget_graph, parts=tuple(parts))
    return GadgetInstance(partitioned=pg, subdivision_vertices=subdivision)


def detect_directed_cycle(
    d: Digraph,
    k: int,
    reps: int | None = None,
    seed: int | None = None,
    delta: float = 0.05,
    cycle_length: int | None = None,
    hom_engine=None,
) -> bool:
    """Directed k-cycle detection via the subdivision gadget.

    Each repetition randomly k-partitions the vertices, builds the gadget,
    and counts its cycle transversals with the degenerate-graph pipeline
    (the gadget is 2-degenerate).  Any positive count certifies a directed
    k-cycle; a planted cycle survives a repetition with probability at
    least k**-k.
    """
    reps = repetitions(k, reps, delta)
    p = _gadget_length(k, cycle_length)

    def trial(rng) -> bool:
        partition = _random_partition(rng, d.vertex_count, k)
        pg = build_detection_gadget(d, k, partition, p).partitioned
        return all(pg.parts) and transversal_count(pg, hom_engine).hom_transversals > 0

    return _colour_coding(d.vertex_count, k, reps, seed, trial)


def detect_cycle_degenerate(
    g: Graph | Digraph,
    k: int,
    reps: int | None = None,
    seed: int | None = None,
    delta: float = 0.05,
    degeneracy_warning: int = 32,
    hom_engine=None,
) -> bool:
    """(Directed) k-cycle detection in a bounded-degeneracy graph.

    Random k-partitions keep only part-consistent edges; transversals of
    the consistent subgraph are exactly the simple k-cycles colored
    consistently, counted through the degenerate-graph pipeline.  For
    k < ``EXHAUSTIVE_BELOW_K`` plain exhaustive search is faster and used
    instead.
    """
    reps = repetitions(k, reps, delta)
    if k < EXHAUSTIVE_BELOW_K:
        return _find_short_cycle(g, k)
    directed = isinstance(g, Digraph)
    # The degeneracy is at most the maximum degree, so only a graph with a
    # vertex of degree above the threshold needs its ordering to decide.
    if not directed and max(map(len, g.adjacency), default=0) > degeneracy_warning:
        degeneracy = degeneracy_ordering(g).degeneracy
        if degeneracy > degeneracy_warning:
            warnings.warn(
                f"input degeneracy {degeneracy} is large; "
                "the degenerate-graph detector may be slow",
                stacklevel=2,
            )
    n = g.vertex_count
    pairs = g.arcs() if isinstance(g, Digraph) else g.edges()
    # An arc steps one class forward; an edge one class either way.
    steps = (1,) if directed else (1, k - 1)

    def trial(rng) -> bool:
        partition = _random_partition(rng, n, k)
        if not all(partition):
            return False
        cls = [0] * n
        for i, part in enumerate(partition):
            for v in part:
                cls[v] = i
        kept = [(u, v) for u, v in pairs if (cls[v] - cls[u]) % k in steps]
        if not kept:
            return False
        consistent = Digraph.from_arcs(n, kept) if directed else Graph.from_edges(n, kept)
        pg = PartitionedGraph(graph=consistent, parts=partition)
        return transversal_count(pg, hom_engine).hom_transversals > 0

    return _colour_coding(n, k, reps, seed, trial)


def _random_partition(rng, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k classes of vertices 0..n-1, one ``rng.randrange(k)`` draw each in
    vertex order."""
    parts: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        parts[rng.randrange(k)].append(v)
    return tuple(tuple(p) for p in parts)


def _find_short_cycle(g: Graph | Digraph, k: int) -> bool:
    """Direct DFS search for a simple k-cycle; fine for small k."""
    n = g.vertex_count
    adj = g.out_adjacency if isinstance(g, Digraph) else g.adjacency
    on_path = [False] * n

    def dfs(start: int, u: int, depth: int) -> bool:
        if depth == k:
            return start in adj[u]
        for v in adj[u]:
            if v == start or on_path[v] or v < start:
                continue
            on_path[v] = True
            if dfs(start, v, depth + 1):
                on_path[v] = False
                return True
            on_path[v] = False
        return False

    for s in range(n):
        on_path[s] = True
        if dfs(s, s, 1):
            return True
        on_path[s] = False
    return False
