"""Undirected graphs (``Graph``) and digraphs (``Digraph``), edge-list
parsing, degeneracy orderings.

Vertex ids are dense integers assigned at parse time in order of first
appearance.  All structures are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace


class GraphError(Exception):
    """Malformed input or misuse of a graph operation."""


class ParseError(GraphError):
    """Bad edge-list input; the message names the offending line."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph over dense vertex ids.

    Every edge is stored in both endpoint lists and ``edge_count`` is the
    number of edges.  Directed input is a ``Digraph``.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int
    labels: tuple[str, ...] = field(default=(), compare=False)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges, each once as (min, max)."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]

    @staticmethod
    def from_edges(n: int, edges: list[tuple[int, int]]) -> "Graph":
        """A graph on vertices 0..n-1 from distinct, loop-free edge pairs.

        The pairs are not checked: callers pass edges of a graph they
        already hold, each edge once.
        """
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return Graph(
            vertex_count=n,
            adjacency=tuple(tuple(sorted(a)) for a in adj),
            edge_count=len(edges),
        )


@dataclass(frozen=True)
class Digraph:
    """A digraph with out-adjacency lists, degree summaries and a DAG flag."""

    vertex_count: int
    out_adjacency: tuple[tuple[int, ...], ...]
    in_degree: tuple[int, ...]
    max_out_degree: int
    is_dag: bool
    labels: tuple[str, ...] = field(default=(), compare=False)

    @staticmethod
    def from_arcs(
        n: int, arcs: list[tuple[int, int]], allow_loops: bool = False
    ) -> "Digraph":
        out: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) out of range for n={n}")
            if u == v and not allow_loops:
                raise GraphError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise GraphError(f"duplicate arc ({u},{v})")
            seen.add((u, v))
            out[u].append(v)
        return Digraph._from_out_lists(out)

    @staticmethod
    def _from_out_lists(out: list[list[int]], is_dag: bool = False) -> "Digraph":
        """The digraph with out-neighbor lists ``out`` (sorted in place).

        With ``is_dag`` the caller vouches that the arcs are distinct and
        ascend in some vertex order, and acyclicity is not rechecked.
        """
        n = len(out)
        indeg = [0] * n
        for lst in out:
            lst.sort()
            for v in lst:
                indeg[v] += 1
        return Digraph(
            vertex_count=n,
            out_adjacency=tuple(tuple(lst) for lst in out),
            in_degree=tuple(indeg),
            max_out_degree=max((len(lst) for lst in out), default=0),
            is_dag=is_dag or _is_acyclic(n, out, indeg),
        )

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nbrs in enumerate(self.out_adjacency) for v in nbrs]

    def arc_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.out_adjacency)

    def underlying_graph(self) -> Graph:
        """The simple undirected graph obtained by forgetting arc directions."""
        pairs = {(min(u, v), max(u, v)) for u, v in self.arcs() if u != v}
        return Graph.from_edges(self.vertex_count, list(pairs))


def _is_acyclic(n: int, out: list[list[int]], indeg: list[int]) -> bool:
    remaining = list(indeg)
    stack = [v for v in range(n) if remaining[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in out[u]:
            remaining[v] -= 1
            if remaining[v] == 0:
                stack.append(v)
    return seen == n


@dataclass(frozen=True)
class DegeneracyOrdering:
    """A vertex order in which every vertex has at most ``degeneracy``
    neighbors later in the order."""

    order: tuple[int, ...]
    degeneracy: int


def parse_graph(text: str | bytes, directed: bool = False) -> Graph | Digraph:
    """Parse whitespace-separated "u v" lines into a Graph, or a Digraph
    when ``directed``.

    Lines starting with '#' and blank lines are ignored.  Vertex labels may
    be arbitrary tokens; they are densified to integer ids in order of first
    appearance.  Self-loops, repeated edges and bytes that are not UTF-8
    are rejected.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"line {lineno}: not UTF-8 text") from None
    ids: dict[str, int] = {}
    labels: list[str] = []
    adj: list[list[int]] = []
    seen: set[tuple[int, int]] = set()

    def vid(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
            adj.append([])
        return ids[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = vid(parts[0]), vid(parts[1])
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at {parts[0]!r}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {raw!r}")
        seen.add(key)
        adj[u].append(v)
        if not directed:
            adj[v].append(u)

    if directed:
        return replace(Digraph._from_out_lists(adj), labels=tuple(labels))
    return Graph(
        vertex_count=len(labels),
        adjacency=tuple(tuple(sorted(lst)) for lst in adj),
        edge_count=len(seen),
        labels=tuple(labels),
    )


def write_graph(g: Graph | Digraph) -> str:
    """Serialize to the edge-list format, edges sorted by (u, v)."""
    pairs = sorted(g.arcs() if isinstance(g, Digraph) else g.edges())
    return "".join(f"{u} {v}\n" for u, v in pairs)


def degeneracy_ordering(g: Graph) -> DegeneracyOrdering:
    """Repeated minimum-degree removal; ties broken by smallest vertex id.

    Returns the removal order together with the exact degeneracy (the
    maximum degree seen at removal time).
    """
    if isinstance(g, Digraph):
        raise GraphError("degeneracy ordering requires an undirected graph")
    n = g.vertex_count
    deg = [g.degree(v) for v in range(n)]
    heap: list[tuple[int, int]] = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        degeneracy = max(degeneracy, d)
        for u in g.neighbors(v):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return DegeneracyOrdering(order=tuple(order), degeneracy=degeneracy)


def orient_acyclic(g: Graph, ordering: DegeneracyOrdering) -> Digraph:
    """Orient every edge from the earlier to the later vertex of ``ordering``.

    The result is acyclic with max out-degree at most ``ordering.degeneracy``.
    """
    if isinstance(g, Digraph):
        raise GraphError("orient_acyclic requires an undirected graph")
    n = g.vertex_count
    if len(ordering.order) != n or sorted(ordering.order) != list(range(n)):
        raise GraphError("ordering does not match the graph's vertex set")
    pos = [0] * n
    for i, v in enumerate(ordering.order):
        pos[v] = i
    arcs = []
    for u, v in g.edges():
        if pos[u] < pos[v]:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    d = Digraph.from_arcs(n, arcs)
    if not d.is_dag:
        raise GraphError("orientation produced a cycle; ordering invalid")
    return d


def split_by_ordering(d: Digraph, ordering: DegeneracyOrdering) -> tuple[Digraph, Digraph]:
    """Split a digraph's arcs by direction relative to a vertex ordering.

    Returns two DAGs over the same vertex set, both with arcs pointing from
    earlier to later in the ordering: the first holds the arcs of ``d`` that
    already ascend, the second the descending arcs, reversed.  Both have max
    out-degree at most the ordering's degeneracy of the underlying graph.
    """
    n = d.vertex_count
    if len(ordering.order) != n or sorted(ordering.order) != list(range(n)):
        raise GraphError("ordering does not match the digraph's vertex set")
    pos = [0] * n
    for i, v in enumerate(ordering.order):
        pos[v] = i
    ascending: list[list[int]] = [[] for _ in range(n)]
    descending: list[list[int]] = [[] for _ in range(n)]
    for u, nbrs in enumerate(d.out_adjacency):
        for v in nbrs:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if pos[u] < pos[v]:
                ascending[u].append(v)
            else:
                descending[v].append(u)
    return (
        Digraph._from_out_lists(ascending, is_dag=True),
        Digraph._from_out_lists(descending, is_dag=True),
    )


def cycle_core(
    n: int, pairs: list[tuple[int, int]], directed: bool
) -> list[tuple[int, int]]:
    """The pairs whose endpoints both survive peeling to the cycle core.

    Repeatedly deletes every vertex of degree < 2 or, when ``directed``,
    every vertex with no in-arc or no out-arc among the survivors.  Every
    vertex of a cycle (closed directed walk) survives, so the result is
    empty exactly when the graph is a forest (a DAG).  Undirected pairs
    are given once each; the survivors keep their input order.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)] if directed else succ
    for u, v in pairs:
        succ[u].append(v)
        pred[v].append(u)
    # A vertex dies when its surviving in-arcs or out-arcs (undirected: its
    # surviving neighbors beyond the first) drop to zero.
    if directed:
        need_in = [len(a) for a in pred]
        need_out = [len(a) for a in succ]
        alive = [need_in[v] > 0 and need_out[v] > 0 for v in range(n)]
    else:
        need_in = need_out = [len(a) - 1 for a in succ]
        alive = [need_in[v] > 0 for v in range(n)]
    stack = [v for v in range(n) if not alive[v]]
    while stack:
        v = stack.pop()
        for u in succ[v]:
            if alive[u]:
                need_in[u] -= 1
                if need_in[u] == 0:
                    alive[u] = False
                    stack.append(u)
        if directed:
            for u in pred[v]:
                if alive[u]:
                    need_out[u] -= 1
                    if need_out[u] == 0:
                        alive[u] = False
                        stack.append(u)
    return [(u, v) for u, v in pairs if alive[u] and alive[v]]
