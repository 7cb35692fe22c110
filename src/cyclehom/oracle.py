"""Naive reference counters used to check the fast engines.

Everything here is deliberately brute force and shares no code with the
engines: backtracking homomorphism counts, adjacency-matrix trace powers,
exhaustive cycle-orientation enumeration, and simple-cycle search.
"""

from __future__ import annotations

from .graphs import Digraph, Graph, GraphError


class OracleBudgetError(GraphError):
    """Input too large for a brute-force reference computation."""


def _adjacency_sets(g: Graph | Digraph) -> tuple[int, list[set[int]], bool]:
    if isinstance(g, Digraph):
        return g.vertex_count, [set(nbrs) for nbrs in g.out_adjacency], True
    return g.vertex_count, [set(nbrs) for nbrs in g.adjacency], False


def hom_count_brute(
    h: Graph | Digraph,
    g: Graph | Digraph,
    max_pattern: int = 12,
    max_host: int = 16,
) -> int:
    """Count adjacency-preserving maps from h to g by backtracking.

    Both graphs must be directed or both undirected.  Pattern vertices are
    visited in an order that keeps each new vertex attached to an already
    placed one whenever the pattern is connected, which prunes early.
    """
    hn, hadj_out, hdir = _adjacency_sets(h)
    gn, gadj_out, gdir = _adjacency_sets(g)
    if hdir != gdir:
        raise GraphError("pattern and host must agree on directedness")
    if hn > max_pattern or gn > max_host:
        raise OracleBudgetError(f"brute-force budget exceeded ({hn}, {gn})")
    if hn == 0:
        return 1
    if gn == 0:
        return 0

    hadj_in: list[set[int]] = [set() for _ in range(hn)]
    for u in range(hn):
        for v in hadj_out[u]:
            hadj_in[v].add(u)
    gadj_in: list[set[int]] = [set() for _ in range(gn)]
    for u in range(gn):
        for v in gadj_out[u]:
            gadj_in[v].add(u)

    # order pattern vertices to touch placed neighbors early
    order: list[int] = []
    placed = [False] * hn
    for start in range(hn):
        if placed[start]:
            continue
        stack = [start]
        placed[start] = True
        while stack:
            u = stack.pop()
            order.append(u)
            for v in sorted(hadj_out[u] | hadj_in[u], reverse=True):
                if not placed[v]:
                    placed[v] = True
                    stack.append(v)

    pos_of = {v: i for i, v in enumerate(order)}
    # per pattern vertex: constraints against earlier-placed vertices
    out_back = []  # images must have arc image(u) -> candidate
    in_back = []  # images must have arc candidate -> image(u)
    needs_loop = []
    for i, v in enumerate(order):
        out_back.append([pos_of[u] for u in hadj_in[v] if u != v and pos_of[u] < i])
        in_back.append([pos_of[u] for u in hadj_out[v] if u != v and pos_of[u] < i])
        needs_loop.append(v in hadj_out[v])

    image = [0] * hn
    total = 0

    def extend(i: int) -> None:
        nonlocal total
        if i == hn:
            total += 1
            return
        for cand in range(gn):
            if needs_loop[i] and cand not in gadj_out[cand]:
                continue
            ok = True
            for j in out_back[i]:
                if cand not in gadj_out[image[j]]:
                    ok = False
                    break
            if ok:
                for j in in_back[i]:
                    if image[j] not in gadj_out[cand]:
                        ok = False
                        break
            if ok:
                image[i] = cand
                extend(i + 1)

    extend(0)
    return total


def trace_power(g: Graph | Digraph, k: int, max_vertices: int = 64) -> int:
    """Exact trace of the k-th adjacency-matrix power.

    Equals the number of closed k-walks, i.e. hom(C_k, g) for the cycle of
    length k (directed cycle when g is directed).
    """
    n, adj, _ = _adjacency_sets(g)
    if n > max_vertices:
        raise OracleBudgetError(f"trace budget exceeded (n={n})")
    if k < 1:
        raise GraphError("power must be >= 1")
    if n == 0:
        return 0
    base = [[1 if j in adj[i] else 0 for j in range(n)] for i in range(n)]

    def matmul(a, b):
        bt = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]

    result = None
    sq = base
    e = k
    while e:
        if e & 1:
            result = sq if result is None else matmul(result, sq)
        e >>= 1
        if e:
            sq = matmul(sq, sq)
    assert result is not None
    return sum(result[i][i] for i in range(n))


def enumerate_cycle_orientations(length: int) -> list[tuple[Digraph, bool, int]]:
    """All 2**length orientations of the labeled cycle 0..length-1.

    Returns (digraph, is_acyclic, source_count) per orientation.  Bit i of
    the enumeration index orients edge {i, i+1} as i -> i+1 when set.
    """
    if length > 12:
        raise OracleBudgetError(f"orientation budget exceeded (length={length})")
    if length < 3:
        raise GraphError("cycle length must be >= 3")
    out = []
    for mask in range(1 << length):
        bits = [(mask >> i) & 1 for i in range(length)]
        arcs = []
        for i in range(length):
            j = (i + 1) % length
            arcs.append((i, j) if bits[i] else (j, i))
        d = Digraph.from_arcs(length, arcs)
        sources = sum(
            1 for i in range(length) if bits[i] == 1 and bits[(i - 1) % length] == 0
        )
        out.append((d, d.is_dag, sources))
    return out


def has_simple_cycle_brute(g: Graph | Digraph, k: int, max_vertices: int = 14) -> bool:
    """Exhaustive search for a simple cycle with exactly k vertices."""
    n, adj, _ = _adjacency_sets(g)
    if n > max_vertices:
        raise OracleBudgetError(f"cycle-search budget exceeded (n={n})")
    if k < 3 or n < k:
        return False

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
