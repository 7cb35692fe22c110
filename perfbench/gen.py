"""Seeded input generators for the benchmark.

Pure Python on purpose: nothing here imports the program, so the inputs and
the reference answers computed from them do not depend on the code under
test.  Every generator takes a ``random.Random`` and returns dense integer
vertex ids, ``n`` first.
"""

from __future__ import annotations

import random


def three_degenerate_edges(rng: random.Random, n: int, window: int = 8):
    """Each vertex joins 3 earlier vertices within a recent window.

    The generator of the acceptance suite's cross-engine criterion; the
    result is 3-degenerate and, with window 8, rich in short cycles.
    """
    edges = []
    for v in range(1, n):
        cands = list(range(max(0, v - window), v))
        rng.shuffle(cands)
        edges.extend((u, v) for u in cands[:3])
    return n, edges


def orient_with_reciprocals(rng: random.Random, n: int, edges, reciprocal: float):
    """Orient each edge at random; a ``reciprocal`` share gets both arcs."""
    arcs = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
        if rng.random() < reciprocal:
            arcs.append((v, u))
    return n, sorted(arcs)


def sparse_edges(rng: random.Random, n: int, m: int):
    """m distinct random edges on n vertices (the scaling criterion's graphs)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


def random_arcs(rng: random.Random, n: int, m: int):
    """m distinct random arcs on n vertices, loops excluded."""
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return n, sorted(arcs)


def planted_cycle_arcs(rng: random.Random, n: int, k: int, extra: int):
    """A directed k-cycle on random vertices plus ``extra`` random arcs.

    The detection criterion's generator.  Returns (n, arcs, cycle).
    """
    cycle = rng.sample(range(n), k)
    arcs = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    while len(arcs) < k + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return n, sorted(arcs), cycle


def dag_arcs(rng: random.Random, n: int, m: int):
    """m distinct arcs u -> v with u < v: acyclic by construction.

    The detection criterion's cycle-free generator.
    """
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i < j:
            arcs.add((i, j))
    return n, sorted(arcs)


def tree_edges(rng: random.Random, n: int):
    """A random recursive tree: vertex v joins one earlier vertex."""
    return n, [(rng.randrange(v), v) for v in range(1, n)]


def edge_text(pairs) -> str:
    """The program's edge-list format: one "u v" line per pair."""
    return "".join(f"{u} {v}\n" for u, v in pairs)
