"""Tensor products, blowups, and recovery of homomorphism counts.

hom(H, .) is multiplicative over tensor products, so evaluating a known
linear combination of homomorphism counts on probe-times-target products
yields a linear system whose unknowns are the individual counts.  Suitable
probes always exist among blowups of the patterns themselves; this module
finds them by seeded random size assignments, certified invertible by one
exact elimination, and solves the system in exact rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .graphs import Digraph, GraphError
from .oracle import hom_count_brute


@dataclass(frozen=True)
class BlowupSpec:
    """Replace each base vertex by an independent set of a chosen size."""

    base: Digraph
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.base.vertex_count:
            raise GraphError("one size per base vertex required")
        if any(s < 1 for s in self.sizes):
            raise GraphError("blowup sizes must be positive")


@dataclass(frozen=True)
class RecoverySystem:
    """Probe digraphs and the invertible matrix c_j * hom(H_j, F_i)."""

    patterns: tuple[Digraph, ...]
    coefficients: tuple[Fraction, ...]
    probes: tuple[Digraph, ...]
    matrix: tuple[tuple[Fraction, ...], ...]


def tensor_product(d1: Digraph, d2: Digraph, max_vertices: int = 4096) -> Digraph:
    """Categorical product: arcs pair up coordinatewise."""
    n1, n2 = d1.vertex_count, d2.vertex_count
    if n1 * n2 > max_vertices:
        raise GraphError(f"tensor product would have {n1 * n2} vertices")
    arcs = [
        (x1 * n2 + x2, y1 * n2 + y2)
        for x1, y1 in d1.arcs()
        for x2, y2 in d2.arcs()
    ]
    return Digraph.from_arcs(n1 * n2, arcs, allow_loops=True)


def blowup(spec: BlowupSpec) -> Digraph:
    """Independent sets per vertex, complete bipartite bundles per arc."""
    offsets = []
    total = 0
    for s in spec.sizes:
        offsets.append(total)
        total += s
    arcs = []
    for u, v in spec.base.arcs():
        for a in range(spec.sizes[u]):
            for b in range(spec.sizes[v]):
                arcs.append((offsets[u] + a, offsets[v] + b))
    return Digraph.from_arcs(total, arcs, allow_loops=True)


def digraphs_isomorphic(d1: Digraph, d2: Digraph, max_vertices: int = 8) -> bool:
    """Exhaustive isomorphism test for small digraphs."""
    n = d1.vertex_count
    if n != d2.vertex_count or d1.arc_count() != d2.arc_count():
        return False
    if n > max_vertices:
        raise GraphError(f"isomorphism test limited to {max_vertices} vertices")
    deg1 = sorted((len(d1.out_adjacency[v]), d1.in_degree[v]) for v in range(n))
    deg2 = sorted((len(d2.out_adjacency[v]), d2.in_degree[v]) for v in range(n))
    if deg1 != deg2:
        return False
    arcs2 = set(d2.arcs())
    for perm in permutations(range(n)):
        if all((perm[u], perm[v]) in arcs2 for u, v in d1.arcs()):
            return True
    return False


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The exact solution of matrix * x = rhs by Gauss-Jordan elimination
    with row swaps, or None when the matrix is singular."""
    n = len(matrix)
    m = [matrix[r][:] + [rhs[r]] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def build_recovery_system(
    patterns: list[Digraph],
    coefficients: list[Fraction | int],
    seed: int = 0,
    budget: int = 200,
) -> RecoverySystem:
    """Search blowup probes until the recovery matrix is invertible.

    Patterns must be pairwise non-isomorphic and are reordered so that
    vertices+edges is nondecreasing.  Sizes are sampled from a range that
    grows as attempts fail; existence is guaranteed, the budget only caps
    the search.
    """
    if not patterns:
        raise GraphError("need at least one pattern")
    coeffs = [Fraction(c) for c in coefficients]
    if len(coeffs) != len(patterns) or any(c == 0 for c in coeffs):
        raise GraphError("one nonzero coefficient per pattern required")
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            if digraphs_isomorphic(patterns[i], patterns[j]):
                raise GraphError(f"patterns {i} and {j} are isomorphic")
    order = sorted(
        range(len(patterns)),
        key=lambda i: (patterns[i].vertex_count + patterns[i].arc_count(), i),
    )
    pats = [patterns[i] for i in order]
    cs = [coeffs[i] for i in order]

    rng = random.Random(seed)
    k = len(pats)
    for attempt in range(budget):
        top = 2 + attempt // 10
        probes = []
        for h in pats:
            sizes = tuple(rng.randint(1, top) for _ in range(h.vertex_count))
            probes.append(blowup(BlowupSpec(h, sizes)))
        matrix = [
            [cs[j] * hom_count_brute(pats[j], probes[i]) for j in range(k)]
            for i in range(k)
        ]
        # only singularity matters here, so any right-hand side will do
        if _solve(matrix, [Fraction(0)] * k) is not None:
            return RecoverySystem(
                patterns=tuple(pats),
                coefficients=tuple(cs),
                probes=tuple(probes),
                matrix=tuple(tuple(row) for row in matrix),
            )
    raise GraphError(f"no invertible probe matrix within {budget} attempts")


def decompose_linear_combination(
    sys: RecoverySystem, combo_oracle, g: Digraph
) -> list[int]:
    """Recover each hom(H_j, g) from a combined-count oracle.

    ``combo_oracle(d)`` must return sum_j c_j * hom(H_j, d) exactly.  The
    probe evaluations on tensor products with g give a linear system in the
    individual counts; any non-integral solution means the oracle and the
    system disagree.
    """
    rhs = [Fraction(combo_oracle(tensor_product(f, g))) for f in sys.probes]
    solution = _solve([list(row) for row in sys.matrix], rhs)
    if solution is None:
        raise GraphError("singular recovery matrix")
    result = []
    for value in solution:
        if value.denominator != 1:
            raise GraphError(f"non-integral recovered count {value}; oracle bug")
        result.append(int(value))
    return result
