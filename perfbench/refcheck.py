"""Reference answers computed apart from the program.

    python3 perfbench/refcheck.py <workload> <seed>

Counts come from trace(A^l) with ``scipy.sparse`` integer products;
detection answers come from how each input was built, confirmed with
``networkx.simple_cycles``.  Nothing here imports ``cyclehom``.  Run as a
command, it prints one JSON list of ``[input, size, kind, answer]`` for
every answer the workload checks; ``run.py`` runs it in a child process,
so that the process that starts the ``cli`` workload's children never
holds numpy, scipy or networkx.
"""

from __future__ import annotations

import json
import random
import sys

import networkx as nx
import numpy as np
from scipy import sparse

INT64_HEADROOM = 1 << 62


class RefCheckError(Exception):
    """The reference cannot be computed exactly, or contradicts the input."""


def _adjacency(n: int, pairs, directed: bool) -> sparse.csr_matrix:
    rows = [u for u, _ in pairs]
    cols = [v for _, v in pairs]
    if not directed:
        rows, cols = rows + cols, cols + rows
    data = np.ones(len(rows), dtype=np.int64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=np.int64)


def closed_walks(n: int, pairs, directed: bool, length: int) -> int:
    """trace(A^length): hom(C_length, G), the directed cycle for digraphs.

    Computed as the sum of the entrywise product of A^a and (A^b)^T with
    a + b = length, in int64.  Every entry of a power of A is at most
    dmax^power, so n * dmax^length < 2^62 rules out overflow; larger inputs
    are refused rather than miscounted.
    """
    if length < 1:
        raise RefCheckError("walk length must be >= 1")
    a = _adjacency(n, pairs, directed)
    dmax = max(int(a.sum(axis=0).max()), int(a.sum(axis=1).max())) if n else 0
    if n * dmax**length >= INT64_HEADROOM:
        raise RefCheckError(f"n * dmax^l = {n * dmax**length} may overflow int64")
    half = length // 2
    left = _power(a, half)
    right = _power(a, length - half)
    return int(left.multiply(right.T.tocsr()).sum())


def _power(a: sparse.csr_matrix, e: int) -> sparse.csr_matrix:
    result = sparse.identity(a.shape[0], dtype=np.int64, format="csr")
    for _ in range(e):
        result = result @ a
    return result


def has_k_cycle(n: int, pairs, directed: bool, k: int) -> bool:
    """Whether some simple cycle has exactly k vertices, by networkx."""
    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    return any(len(c) == k for c in nx.simple_cycles(g, length_bound=k))


def expected_detection(n: int, pairs, directed: bool, k: int, built_with_cycle: bool) -> bool:
    """The answer a detector must give, from the input's construction.

    ``built_with_cycle`` is True for planted inputs and False for DAGs and
    trees; networkx must agree, or the input itself is wrong.
    """
    found = has_k_cycle(n, pairs, directed, k)
    if found != built_with_cycle:
        raise RefCheckError(
            f"input built {'with' if built_with_cycle else 'without'} a {k}-cycle, "
            f"networkx finds {'one' if found else 'none'}"
        )
    return built_with_cycle


def workload_answers(workload: str, seed: int) -> list:
    """``[input, size, kind, answer]`` for every answer the workload checks."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    by_name = {inp.name: inp for inp in wl.make_inputs(random.Random(seed))}
    wanted = {(c.input, c.size, c.kind) for c in wl.ops + wl.cli_calls}
    answers = []
    for name, size, kind in sorted(wanted):
        inp = by_name[name]
        if kind == "count":
            value = closed_walks(inp.n, inp.pairs, inp.directed, size)
        else:
            value = expected_detection(inp.n, inp.pairs, inp.directed, size, inp.has_cycle)
        answers.append([name, size, kind, value])
    return answers


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    try:
        answers = workload_answers(workload, seed)
    except RefCheckError as exc:
        print(f"error: no reference for {workload} seed {seed}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
