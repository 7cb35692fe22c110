"""Matrix-chain engine for alternating cycle orientations.

Homomorphisms of the alternating 2k-cycle factor through "cherries": common
in-neighbor aggregates over sink pairs.  Vertices are bucketed into
power-of-two in-degree classes; for every k-tuple of classes the cherry
matrix restricted to consecutive classes is chained around the cycle and the
trace of the product is accumulated.  A small exact dynamic program decides,
per class tuple, how to bracket the chain: extend a product left or right by
one factor, or split it into two halves, pricing a split as a classical
(omega = 3) dense multiply.  Every step is one sparse row product.  The same
recurrence, maximized over fractional degree-class exponents at a chosen
omega, yields the engine's cost-model exponent c_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .comb import _cherry_adjacency
from .graphs import GraphError
from .ops import OpCounter
from .walks import WalkPair, WeightedDigraph, as_pair, union_in_degrees

if TYPE_CHECKING:
    import numpy as np  # imported on use: only the cost model needs it


@dataclass(frozen=True)
class CostParams:
    """Cost-model parameters: the matrix-multiplication exponent, which
    prices ``cost_model_ck`` only (execution is always classical), and the
    maximization grid."""

    omega: Fraction = Fraction(3)
    grid_step: Fraction = Fraction(1, 100)

    def mm_exponent(self, a: Fraction, b: Fraction, c: Fraction) -> Fraction:
        """Model exponent for multiplying n**a x n**b by n**b x n**c."""
        return a + b + c - (3 - self.omega) * min(a, b, c)


@dataclass(frozen=True)
class EvaluationPlan:
    """Chain-evaluation choices and predicted exponents for one class tuple."""

    k: int
    d: tuple[Fraction, ...]
    exponents: dict[tuple[int, int], Fraction]
    choices: dict[tuple[int, int], tuple]
    closing_pair: tuple[int, int]
    objective: Fraction


@dataclass(frozen=True)
class CherryTable:
    """Sparse (x, y) -> weight table of common-in-neighbor products.

    A cross-check reference: no engine reads it; the engines consume the
    cherry relation's partner lists from ``comb._cherry_adjacency``.
    """

    entries: dict[tuple[int, int], int]


def build_cherry_table(
    w: WeightedDigraph | WalkPair, ops: OpCounter | None = None
) -> CherryTable:
    """Aggregate w(z, x) * w(z, y) over every common in-neighbor z.

    One pass over vertices and out-neighbor pairs; with bounded out-degrees
    the table has O(n) nonzero entries.  A cross-check reference built by
    ``comb._cherry_adjacency``, the one cherry builder both engines share.
    """
    pair = as_pair(w)
    return CherryTable(entries=_cherry_adjacency(pair.along, pair.against, ops)[0])


def plan_matrix_chain(
    d: tuple[Fraction, ...], k: int, cp: CostParams
) -> EvaluationPlan:
    """Exact chain-evaluation dynamic program over cyclic intervals.

    For every ordered pair (i, j) the predicted exponent is the least of:
    extending the (i, j-1) chain right, extending the (i+1, j) chain left,
    or splitting at an interior r, priced as a dense multiply at the cost
    model's exponent.  Single-step chains cost exponent 1.  The objective is
    the best closing pair, taking the worse of its two complementary chains.
    """
    if k < 2:
        raise GraphError("chain planning needs k >= 2")
    if len(d) != k:
        raise GraphError(f"expected {k} exponents, got {len(d)}")
    d = tuple(Fraction(x) for x in d)
    for x in d:
        if not 0 <= x <= 1:
            raise GraphError("class exponents must lie in [0, 1]")
    one = Fraction(1)
    exponents: dict[tuple[int, int], Fraction] = {}
    choices: dict[tuple[int, int], tuple] = {}
    for span in range(1, k):
        for i in range(k):
            j = (i + span) % k
            if span == 1:
                exponents[(i, j)] = one
                choices[(i, j)] = ("base",)
                continue
            jm = (j - 1) % k
            ip = (i + 1) % k
            best = exponents[(i, jm)] + d[jm]
            pick: tuple = ("right",)
            alt = exponents[(ip, j)] + d[ip]
            if alt < best:
                best, pick = alt, ("left",)
            for t in range(1, span):
                r = (i + t) % k
                mm = cp.mm_exponent(one - d[i], one - d[r], one - d[j])
                cand = max(exponents[(i, r)], exponents[(r, j)], mm)
                if cand < best:
                    best, pick = cand, ("split", r)
            exponents[(i, j)] = best
            choices[(i, j)] = pick
    objective = None
    closing = (0, 1)
    for i in range(k):
        for j in range(i + 1, k):
            cand = max(exponents[(i, j)], exponents[(j, i)])
            if objective is None or cand < objective:
                objective = cand
                closing = (i, j)
    assert objective is not None
    return EvaluationPlan(
        k=k, d=d, exponents=exponents, choices=choices,
        closing_pair=closing, objective=objective,
    )


# Execution is classical, so the engine brackets its chains at omega = 3.
_CLASSICAL = CostParams()
_PLAN_CACHE: dict[tuple, EvaluationPlan] = {}


def _cached_plan(d: tuple[Fraction, ...], k: int) -> EvaluationPlan:
    key = (k, d)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = plan_matrix_chain(d, k, _CLASSICAL)
        _PLAN_CACHE[key] = plan
    return plan


def _vector_objective(coords: list[np.ndarray], k: int, omega: float) -> np.ndarray:
    """Vectorized chain objective over a batch of exponent tuples."""
    import numpy as np

    one_minus = [1.0 - c for c in coords]
    exps: dict[tuple[int, int], np.ndarray] = {}
    ones = np.ones_like(coords[0])
    for span in range(1, k):
        for i in range(k):
            j = (i + span) % k
            if span == 1:
                exps[(i, j)] = ones
                continue
            jm = (j - 1) % k
            ip = (i + 1) % k
            best = exps[(i, jm)] + coords[jm]
            np.minimum(best, exps[(ip, j)] + coords[ip], out=best)
            for t in range(1, span):
                r = (i + t) % k
                mm = one_minus[i] + one_minus[r] + one_minus[j] - (3.0 - omega) * (
                    np.minimum(np.minimum(one_minus[i], one_minus[r]), one_minus[j])
                )
                cand = np.maximum(np.maximum(exps[(i, r)], exps[(r, j)]), mm)
                np.minimum(best, cand, out=best)
            exps[(i, j)] = best
    obj = None
    for i in range(k):
        for j in range(i + 1, k):
            cand = np.maximum(exps[(i, j)], exps[(j, i)])
            obj = cand if obj is None else np.minimum(obj, cand)
    assert obj is not None
    return obj


_GRID_BUDGET = 60_000_000


def cost_model_ck(
    k: int,
    cp: CostParams,
    budget: int = _GRID_BUDGET,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize the chain objective over the exponent grid {0, step, ..., 1}.

    Returns the maximum (re-evaluated exactly at the best grid point) and
    the maximizing tuple.  The scan fixes the first coordinate as a minimum
    of the tuple, which loses nothing by rotation invariance, and raises if
    the pruned grid still exceeds the evaluation budget.
    """
    import numpy as np

    if k < 2:
        raise GraphError("cost model needs k >= 2")
    step = Fraction(cp.grid_step)
    if step <= 0:
        raise GraphError("grid step must be positive")
    values = [step * i for i in range(int(1 / step) + 1)]
    if values[-1] != 1:
        values.append(Fraction(1))
    npts = len(values)
    total = sum((npts - i) ** (k - 1) for i in range(npts))
    if total > budget:
        raise GraphError(
            f"cost-model grid has {total} points, over the budget of {budget}"
        )
    vals = np.array([float(v) for v in values])
    best_val = -np.inf
    best_tuple: tuple[Fraction, ...] | None = None
    for i0 in range(npts):
        rest = vals[i0:]
        if k == 2:
            coords = [np.full(rest.shape, vals[i0]), rest]
        else:
            grids = np.meshgrid(*([rest] * (k - 1)), indexing="ij")
            coords = [np.full(grids[0].size, vals[i0])] + [g.ravel() for g in grids]
        obj = _vector_objective(coords, k, float(cp.omega))
        idx = int(np.argmax(obj))
        if obj.flat[idx] > best_val:
            best_val = float(obj.flat[idx])
            span = npts - i0
            offs = []
            rem = idx
            for _ in range(k - 1):
                offs.append(rem % span)
                rem //= span
            offs.reverse()
            best_tuple = (values[i0],) + tuple(values[i0 + o] for o in offs)
    assert best_tuple is not None
    exact = plan_matrix_chain(best_tuple, k, cp).objective
    return exact, best_tuple


def in_degree_classes(w: WeightedDigraph | WalkPair) -> dict[int, list[int]]:
    """Bucket vertices by in-degree: class i holds 2**i <= in-degree < 2**(i+1)."""
    pair = as_pair(w)
    indeg = union_in_degrees(pair)
    classes: dict[int, list[int]] = {}
    for v, dv in enumerate(indeg):
        if dv >= 1:
            classes.setdefault(dv.bit_length() - 1, []).append(v)
    return classes


def hom_alt_cycle_matmul(
    w: WeightedDigraph | WalkPair,
    half_length: int,
    ops: OpCounter | None = None,
    planner=None,
) -> int:
    """Total weight of homomorphisms from the alternating 2k-cycle.

    Classifies sink images by in-degree class, and for each class tuple
    evaluates the cyclic cherry-matrix chain in the planned bracketing,
    closing with a sparse trace of the two complementary segments.  Every
    non-base step is one sparse row product at its split point: j - 1 for
    "right", i + 1 for "left", r for ("split", r).  Plans price a split at
    omega = 3.  ``planner(d, k, cp)`` overrides the plan per class tuple,
    called like ``plan_matrix_chain`` with the classical ``CostParams()``
    (any valid plan gives the same count).
    """
    k = half_length
    if k < 2:
        raise GraphError("alternating cycle needs half-length >= 2")
    pair = as_pair(w)
    n = pair.vertex_count
    if n <= 1:
        return 0
    partners = _cherry_adjacency(pair.along, pair.against, ops)[1]
    classes = in_degree_classes(pair)
    cls_of = {v: c for c, verts in classes.items() for v in verts}
    log2n = max(1, n.bit_length() - 1)

    # cherry rows {x: {y: weight}} split by endpoint classes: the base segments
    base: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for x, items in enumerate(partners):
        for y, weight in items:
            base.setdefault((cls_of[x], cls_of[y]), {}).setdefault(x, {})[y] = weight
    transitions: dict[int, list[int]] = {}
    for cx, cy in sorted(base):
        transitions.setdefault(cx, []).append(cy)

    def execute(f: tuple[int, ...], plan: EvaluationPlan) -> int:
        memo: dict[tuple[int, int], dict[int, dict[int, int]]] = {}

        def chain(i: int, j: int) -> dict[int, dict[int, int]]:
            got = memo.get((i, j))
            if got is None:
                pick = plan.choices[(i, j)]
                if pick[0] == "base":
                    got = base.get((f[i], f[j]), {})
                else:
                    r = {"right": (j - 1) % k, "left": (i + 1) % k}.get(pick[0], pick[-1])
                    got = _product(chain(i, r), chain(r, j), ops)
                memo[(i, j)] = got
            return got

        i, j = plan.closing_pair
        first = chain(i, j)
        if not first:
            return 0
        second = chain(j, i)
        total = matches = 0
        for x, row in first.items():
            for y, wt in row.items():
                other = second.get(y)
                if other is not None and x in other:
                    total += wt * other[x]
                    matches += 1
        if ops:
            ops.add(matches)
        return total

    total = 0

    def tuples(prefix: list[int]) -> None:
        nonlocal total
        if len(prefix) == k:
            if prefix[0] not in transitions.get(prefix[-1], ()):
                return
            f = tuple(prefix)
            d = tuple(Fraction(c, log2n) for c in f)
            if planner is None:
                plan = _cached_plan(d, k)
            else:
                plan = planner(d, k, _CLASSICAL)
            total += execute(f, plan)
            return
        options = transitions.get(prefix[-1], []) if prefix else sorted(classes)
        for c in options:
            prefix.append(c)
            tuples(prefix)
            prefix.pop()

    tuples([])
    return total


def _product(
    left: dict[int, dict[int, int]],
    right: dict[int, dict[int, int]],
    ops: OpCounter | None,
) -> dict[int, dict[int, int]]:
    """Sparse row product of two chain segments, one multiply per pair of
    nonzero entries that meet at a middle vertex."""
    out: dict[int, dict[int, int]] = {}
    products = 0
    for x, row in left.items():
        acc: dict[int, int] = {}
        get = acc.get
        for y, a in row.items():
            mid = right.get(y)
            if mid:
                products += len(mid)
                for z, b in mid.items():
                    acc[z] = get(z, 0) + a * b
        if acc:
            out[x] = acc
    if ops:
        ops.add(products)
    return out
