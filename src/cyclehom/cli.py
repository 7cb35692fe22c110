"""Command-line front end: counting, detection, cost model, benchmarks.

Every subcommand reads edge-list input, prints a single JSON report on
stdout, and reserves stderr for diagnostics.  Exit codes: 0 success, 1
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .comb import hom_alt_cycle_comb
from .detect import EXHAUSTIVE_BELOW_K, detect_cycle_degenerate, detect_directed_cycle
from .general import detect_cycle_general_directed, hom_cycle_general, repetitions
from .graphs import Digraph, Graph, GraphError, degeneracy_ordering, parse_graph
from .matmul import CostParams, cost_model_ck
from .algebra import build_recovery_system, decompose_linear_combination
from .oracle import hom_count_brute, trace_power
from .ops import OpCounter
from .pipeline import hom_cycle_degenerate
from .walks import build_walk_weights

THREADS_ENV = "CYCLEHOM_THREADS"


def _read_graph(path: str, directed: bool) -> Graph | Digraph:
    try:
        if path == "-":
            # Bytes where stdin has them, so that parse_graph checks the encoding.
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                text = fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_graph(text, directed=directed)


def _graph_stats(g: Graph | Digraph) -> dict:
    if isinstance(g, Digraph):
        m, und = g.arc_count(), g.underlying_graph()
    else:
        m, und = g.edge_count, g
    return {"n": g.vertex_count, "m": m, "degeneracy": degeneracy_ordering(und).degeneracy}


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _cmd_hom_count(args) -> int:
    if args.general and args.engine != "auto":
        print("error: --engine does not apply with --general, which runs its own engine",
              file=sys.stderr)
        return 2
    g = _read_graph(args.input, args.directed)
    ops = OpCounter() if args.count_ops else None
    started = time.perf_counter()
    if args.engine == "brute":
        count = trace_power(g, args.cycle)
    elif args.general:
        count = hom_cycle_general(g, args.cycle, ops=ops)
    else:
        cp = CostParams(omega=args.omega)
        count = hom_cycle_degenerate(g, args.cycle, engine=args.engine, cp=cp, ops=ops)
    elapsed = (time.perf_counter() - started) * 1000.0
    report = {
        "count": str(count),
        "cycle": args.cycle,
        "engine": "general" if args.general else args.engine,
        "elapsed_ms": round(elapsed, 3),
        **_graph_stats(g),
    }
    if ops is not None:
        report["op_counter"] = ops.count
    _emit(report)
    return 0


def _thread_count() -> int | None:
    """Worker processes from the environment (1 when unset or empty), or
    None after reporting a value that is not a positive integer."""
    raw = os.environ.get(THREADS_ENV) or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers >= 1:
        return workers
    print(f"error: {THREADS_ENV} must be a positive integer, not {raw!r}", file=sys.stderr)
    return None


def _cmd_detect(args) -> int:
    if args.general and (args.degenerate or not args.directed):
        print("error: --general runs the layered detector, which needs --directed "
              "and excludes --degenerate", file=sys.stderr)
        return 2
    workers = _thread_count()
    if workers is None:
        return 2
    if args.general:
        detector = detect_cycle_general_directed
    elif args.directed and not args.degenerate:
        detector = detect_directed_cycle
    else:
        detector = detect_cycle_degenerate
    g = _read_graph(args.input, args.directed)
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    # Below EXHAUSTIVE_BELOW_K the degenerate detector ignores reps and
    # seed, so one call answers for every worker.
    exhaustive = detector is detect_cycle_degenerate and args.k < EXHAUSTIVE_BELOW_K
    started = time.perf_counter()
    found = _maybe_parallel_detect(detector, g, args, seed, 1 if exhaustive else workers)
    elapsed = (time.perf_counter() - started) * 1000.0
    report = {
        "found": found,
        "k": args.k,
        "seed": seed,
        "elapsed_ms": round(elapsed, 3),
        "workers": workers,
        **_graph_stats(g),
    }
    _emit(report)
    return 0


def _maybe_parallel_detect(fn, target, args, seed: int, workers: int) -> bool:
    reps = repetitions(args.k, args.reps, args.delta)
    if workers <= 1:
        return fn(target, args.k, reps=reps, seed=seed, delta=args.delta)
    import concurrent.futures

    chunk = (reps + workers - 1) // workers
    jobs = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for w in range(workers):
            share = min(chunk, reps - w * chunk)
            if share <= 0:
                break
            jobs.append(
                pool.submit(fn, target, args.k, reps=share, seed=seed + w, delta=args.delta)
            )
        found = False
        for job in concurrent.futures.as_completed(jobs):
            if job.result():
                found = True
                for other in jobs:
                    other.cancel()
                break
    return found


def _cmd_degeneracy(args) -> int:
    g = _read_graph(args.input, directed=False)
    ordering = degeneracy_ordering(g)
    _emit(
        {
            "n": g.vertex_count,
            "m": g.edge_count,
            "degeneracy": ordering.degeneracy,
            "order": list(ordering.order),
        }
    )
    return 0


def _cmd_cost_model(args) -> int:
    cp = CostParams(omega=args.omega, grid_step=args.grid_step)
    started = time.perf_counter()
    value, argmax = cost_model_ck(args.k, cp)
    elapsed = (time.perf_counter() - started) * 1000.0
    comb_exp = Fraction(2) - Fraction(1, (args.k + 1) // 2)
    _emit(
        {
            "k": args.k,
            "omega": str(cp.omega),
            "grid_step": str(cp.grid_step),
            "c_k": float(value),
            "c_k_exact": str(value),
            "argmax": [str(a) for a in argmax],
            "d_k": float(min(value, comb_exp)),
            "elapsed_ms": round(elapsed, 3),
        }
    )
    return 0


def _cmd_algebra(args) -> int:
    if args.action != "demo":
        raise GraphError(f"unknown algebra action {args.action!r}")
    arc = Digraph.from_arcs(2, [(0, 1)])
    path2 = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    cherry = Digraph.from_arcs(3, [(0, 1), (0, 2)])
    patterns = [arc, path2, cherry]
    coefficients = [1, 1, 1]
    system = build_recovery_system(patterns, coefficients, seed=args.seed)
    rng = random.Random(args.seed)
    n = 5
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
    target = Digraph.from_arcs(n, arcs)

    def oracle(d: Digraph) -> int:
        return sum(
            int(c) * hom_count_brute(h, d, max_host=256)
            for c, h in zip(system.coefficients, system.patterns)
        )

    recovered = decompose_linear_combination(system, oracle, target)
    _emit(
        {
            "patterns": [h.arcs() for h in system.patterns],
            "probe_sizes": [f.vertex_count for f in system.probes],
            "matrix": [[str(x) for x in row] for row in system.matrix],
            "target_arcs": arcs,
            "recovered_counts": recovered,
            "direct_counts": [hom_count_brute(h, target) for h in system.patterns],
        }
    )
    return 0


def _cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    rows = []
    for exp in range(args.min_exp, args.max_exp + 1):
        n = 1 << exp
        arcs = []
        for v in range(1, n):
            picks = {rng.randrange(v) for _ in range(min(2, v))}
            arcs.extend((v, u) for u in sorted(picks))
        dag = Digraph.from_arcs(n, arcs)
        w = build_walk_weights(dag, 1)
        ops = OpCounter()
        started = time.perf_counter()
        count = hom_alt_cycle_comb(w, args.half_length, ops=ops)
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "n": n,
                "arcs": dag.arc_count(),
                "count": str(count),
                "op_counter": ops.count,
                "elapsed_ms": round(elapsed, 3),
            }
        )
        print(f"n=2^{exp} ops={ops.count}", file=sys.stderr)
    _emit({"bench": "alt-cycle-comb", "half_length": args.half_length, "rows": rows})
    return 0


def _arg_type(convert, accept, expected: str):
    """An argparse type that converts the text and requires ``accept`` of
    the value; anything else is a usage error naming ``expected``."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_FRACTION = _arg_type(Fraction, lambda v: True, "a fraction such as 5/2")
_POSITIVE_FRACTION = _arg_type(Fraction, lambda v: v > 0, "a positive fraction such as 1/100")
_PROBABILITY = _arg_type(float, lambda v: 0 < v < 1, "a number strictly between 0 and 1")
_AT_LEAST_ONE = _arg_type(int, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclehom",
        description="Exact cycle-homomorphism counting and cycle detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom-count", help="count cycle homomorphisms")
    p.add_argument("--cycle", type=int, required=True, help="cycle length")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--general", action="store_true", help="no-degeneracy engine")
    p.add_argument(
        "--engine", choices=("comb", "matmul", "auto", "brute"), default="auto"
    )
    p.add_argument(
        "--omega", type=_FRACTION, default="3",
        help="exponent that prices --engine matmul's bracketing ('auto' is comb at any omega)",
    )
    p.add_argument("--count-ops", action="store_true")
    p.set_defaults(func=_cmd_hom_count)

    p = sub.add_parser("detect", help="detect a simple k-cycle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--general", action="store_true", help="layered-partition detector")
    p.add_argument("--degenerate", action="store_true", help="force the degenerate-graph detector")
    p.add_argument("--reps", type=_AT_LEAST_ONE, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=_PROBABILITY, default=0.05)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("degeneracy", help="degeneracy ordering of a graph")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_degeneracy)

    p = sub.add_parser("cost-model", help="matrix-chain cost-model exponent c_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--omega", type=_FRACTION, default="2")
    p.add_argument("--grid-step", type=_POSITIVE_FRACTION, default="1/100")
    p.set_defaults(func=_cmd_cost_model)

    p = sub.add_parser("algebra", help="homomorphism-algebra demonstrations")
    p.add_argument("action", choices=("demo",))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("bench", help="operation-count scaling on random DAGs")
    p.add_argument("--min-exp", type=int, default=8)
    p.add_argument("--max-exp", type=int, default=12)
    p.add_argument("--half-length", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_hom_count(argv: list[str] | None = None) -> int:
    """Entry point that defaults to the hom-count subcommand."""
    if argv is None:
        argv = sys.argv[1:]
    return main(["hom-count"] + list(argv))


if __name__ == "__main__":
    sys.exit(main())
