"""Per-layer metrics: which program names the traced run wraps, and how
the recorded spans turn into the metrics listed in ``BENCHMARK.json``.

Each name is wrapped on the module that calls it (``cyclehom.pipeline.
build_walk_weights`` is the pipeline's call of the walks layer).  A metric
ending in ``_s`` is the self time of its spans, in seconds per pass; the
others are counts or ratios per pass.  A metric whose wrapped names no
longer exist is reported as missing.
"""

from __future__ import annotations

import statistics

from spans import self_times

PIPELINE_ENTRIES = (
    "cyclehom.pipeline.hom_cycle_degenerate",
    "cyclehom.detect.hom_cycle_degenerate",
    "cyclehom.cli.hom_cycle_degenerate",
)
GENERAL_ENTRIES = ("cyclehom.general.hom_cycle_general", "cyclehom.cli.hom_cycle_general")
GADGET = ("cyclehom.detect.detect_directed_cycle", "cyclehom.cli.detect_directed_cycle")
DEGENERATE = ("cyclehom.detect.detect_cycle_degenerate", "cyclehom.cli.detect_cycle_degenerate")
LAYERED = (
    "cyclehom.general.detect_cycle_general_directed",
    "cyclehom.cli.detect_cycle_general_directed",
)
PARTITION = "cyclehom.detect._random_partition"
LAYERING = "cyclehom.general.layered_subgraph"
TRANSVERSAL = "cyclehom.detect.transversal_count"
INDUCED = "cyclehom.detect._induced_subgraph"
FROM_ARCS = "cyclehom.graphs.Digraph.from_arcs"
IMPORT_CLI = "import cyclehom.cli"
IMPORT_NUMPY = "import numpy"
CLI_MAIN = "cyclehom.cli.main"

# Spans whose time belongs to their parent: they are recorded for counting.
TRANSPARENT = frozenset({PARTITION})

SELF_TIME = {
    "graphs.parse_s": ("cyclehom.cli.parse_graph",),
    "graphs.degeneracy_s": (
        "cyclehom.pipeline.degeneracy_ordering",
        "cyclehom.detect.degeneracy_ordering",
    ),
    "graphs.orient_s": ("cyclehom.pipeline.orient_acyclic", "cyclehom.pipeline.split_by_ordering"),
    "graphs.from_arcs_s": (FROM_ARCS,),
    "walks.build_s": ("cyclehom.pipeline.build_walk_weights",),
    "walks.restrict_s": ("cyclehom.pipeline.restrict_view",),
    "comb.cherry_s": ("cyclehom.comb._cherry_adjacency",),
    "comb.low_s": ("cyclehom.comb._low_tables",),
    "comb.high_s": ("cyclehom.comb._high_tables",),
    "comb.join_s": ("cyclehom.comb._join", "cyclehom.pipeline.hom_alt_cycle_comb"),
    "comb.two_paths_s": ("cyclehom.pipeline.hom_two_paths",),
    "pipeline.self_s": PIPELINE_ENTRIES,
    "pipeline.plan_s": ("cyclehom.pipeline._engine_for",),
    "general.low_s": ("cyclehom.general._low_tables",),
    "general.high_s": ("cyclehom.general._high_tables",),
    "general.join_s": GENERAL_ENTRIES,
    "detect.gadget_s": ("cyclehom.detect.build_detection_gadget",) + GADGET,
    "detect.subgraph_s": (INDUCED, TRANSVERSAL) + DEGENERATE,
    "detect.layered_s": (LAYERING,) + LAYERED,
    "cli.import_s": (IMPORT_CLI,),
    "cli.import_numpy_s": (IMPORT_NUMPY,),
    "cli.stats_s": ("cyclehom.cli._graph_stats",),
    "cli.run_s": (CLI_MAIN,),
}


def _entries(result) -> int:
    return len(result.per_length)


def _view_entries(result) -> int:
    return len(result.ring_view)


def _cherry_entries(result) -> int:
    return len(result[0])


def _low_entries(tables) -> int:
    # level 1 is the cherry table, already counted by comb.cherry_entries
    return sum(len(t) for r, t in tables.items() if r > 1)


def _level_entries(levels) -> int:
    return sum(len(t) for level in levels.values() for t in level.values())


def _general_low_entries(tables) -> int:
    return sum(len(t) for t in tables.values())


def _answer(result):
    return bool(result)


SIZES = {
    "cyclehom.pipeline.build_walk_weights": _entries,
    "cyclehom.pipeline.restrict_view": _view_entries,
    "cyclehom.comb._cherry_adjacency": _cherry_entries,
    "cyclehom.comb._low_tables": _low_entries,
    "cyclehom.comb._high_tables": _level_entries,
    "cyclehom.general._low_tables": _general_low_entries,
    "cyclehom.general._high_tables": _level_entries,
    **{name: _answer for name in GADGET + DEGENERATE + LAYERED},
}

SIZE_SUM = {
    "walks.build_entries": ("cyclehom.pipeline.build_walk_weights",),
    "walks.restrict_entries": ("cyclehom.pipeline.restrict_view",),
    "comb.cherry_entries": ("cyclehom.comb._cherry_adjacency",),
    "comb.low_entries": ("cyclehom.comb._low_tables",),
    "comb.high_entries": ("cyclehom.comb._high_tables",),
    "general.entries": ("cyclehom.general._low_tables", "cyclehom.general._high_tables"),
}

RING_COUNTS = {
    "ring.poly_mul_calls": (
        "cyclehom.ring.TruncatedPolynomial.__mul__",
        "cyclehom.ring.TruncatedPolynomial.__rmul__",
    ),
    "ring.poly_add_calls": (
        "cyclehom.ring.TruncatedPolynomial.__add__",
        "cyclehom.ring.TruncatedPolynomial.__radd__",
    ),
}

# Counts from the public ``ops=`` parameter: the metric each call's
# counter adds to, by (module, function) of the benchmark's call.
OPS_PARAMETER = {
    ("pipeline", "hom_cycle_degenerate"): "comb.ops",
    ("general", "hom_cycle_general"): "general.ops",
    ("general", "detect_cycle_general_directed"): "general.ops",
}
OPS_METRICS = ("comb.ops", "general.ops")

DERIVED = {
    "graphs.from_arcs_calls": (FROM_ARCS,),
    "pipeline.calls": PIPELINE_ENTRIES,
    "detect.reps": (PARTITION, LAYERING),
    "detect.useful_reps_ratio": (PARTITION, LAYERING, TRANSVERSAL) + GADGET + DEGENERATE
    + LAYERED + GENERAL_ENTRIES,
    "detect.ie_terms": (INDUCED,),
    "detect.ie_useful_ratio": (INDUCED, TRANSVERSAL, "cyclehom.detect.hom_cycle_degenerate"),
    "detect.hit_rep": (PARTITION, LAYERING) + GADGET + DEGENERATE + LAYERED,
}

UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in SIZE_SUM},
    **{name: "count" for name in RING_COUNTS},
    **{name: "count" for name in OPS_METRICS},
    "graphs.from_arcs_calls": "count",
    "pipeline.calls": "count",
    "detect.reps": "count",
    "detect.useful_reps_ratio": "ratio",
    "detect.ie_terms": "count",
    "detect.ie_useful_ratio": "ratio",
    "detect.hit_rep": "count",
    "trace.overhead_ratio": "ratio",
}

# Wrapped names recorded only inside the CLI's child processes, and the
# benchmark's own import spans there; the in-process run skips them.
CLI_ONLY = {IMPORT_CLI, IMPORT_NUMPY, CLI_MAIN}


def wrapped_names() -> list[str]:
    """Every program name the traced run puts a span around."""
    names = {
        name
        for group in (SELF_TIME, SIZE_SUM, DERIVED)
        for spans in group.values()
        for name in spans
    }
    return sorted(names - CLI_ONLY)


def install(tracer) -> None:
    """Wrap every traced name and count the ring's arithmetic calls."""
    for name in wrapped_names():
        tracer.wrap(name, SIZES.get(name))
    for key, names in RING_COUNTS.items():
        for name in names:
            tracer.count(name, key)


def pass_metrics(spans: list[list], calls, ops: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and counters."""
    own = self_times(spans, TRANSPARENT)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def indices(names):
        return [i for name in names for i in by_name.get(name, ())]

    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[i] for i in indices(names))
    for metric, names in SIZE_SUM.items():
        out[metric] = sum(spans[i][4] or 0 for i in indices(names))
    for metric in RING_COUNTS:
        out[metric] = calls.get(metric, 0)
    for metric in OPS_METRICS:
        out[metric] = ops.get(metric, 0)
    out["graphs.from_arcs_calls"] = len(indices((FROM_ARCS,)))
    out["pipeline.calls"] = len(indices(PIPELINE_ENTRIES))

    detectors = set(indices(GADGET + DEGENERATE))
    layered = set(indices(LAYERED))
    rep_spans = indices((PARTITION, LAYERING))
    useful = sum(1 for i in indices((TRANSVERSAL,)) if spans[i][3] in detectors)
    useful += sum(1 for i in indices(GENERAL_ENTRIES) if spans[i][3] in layered)
    out["detect.reps"] = len(rep_spans)
    out["detect.useful_reps_ratio"] = useful / len(rep_spans) if rep_spans else 0.0

    transversals = set(indices((TRANSVERSAL,)))
    terms = indices((INDUCED,))
    counted = sum(
        1 for i in indices(("cyclehom.detect.hom_cycle_degenerate",))
        if spans[i][3] in transversals
    )
    out["detect.ie_terms"] = len(terms)
    out["detect.ie_useful_ratio"] = counted / len(terms) if terms else 0.0

    reps_in: dict[int, int] = {}
    for i in rep_spans:
        reps_in[spans[i][3]] = reps_in.get(spans[i][3], 0) + 1
    hits = [reps_in.get(i, 0) for i in detectors | layered if spans[i][4]]
    out["detect.hit_rep"] = statistics.mean(hits) if hits else 0.0
    return out


def missing_metrics(missing_names: set[str], ops_missing: set[str]) -> set[str]:
    """Metrics that depend on a wrapped name or parameter that is gone."""
    gone = set(ops_missing)
    for group in (SELF_TIME, SIZE_SUM, RING_COUNTS, DERIVED):
        for metric, names in group.items():
            if any(name in missing_names for name in names):
                gone.add(metric)
    return gone
