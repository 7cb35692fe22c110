"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/child_setup.py <workload> <seed> [--pass]

Generates the inputs first (benchmark code, untimed), then times importing
the program, building the inputs through ``parse_graph`` and
``Digraph.from_arcs``, and the lazy work of a first call.  With ``--pass``
it then runs one pass and reports the process's peak RSS, the memory a user
running these calls in a fresh process would see, and the pass's answers
for the caller to check.  Prints one JSON line.

The peak is ``VmHWM`` from ``/proc/self/status``, not ``ru_maxrss``: on
Linux a process's ``ru_maxrss`` keeps the high-water mark of the process
that spawned it, which here is the benchmark's own runner, while ``VmHWM``
belongs to the address space this interpreter was started with.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

import workloads  # noqa: E402


def one_pass(wl, graphs) -> list:
    """[answer, error] per op; counts as decimal strings."""
    answers = []
    for op in wl.ops:
        try:
            value = workloads.call(op, graphs)
        except Exception as exc:  # reported to the caller, which counts it
            answers.append([None, f"{type(exc).__name__}: {exc}"])
            continue
        answers.append([str(value) if op.kind == "count" else value, None])
    return answers


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(random.Random(seed))
    texts = workloads.edge_texts(inputs)
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import cyclehom  # noqa: F401

    graphs = workloads.build(inputs, texts)
    workloads.warm(wl.warm_lengths)
    elapsed = time.perf_counter() - t0
    report = {"setup_s": elapsed}
    if "--pass" in sys.argv[3:]:
        report["answers"] = one_pass(wl, graphs)
        report["peak_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
