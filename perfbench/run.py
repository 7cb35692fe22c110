"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload count-degenerate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (it need not be installed).  The workload's inputs come from
``--seed``; every answer is checked against a reference computed apart
from the program (see ``refcheck.py``).  With ``--trace 0`` the last line
holds the end-to-end metrics (``wall_s``, ``peak_mb``, ``setup_s``); with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Progress and per-pass times go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120
TRACE_BASELINE_SHARE = 0.4

import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, dump  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    """Environment for program child processes: sources on the path, and
    the detection worker count left at its default of one."""
    env = {k: v for k, v in os.environ.items() if k != "CYCLEHOM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def expected_answers(wl, seed: int) -> dict:
    """Reference answer per (input, size, kind), computed apart from the
    program by ``refcheck.py`` in a child process, from the same seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "refcheck.py"), wl.name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"reference child failed: {proc.stderr.strip()[-2000:]}")
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    return {(name, size, kind): value for name, size, kind, value in rows}


class Tally:
    """Operations attempted, failed (raised or wrong) and, of those, wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, label: str, got, want, error: str | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            log(f"FAILED {label}: {error}")
        elif got != want:
            self.failed += 1
            self.wrong += 1
            log(f"WRONG {label}: got {got!r}, expected {want!r}")


def describe(times: list[float], what: str = "passes") -> str:
    return (f"{len(times)} {what}, " + " ".join(f"{t:.3f}" for t in times)
            + f"; median {statistics.median(times):.4f} s")


# --------------------------------------------------------------- in-process


def setup_child(wl, seed: int, with_pass: bool = False) -> dict:
    """Set the workload up in a fresh interpreter (``child_setup.py``);
    ``with_pass`` also runs one pass there and reports its peak RSS."""
    argv = [sys.executable, str(HERE / "child_setup.py"), wl.name, str(seed)]
    proc = subprocess.run(
        argv + (["--pass"] if with_pass else []), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(wl, graphs, answers, tally: Tally, times: list, counters=None) -> None:
    """One pass over the workload's ops, timing only the calls; its time
    is appended to ``times``.  Answers are checked after the pass.
    ``counters`` (traced run only) maps a metric to an ``OpCounter`` handed
    to each call whose public signature takes ``ops=``.
    """
    results = []
    elapsed = 0.0
    for op in wl.ops:
        extra = {}
        if counters is not None:
            metric = layers.OPS_PARAMETER.get((op.module, op.func))
            if metric in counters:
                extra["ops"] = counters[metric]
        t0 = time.perf_counter()
        try:
            results.append((op, workloads.call(op, graphs, **extra), None))
        except Exception as exc:  # a failed call is counted, not fatal
            results.append((op, None, f"{type(exc).__name__}: {exc}"))
        elapsed += time.perf_counter() - t0
    times.append(elapsed)
    for op, got, error in results:
        tally.record(op.label, got, answers[(op.input, op.size, op.kind)], error)


def timed_passes(wl, graphs, answers, tally: Tally, seconds: float, hooks=None) -> list:
    """Passes for at least ``seconds``, with a collection before each one.

    ``hooks`` is a pair of callables run around each pass, within the
    ``seconds`` but outside the pass's time; the first returns extra
    keyword arguments for ``run_pass``.
    """
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        gc.collect()
        extra = hooks[0]() if hooks else {}
        run_pass(wl, graphs, answers, tally, times, **extra)
        if hooks:
            hooks[1]()
    return times


def in_process(wl, seed: int, seconds: float, trace: bool, inputs, answers) -> dict:
    """Time the workload's calls in this process.

    Untraced, a fresh interpreter first sets the workload up and runs one
    pass, for the peak RSS and one set-up time; its answers are checked
    like any other.  One more set-up child follows each timed pass, so the
    set-up times are taken over the same stretch of host speed as the
    passes, not in a burst before them.
    """
    tally = Tally()
    if not trace:
        first = setup_child(wl, seed, with_pass=True)
        for op, (value, error) in zip(wl.ops, first["answers"]):
            if op.kind == "count" and value is not None:
                value = int(value)
            tally.record(op.label, value, answers[(op.input, op.size, op.kind)], error)
        setup = [first["setup_s"]]
    texts = workloads.edge_texts(inputs)
    sys.path.insert(0, str(SRC))
    graphs = workloads.build(inputs, texts)
    workloads.warm(wl.warm_lengths)
    if trace:
        return traced_in_process(wl, graphs, answers, tally, seconds)
    times = timed_passes(
        wl, graphs, answers, tally, seconds,
        (lambda: {}, lambda: setup.append(setup_child(wl, seed)["setup_s"])),
    )
    log(f"{wl.name}: {describe(times)}")
    log(f"{wl.name}: {describe(setup, 'set-ups')}")
    return result(tally, {
        "wall_s": (statistics.median(times), "s"),
        "peak_mb": (first["peak_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    })


def traced_in_process(wl, graphs, answers, tally: Tally, seconds: float) -> dict:
    from cyclehom.ops import OpCounter

    baseline = timed_passes(wl, graphs, answers, tally, seconds * TRACE_BASELINE_SHARE)
    ops_missing = set()
    for (module, func), metric in layers.OPS_PARAMETER.items():
        fn = getattr(sys.modules.get(f"cyclehom.{module}"), func, None)
        if fn is None or "ops" not in inspect.signature(fn).parameters:
            ops_missing.add(metric)
    tracer = Tracer()
    layers.install(tracer)
    per_pass, all_spans, counters = [], [], {}

    def start():
        counters.clear()
        counters.update({m: OpCounter() for m in layers.OPS_METRICS if m not in ops_missing})
        tracer.active = True
        return {"counters": counters}

    def stop():
        tracer.active = False
        spans, calls = tracer.take()
        all_spans.append(spans)
        counts = {m: c.count for m, c in counters.items()}
        per_pass.append(layers.pass_metrics(spans, calls, counts))

    try:
        traced = timed_passes(
            wl, graphs, answers, tally, seconds * (1 - TRACE_BASELINE_SHARE), (start, stop)
        )
    finally:
        tracer.uninstall()
    missing = layers.missing_metrics(tracer.missing, ops_missing)
    return traced_result(wl.name, tally, per_pass, all_spans, missing, traced, baseline)


# ---------------------------------------------------------------------- cli


class Spawner:
    """The ``spawn.py`` process that starts, times and reaps the ``cli``
    workload's children one at a time (see there why it is a process of
    its own)."""

    def __init__(self, rundir: Path) -> None:
        self.out, self.err = rundir / "stdout.txt", rundir / "stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str]) -> tuple[str, int, float, float]:
        """Run one child; (stdout, exit code, wall seconds, max RSS in MB)."""
        req = {"argv": argv, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"spawn.py ended early (exit {self.proc.wait()})")
        got = json.loads(line)
        return self.out.read_text(), got["code"], got["elapsed"], got["maxrss_mb"]

    def stderr_tail(self) -> str:
        return self.err.read_text()[-2000:]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def cli_workload(wl, seed: int, seconds: float, trace: bool, inputs, answers) -> dict:
    rundir = OUT / f"{wl.name}-{seed}"
    rundir.mkdir(parents=True, exist_ok=True)
    files = {}
    for inp in inputs:
        files[inp.name] = rundir / f"{inp.name}.txt"
        files[inp.name].write_text(gen.edge_text(inp.pairs))
    spawner = Spawner(rundir)
    try:
        return cli_passes(wl, seconds, trace, files, answers, spawner, rundir)
    finally:
        spawner.close()


def cli_passes(wl, seconds: float, trace: bool, files, answers, spawner, rundir) -> dict:
    tally = Tally()

    def one_pass(times: list, traced: bool):
        """Run every call once; (max RSS, spans, call counts, missing names)."""
        elapsed, rss, spans, calls, missing = 0.0, 0.0, [], {}, set()
        for i, call in enumerate(wl.cli_calls):
            args = [*call.argv, "--input", str(files[call.input])]
            span_file = rundir / f"spans-{i}.json"
            if traced:
                argv = [sys.executable, str(HERE / "child_cli.py"), str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "cyclehom.cli", *args]
            out, code, took, maxrss = spawner.run(argv)
            elapsed += took
            rss = max(rss, maxrss)
            label = "cyclehom " + " ".join(call.argv)
            want = answers[(call.input, call.size, call.kind)]
            if code != 0:
                tally.record(label, None, want, f"exit {code}: {spawner.stderr_tail()}")
                continue
            try:
                report = json.loads(out.strip().splitlines()[-1])
                got = int(report["count"]) if call.kind == "count" else report["found"]
            except (ValueError, KeyError, IndexError) as exc:
                tally.record(label, None, want, f"bad report: {exc}")
                continue
            tally.record(label, got, want)
            if traced:
                child = json.loads(span_file.read_text())
                offset = len(spans)
                for span in child["spans"]:
                    if span[3] >= 0:
                        span[3] += offset
                    spans.append(span)
                for key, value in child["calls"].items():
                    calls[key] = calls.get(key, 0) + value
                missing.update(child["missing"])
        times.append(elapsed)
        return rss, spans, calls, missing

    def import_time() -> float:
        """One set-up time: a fresh process that imports the CLI and exits."""
        _, code, took, _ = spawner.run([sys.executable, "-c", "import cyclehom.cli"])
        if code != 0:
            raise BenchError(f"importing cyclehom.cli failed: {spawner.stderr_tail()}")
        return took

    def passes(seconds: float, traced: bool = False, setup: list | None = None):
        """Passes for at least ``seconds``; untraced, a set-up time is taken
        after each pass, as in ``in_process``."""
        times, rows = [], []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            rows.append(one_pass(times, traced))
            if setup is not None:
                setup.append(import_time())
        return times, rows

    if trace:
        baseline, _ = passes(seconds * TRACE_BASELINE_SHARE)
        traced, rows = passes(seconds * (1 - TRACE_BASELINE_SHARE), traced=True)
        per_pass = [layers.pass_metrics(spans, calls, {}) for _, spans, calls, _ in rows]
        missing = layers.missing_metrics(set().union(*(r[3] for r in rows)), set())
        all_spans = [spans for _, spans, _, _ in rows]
        return traced_result(wl.name, tally, per_pass, all_spans, missing, traced, baseline)

    setup = [import_time()]
    times, rows = passes(seconds, setup=setup)
    log(f"{wl.name}: {describe(times)}")
    log(f"{wl.name}: {describe(setup, 'set-ups')}")
    return result(tally, {
        "wall_s": (statistics.median(times), "s"),
        "peak_mb": (statistics.median(rss for rss, *_ in rows), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    })


# ------------------------------------------------------------------ results


def result(tally: Tally, metrics: dict) -> dict:
    """The run's result line.  ``correct`` is false when any call failed:
    a call that raised, exited non-zero or gave no answer is not a correct
    one, however fast it was."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def traced_result(name, tally, per_pass, all_spans, missing, traced, baseline) -> dict:
    """Per-layer medians over the traced passes, plus the tracing overhead:
    the traced median pass time over the untraced one."""
    OUT.mkdir(parents=True, exist_ok=True)
    dump(str(OUT / f"spans-{name}.json"), all_spans)
    metrics = {}
    for metric, unit in layers.UNITS.items():
        if metric == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(baseline)
        elif metric in missing:
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
            continue
        else:
            value = statistics.median(p[metric] for p in per_pass)
        metrics[metric] = {"value": value, "unit": unit}
    log(f"{name}: untraced {describe(baseline)}")
    log(f"{name}: traced {describe(traced)}")
    log(f"{name}: missing metrics: {', '.join(sorted(missing)) or 'none'}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclehom" / "__init__.py").is_file():
        log(f"error: no program sources at {SRC}; run from the root of a checkout")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(random.Random(args.seed))
    try:
        answers = expected_answers(wl, args.seed)
        run = cli_workload if wl.cli_calls else in_process
        out = run(wl, args.seed, args.seconds, bool(args.trace), inputs, answers)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
