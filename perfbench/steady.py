"""Run workloads repeatedly on successive seeds and report each metric's spread.

    python3 perfbench/steady.py --workload cli --runs 10 --seconds 20
    python3 perfbench/steady.py --workload all --runs 10 --seconds 20 --first-seed 101

For every end-to-end metric this prints the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median that the bounds in ``BENCHMARK.json`` are set against,
plus the share of failed operations.  Raw results go to
``perfbench/out/steady-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["log"] = proc.stderr
    return out


def summarize(workload: str, runs: list[dict]) -> None:
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"  {metric:8s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {(q3 - q1) / med:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    (HERE / "out").mkdir(exist_ok=True)
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(one_run(name, seed, args.seconds))
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        out = HERE / "out" / f"steady-{name}-{args.first_seed}.json"
        out.write_text(json.dumps(runs, indent=1))
        summarize(name, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
