"""Self-test of the benchmark itself (not of stirlingkit).

    python3 bench/selftest.py

For each workload it checks three things:

1. The checks are not vacuous: with one expected value corrupted on the
   benchmark side (``--corrupt``; nothing under ``src/`` changes) the run
   must report failed ops, i.e. fail_frac > 0.
2. Every per-layer count of a traced run repeats exactly in a second traced
   run with the same seed.
3. The spans file a traced run writes agrees with the metrics it printed:
   call counts and self times recomputed from the raw spans match.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
SECONDS = 2  # a run still holds one whole pass and meets its op floor


def run(workload: str, trace: int, corrupt: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_agree(workload: str, metrics: dict) -> list[str]:
    """Recompute poly.mul and seq figures from the raw spans file."""
    header, name, parent, start, end = tracing.read_spans(BENCH_DIR / "out" / f"spans-{workload}-seed{SEED}.bin")
    names = header["names"]
    child = [0.0] * len(name)
    for i in range(len(name)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    problems = []
    for metric, pick in (("poly.mul", lambda n: n == "poly.Poly.__mul__"), ("seq", lambda n: n.startswith("seq."))):
        chosen = [i for i in range(len(name)) if pick(names[name[i]])]
        calls = len(chosen)
        self_s = sum(end[i] - start[i] - child[i] for i in chosen)
        if calls != metrics[f"{metric}.calls"]["value"]:
            problems.append(f"{metric}.calls: spans file has {calls}")
        reported = metrics[f"{metric}.self_s"]["value"]
        if abs(self_s - reported) > 1e-6 * max(1.0, reported):
            problems.append(f"{metric}.self_s: spans file gives {self_s}, run printed {reported}")
    return problems


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        corrupted = run(workload, 0, corrupt=True)
        frac = corrupted["failed"] / corrupted["attempted"]
        print(f"{workload}: corrupted expectation -> fail_frac {frac:.4g}")
        if frac <= 0 or corrupted["correct"]:
            problems.append(f"{workload}: a corrupted expected value went unnoticed")

        first = run(workload, 1)
        second = run(workload, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        counts["seq.memo_hit_ratio"] = first["metrics"]["seq.memo_hit_ratio"]["value"]
        differing = [k for k, v in counts.items() if second["metrics"][k]["value"] != v]
        print(f"{workload}: {len(counts)} per-layer counts, {len(differing)} differ between two traced runs")
        if differing:
            problems.append(f"{workload}: counts differ between traced runs: {differing}")
        problems += [f"{workload}: {p}" for p in spans_agree(workload, second["metrics"])]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
