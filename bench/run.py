"""stirlingkit benchmark: one workload per call, every metric with its unit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/stirlingkit``; nothing
needs installing.  Each workload runs in a fresh interpreter started from
here.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it repeat each metric as "name value unit" and give the run's
provenance.  See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ENV_MAX_N = "STIRLINGKIT_MAX_N"
SETUP_REPEATS = 7
IMPORT_PROBE_REPEATS = 5
RUN_TIMEOUT_S = 170


def workload_env(workload: str) -> dict[str, str]:
    """The checkout's src first on the path, fixed hashing, and the cap
    environment variable set for verify-n30 only."""
    env = dict(os.environ)
    env.pop(ENV_MAX_N, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    if workload == "verify-n30":
        env[ENV_MAX_N] = "30"
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median wall time to start an interpreter and import stirlingkit, and
    the factor that takes it to the reference host speed.  One unmeasured
    start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", "import stirlingkit"]
    # Pipes make the wait end at end-of-file; without them a wait with a
    # timeout polls in sleeps of up to 50 ms, which quantizes the time.
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    times = []
    with hostspeed.Gauge() as gauge:
        for _ in range(SETUP_REPEATS):
            probed = gauge.spent
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
            times.append(time.perf_counter() - start - (gauge.spent - probed))
        return statistics.median(times), gauge.scale(0)


def cli_import_seconds(env: dict[str, str]) -> float:
    """Median cumulative import time of stirlingkit.cli inside
    ``import stirlingkit``, from ``-X importtime``; 0 if it is not imported."""
    line = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*stirlingkit\.cli\s*$")
    times = []
    for _ in range(IMPORT_PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stirlingkit"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        found = [int(m.group(1)) for m in map(line.match, proc.stderr.splitlines()) if m]
        times.append(found[0] / 1e6 if found else 0.0)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout.  The
    ceiling keeps git from taking the SHA of a repository above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_workload(workload: str, args) -> dict:
    env = workload_env(workload)
    started = time.perf_counter()
    extra, setup = {}, None
    if args.trace:
        extra["cli.import_s"] = {"value": cli_import_seconds(env), "unit": "s"}
    else:
        setup = setup_seconds(env)
        extra["setup_s"] = {"value": setup[0] * setup[1], "unit": "s"}
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    timeout = RUN_TIMEOUT_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["metrics"] = {**extra, **record["metrics"]}
    if setup:
        record["setup_raw_s"], record["setup_scale"] = setup
    return record


def report(workload: str, record: dict, prov: dict) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    attempted, failed = record["attempted"], record["failed"]
    print(f"# {workload}: {json.dumps(prov, sort_keys=True)}")
    if "raw_s" in record:
        print(f"# {workload}: unscaled program time {record['raw_s']:.6g} s, mean scale factor "
              f"{record['scaled_s'] / record['raw_s']:.6g}; unscaled setup median "
              f"{record['setup_raw_s']:.6g} s, scale factor {record['setup_scale']:.6g}")
    if "spans_file" in record:
        print(f"# {workload}: spans written to {record['spans_file']}")
    print(f"{workload}  attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
    for name, metric in sorted(record["metrics"].items()):
        print(f"{workload}  {name}  {metric['value']:.6g}  {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: corrupt one expected value so checks must fail")
    args = parser.parse_args()
    if not (SRC / "stirlingkit" / "__init__.py").is_file():
        print(f"error: no stirlingkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    hostspeed.pin_to_one_cpu()
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload] = report(workload, run_workload(workload, args), prov)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
