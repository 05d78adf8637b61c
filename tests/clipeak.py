"""Peak memory of large command-line calls, each in its own child process.

Runs each call below through ``stirlingkit.cli.run`` in a fresh
interpreter, with a wall-clock timeout of 60 s and an address-space
limit (``RLIMIT_AS``) of 2000 MB set on that child alone, and prints one
row per call:
the exit code (negative for the signal that ended it, so -9 is a
timeout), the wall time, the bytes written to stdout and the child's
peak resident set size, read from the rusage that ``os.wait4`` returns.
stdout is counted and dropped as it arrives, so this process stays
small: a child's peak can read no lower than the size of the process it
was forked from.  Standard library only, Linux or another POSIX system.

    python tests/clipeak.py [--src DIR]

``--src`` is the directory that holds the ``stirlingkit`` package
(default: this checkout's ``src``), so two checkouts can be compared.
The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

CALLS = (
    ("triangle", "stirling1", "--n", "600"),
    ("triangle", "stirling1", "--n", "600", "--format", "csv"),
    ("triangle", "stirling1", "--n", "600", "--format", "json"),
    ("seq", "harmonic", "--n", "20000"),
    ("seq", "harmonic", "--n", "20000", "--format", "csv"),
    ("seq", "fubini", "--n", "1500", "--format", "csv"),
    ("seq", "bell", "--n", "1500"),
    ("eval", "S(1500,3)"),
    ("eval", "D(100000)"),
)

TIMEOUT_S = 60.0  # a child still running then is killed and reads exit -9
LIMIT_BYTES = 2000 << 20  # each child's RLIMIT_AS
ENTRY = "from stirlingkit.cli import run; run()"


def measure(argv, src: str) -> tuple[int, float, int, float]:
    """(exit code, wall seconds, stdout bytes, peak RSS in MB) of one call."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))

    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, preexec_fn=limit_address_space, env=env)
    written = 0

    def drain():
        nonlocal written
        while chunk := proc.stdout.read(1 << 16):
            written += len(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    timer = threading.Timer(TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    reader.join()
    proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, elapsed, written, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv[1:])
    print(f"{'call':<48}{'exit':>5}{'wall s':>9}{'stdout bytes':>14}{'peak MB':>9}", flush=True)
    for call in CALLS:
        code, elapsed, written, peak = measure(call, args.src)
        print(f"{' '.join(call):<48}{code:>5}{elapsed:>9.2f}{written:>14}{peak:>9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
