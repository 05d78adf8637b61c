"""In-process A/B timer for registry passes of two checkouts.

Imports ``src/stirlingkit`` of two checkouts into one interpreter, under
the package names ``side_a`` and ``side_b``, checks that one ``run_all``
pass of each gives equal reports, then times alternated passes, each on a
fresh ``SeqContext``: pair i runs A then B for even i and B then A for odd
i, so a drift in the host's speed falls on both sides alike.  It prints
each side's median pass time and the median of the pair ratios B/A with
their quartiles.  Standard library only.

    python tests/abpass.py A_CHECKOUT [B_CHECKOUT] [--max-n N] [--pairs K]

``B_CHECKOUT`` defaults to this checkout.  ``--max-n`` sets
STIRLINGKIT_MAX_N for every pass (default: unset, the default caps).
The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path


def load(checkout: Path, name: str):
    """The package ``src/stirlingkit`` of ``checkout``, imported as ``name``."""
    root = checkout / "src" / "stirlingkit"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(sk) -> float:
    gc.collect()
    ctx = sk.SeqContext()
    start = time.perf_counter()
    sk.run_all(ctx=ctx)
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the reference side")
    parser.add_argument("b", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent,
                        help="checkout B (default: this checkout)")
    parser.add_argument("--max-n", help="STIRLINGKIT_MAX_N for every pass (default: unset)")
    parser.add_argument("--pairs", type=int, default=50, help="alternated pairs of passes (default 50)")
    args = parser.parse_args(argv[1:])
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.max_n is None:
        os.environ.pop("STIRLINGKIT_MAX_N", None)
    else:
        os.environ["STIRLINGKIT_MAX_N"] = args.max_n
    a, b = load(args.a.resolve(), "side_a"), load(args.b.resolve(), "side_b")
    if a.run_all(ctx=a.SeqContext()) != b.run_all(ctx=b.SeqContext()):
        print("the two checkouts' reports differ", file=sys.stderr)
        return 1
    times = {"A": [], "B": []}
    ratios = []
    for i in range(args.pairs):
        order = (("A", a), ("B", b)) if i % 2 == 0 else (("B", b), ("A", a))
        pair = {label: timed_pass(sk) for label, sk in order}
        for label, seconds in pair.items():
            times[label].append(seconds)
        ratios.append(pair["B"] / pair["A"])
    cap = args.max_n or "default caps"
    print(f"STIRLINGKIT_MAX_N={cap}, {args.pairs} pairs")
    for label, path in (("A", args.a), ("B", args.b)):
        print(f"{label} {statistics.median(times[label]):.5f} s median  {path}")
    q1, q2, q3 = quartiles(ratios)
    print(f"pair ratio B/A: median {q2:.3f}, quartiles {q1:.3f}-{q3:.3f}, B faster in {sum(r < 1 for r in ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
