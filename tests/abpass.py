"""In-process A/B timer of two checkouts: registry passes or library-mix decks.

Imports ``src/stirlingkit`` of two checkouts into one interpreter, under
the package names ``side_a`` and ``side_b``, and times alternated runs:
pair i runs A then B for even i and B then A for odd i, so a drift in the
host's speed falls on both sides alike.  Standard library only.

By default a run is one ``run_all`` pass on a fresh ``SeqContext``, after
a check that one pass of each side gives equal reports.  It prints each
side's median pass time and the median of the pair ratios B/A with their
quartiles.

With ``--library`` a run is one library-mix deck: the ops of
``bench/workloads.library_deck``, built by ``library_op`` from one seed
per pair, so both sides of a pair run the same calls on the same inputs
in the same order, each side with its own shared ``SeqContext`` for the
whole session.  Only the calls are timed, and every output goes through
its op's own check; a failed check stops the run.  It prints the median
deck ratio B/A with quartiles and pair wins, and the median ratio of each
op kind's time per deck.  ``bench/`` is imported, never written.

    python tests/abpass.py A_CHECKOUT [B_CHECKOUT] [--max-n N] [--pairs K]
    python tests/abpass.py A_CHECKOUT [B_CHECKOUT] --library [--pairs K] [--seed S]

``B_CHECKOUT`` defaults to this checkout.  ``--max-n`` sets
STIRLINGKIT_MAX_N for every pass (default: unset, the default caps).
The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


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


def ratio_line(ratios: list[float]) -> str:
    q1, q2, q3 = quartiles(ratios)
    return f"median {q2:.3f}, quartiles {q1:.3f}-{q3:.3f}, B faster in {sum(r < 1 for r in ratios)}"


def workloads_module():
    """``bench/workloads.py``, imported without writing bytecode under bench/."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
    return workloads


def timed_deck(workloads, sk, shared, seed: int) -> dict[str, float]:
    """Seconds per op kind for one library-mix deck drawn from ``seed``."""
    rng = random.Random(seed)
    order = workloads.library_deck()
    rng.shuffle(order)
    seconds = defaultdict(float)
    gc.collect()
    for spec in order:
        call, check = workloads.library_op(sk, rng, spec, shared)
        start = time.perf_counter()
        result = call()
        seconds[spec[0]] += time.perf_counter() - start
        _, error = check(result)
        if error is not None:
            raise SystemExit(f"{sk.__name__}: {spec}: {error}")
    return seconds


def library_pairs(a, b, pairs: int, seed: int) -> None:
    workloads = workloads_module()
    shared = {a: a.SeqContext(), b: b.SeqContext()}
    for sk in (a, b):  # one unmeasured deck each grows the shared tables
        timed_deck(workloads, sk, shared[sk], seed - 1)
    decks, kinds = [], defaultdict(list)
    for i in range(pairs):
        order = (a, b) if i % 2 == 0 else (b, a)
        pair = {sk: timed_deck(workloads, sk, shared[sk], seed + i) for sk in order}
        decks.append(sum(pair[b].values()) / sum(pair[a].values()))
        for kind, seconds in pair[a].items():
            kinds[kind].append(pair[b][kind] / seconds)
    print(f"library-mix decks of {len(workloads.library_deck())} ops, seeds {seed}-{seed + pairs - 1}, {pairs} pairs")
    print(f"deck ratio B/A: {ratio_line(decks)}")
    for kind, ratios in sorted(kinds.items()):
        print(f"  {kind:16s} {statistics.median(ratios):.3f}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the reference side")
    parser.add_argument("b", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent,
                        help="checkout B (default: this checkout)")
    parser.add_argument("--max-n", help="STIRLINGKIT_MAX_N for every run (default: unset)")
    parser.add_argument("--pairs", type=int, default=50, help="alternated pairs of runs (default 50)")
    parser.add_argument("--library", action="store_true", help="time library-mix decks instead of registry passes")
    parser.add_argument("--seed", type=int, default=1, help="first deck's seed with --library (default 1)")
    args = parser.parse_args(argv[1:])
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.max_n is None:
        os.environ.pop("STIRLINGKIT_MAX_N", None)
    else:
        os.environ["STIRLINGKIT_MAX_N"] = args.max_n
    a, b = load(args.a.resolve(), "side_a"), load(args.b.resolve(), "side_b")
    if args.library:
        library_pairs(a, b, args.pairs, args.seed)
        return 0
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
    print(f"pair ratio B/A: {ratio_line(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
