"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this script in a fresh interpreter for every workload, with
the environment already set (PYTHONPATH pointing at the checkout's ``src``,
STIRLINGKIT_MAX_N set or removed).  Each workload is a closed loop with one
client: the next call starts when the previous one has returned and been
checked.  The seed fixes every generated input.

Timing covers only the call into the program.  Inputs are generated and
outputs checked against ``oracles`` outside the timed region.  Untraced runs
keep the ``hostspeed`` gauge sampling throughout and scale every pass's op
times to the reference host speed.

Untraced mode (``--trace 0``) loops over whole passes until the next pass
would end past ``--seconds``, with a floor on the number of ops.  Traced
mode runs a fixed amount of work twice, first plain and then traced, so its
counts repeat exactly and its overhead ratio compares equal work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hostspeed
import oracles
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPANS_DIR = BENCH_DIR / "out"

LIBRARY_MIN_OPS = 1000  # p99 needs ten samples above it
CLI_MIN_CALLS = 100  # p90 needs ten samples above it
LIBRARY_TRACED_DECKS = 4


class Tally:
    """Outcome of every op: latency, checked instances and failures.

    ``latencies`` holds each op's program time with the gauge's probe time
    taken out, ``windows`` the gauge marks around it; ``close_pass`` adds the
    pass's ops, scaled to the reference speed, to ``scaled`` and their sum
    to ``pass_s``.
    """

    def __init__(self, gauge: hostspeed.Gauge | None) -> None:
        self.gauge = gauge
        self.latencies: list[float] = []
        self.windows: list[tuple[int, int]] = []
        self.scaled: list[float] = []
        self.pass_s: list[float] = []
        self.failed = 0
        self.instances = 0
        self.messages: list[str] = []

    def record(self, seconds: float, instances: int, error: str | None) -> None:
        self.latencies.append(seconds)
        if error is None:
            self.instances += instances
        else:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(error)

    def timed(self, call, check) -> None:
        """Time ``call()``; ``check(result)`` returns (instances, error)."""
        gauge = self.gauge
        probed, mark = (gauge.spent, gauge.mark()) if gauge else (0.0, 0)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, and the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        if gauge:
            elapsed -= gauge.spent - probed
            self.windows.append((mark, gauge.mark()))
        instances = 0
        if error is None:
            try:
                instances, error = check(result)
            except Exception as exc:  # output too malformed to compare is wrong output
                error = f"malformed output: {type(exc).__name__}: {exc}"
        self.record(elapsed, instances, error)

    def close_pass(self, first_op: int, mark: int) -> None:
        whole = self.gauge.scale(mark) or self.gauge.scale(0)
        ops = [t * (self.gauge.scale(*window) or whole)
               for t, window in zip(self.latencies[first_op:], self.windows[first_op:])]
        self.scaled += ops
        self.pass_s.append(sum(ops))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def loop_passes(seconds: float, min_ops: int, tally: Tally, one_pass) -> None:
    """Run whole passes until another would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        first_op, mark = len(tally.latencies), tally.gauge.mark()
        t0 = time.perf_counter()
        one_pass()
        last = time.perf_counter() - t0
        tally.close_pass(first_op, mark)
        if len(tally.latencies) >= min_ops and time.perf_counter() - start + last > seconds:
            return


def end_to_end(tally: Tally, peak_rss_kb: int) -> dict[str, tuple[float, str]]:
    """Times are at the reference host speed (see hostspeed)."""
    busy = sum(tally.scaled)
    return {
        "verify_s": (percentile(tally.pass_s, 0.5), "s"),
        "instances_per_s": (tally.instances / busy, "1/s"),
        "ops_per_s": (len(tally.scaled) / busy, "1/s"),
        "op_p50_ms": (1e3 * percentile(tally.scaled, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(tally.scaled, 0.9), "ms"),
        "op_p99_ms": (1e3 * percentile(tally.scaled, 0.99), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


# -- verify-default and verify-n30 -----------------------------------------


def verify_pass(sk, tally: Tally, counts: dict[str, int]) -> None:
    """One run_all() pass on a fresh context, checked against the pins."""

    def check(reports):
        got = {r.id: r.checked for r in reports}
        failing = [r.id for r in reports if not r.passed]
        if failing:
            return 0, f"identities FAIL: {failing}"
        if [r.id for r in reports] != list(counts) or got != counts:
            return 0, f"registry reports differ from the pinned ids/counts: {got}"
        return sum(got.values()), None

    tally.timed(lambda: sk.run_all(ctx=sk.SeqContext()), check)


def run_verify(sk, args, gauge, counts_key: str):
    counts = oracles.REGISTRY_COUNTS[counts_key]
    tally = Tally(gauge)
    if not args.trace:
        loop_passes(args.seconds, 1, tally, lambda: verify_pass(sk, tally, counts))
        return tally, None
    verify_pass(sk, tally, counts)
    plain_s = tally.latencies[-1]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, sk)
    try:
        verify_pass(sk, tally, counts)
    finally:
        uninstall()
    return tally, (tracer, tally.latencies[-1] / plain_s)


# -- library-mix -------------------------------------------------------------

# Expression templates over the builtins: (body in n, exact value).
EXPR_TEMPLATES = (
    ("sum(k=0..n, S(n,k))", lambda n: Fraction(oracles.bell()[n])),
    ("sum(k=0..n, S(n,k)*fact(k))", lambda n: Fraction(oracles.fubini()[n])),
    ("sum(k=0..n, s(n,k)*(-1)^k)", lambda n: Fraction((-1) ** n * math.factorial(n))),
    ("sum(k=0..n, C(n,k)*D(k))", lambda n: Fraction(math.factorial(n))),
    ("sum(k=1..n, H(k))", lambda n: (n + 1) * oracles.harmonic()[n] - n),
    ("sum(k=0..n, C(n,k)*B(k))", lambda n: oracles.bernoulli()[n]),
    ("sum(k=1..n, 1/(k*(k+1)))", lambda n: Fraction(n, n + 1)),
)


LENGTHS = (16, 24, 32, 40, 48)
SUBSTITUTION_ORDERS = (8, 11, 14, 17, 20)
EGF_ORDERS = (16, 20, 24, 28, 32)


def library_deck() -> list[tuple]:
    """The multiset of (kind, size, context mode) one pass runs, shuffled
    per pass.  Sizes sit on a fixed grid so every seed runs the same mix;
    the seed draws the values.  "shared" passes the run's one SeqContext,
    "fresh" passes none or a new one; ctx-free kinds carry None."""
    deck = []
    for mode in ("shared", "fresh"):
        for length in LENGTHS:
            for kind in ("stirling", "inverse", "weighted-second", "weighted-first"):
                deck.append((kind, length, mode))
        for order in SUBSTITUTION_ORDERS:
            deck += [("stirling-sub", order, mode), ("log-sub", order, mode)]
        for index in range(len(EXPR_TEMPLATES)):
            for n in (20, 40, 60):
                deck.append(("expr", (index, n), mode))
        for n in (40, 80, 120):
            deck += [("bell", n, mode), ("bernoulli", n, mode)]
        deck += [("moment", (40, 10), mode), ("moment", (70, 15), mode), ("moment", (100, 20), mode)]
    for length in LENGTHS:
        deck += [("binomial", length, None), ("alt-binomial", length, None)]
    for order in EGF_ORDERS:
        deck += [("egf-mul", order, None), ("egf-reciprocal", order, None)]
    # The costliest op, which has no random input, twice: its 2/141 share of
    # ops puts p99 inside its cluster, not on the edge of random-valued ones.
    deck.append(("bernoulli", 120, "fresh"))
    return deck


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 24))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _compare(got, want_mod: list[int]):
    """Modular comparison of a coefficient list against the oracle."""
    if len(got) != len(want_mod):
        return 0, f"length {len(got)} != {len(want_mod)}"
    got_mod = oracles.mod_vec(got)
    for i, (a, b) in enumerate(zip(got_mod, want_mod)):
        if a != b:
            return 0, f"coefficient {i} differs from the oracle"
    return len(got), None


def _exact(got, want):
    return (1, None) if got == want else (0, f"got {got}, want {want}")


def library_op(sk, rng: random.Random, spec, shared) -> tuple:
    """Build one op from its spec: (call, check) with inputs drawn now."""
    kind, size, mode = spec
    ctx = shared if mode == "shared" else None

    if kind in ("stirling", "inverse", "weighted-second", "weighted-first", "binomial", "alt-binomial"):
        values = [_rational(rng) for _ in range(size)]
        vmod = oracles.mod_vec(values)
        if kind == "stirling":
            # Round trip: the first-kind oracle triangle must undo the output.
            return (lambda: sk.stirling_transform(values, ctx),
                    lambda out: _compare(
                        oracles.triangle_apply_mod(oracles.stirling1_mod(), oracles.mod_vec(out)), vmod))
        if kind == "inverse":
            return (lambda: sk.stirling_inverse(values, ctx),
                    lambda out: _compare(
                        oracles.triangle_apply_mod(oracles.stirling2_mod(), oracles.mod_vec(out)), vmod))
        if kind == "alt-binomial":
            # The alternating binomial transform is an involution.
            return (lambda: sk.binomial_transform(values, alternating=True),
                    lambda out: _compare(oracles.binomial_apply_mod(oracles.mod_vec(out), True), vmod))
        if kind == "binomial":
            want = oracles.binomial_apply_mod(vmod, False)
            return (lambda: sk.binomial_transform(values), lambda out: _compare(out, want))
        lam, mu = _nonzero(rng), _nonzero(rng)
        tri = kind.split("-")[1]
        want = oracles.weighted_apply_mod(vmod, lam, mu, tri)
        return (lambda: sk.weighted_stirling_transform(values, lam, mu, kind=tri, ctx=ctx),
                lambda out: _compare(out, want))

    if kind in ("stirling-sub", "log-sub"):
        coeffs = [_rational(rng) for _ in range(size + 1)]
        lam, mu = _nonzero(rng), _nonzero(rng)
        f = sk.Egf(coeffs)
        want = oracles.weighted_apply_mod(oracles.mod_vec(coeffs), lam, mu,
                                          "second" if kind == "stirling-sub" else "first")
        engine = sk.stirling_substitution if kind == "stirling-sub" else sk.log_substitution
        return (lambda: engine(f, lam, mu, ctx), lambda out: _compare(out, want))

    if kind in ("egf-mul", "egf-reciprocal"):
        a = [_rational(rng) for _ in range(size + 1)]
        if a[0] == 0:
            a[0] = Fraction(1)
        a_mod = oracles.mod_vec(a)
        f = sk.Egf(a)
        if kind == "egf-mul":
            b = [_rational(rng) for _ in range(size + 1)]
            g = sk.Egf(b)
            want = oracles.egf_product_mod(a_mod, oracles.mod_vec(b))
            return (lambda: sk.egf_mul(f, g), lambda out: _compare(out.coeffs, want))
        # f times its reciprocal is the series 1.
        one = [1] + [0] * size
        return (lambda: sk.egf_reciprocal(f),
                lambda out: _compare(oracles.egf_product_mod(a_mod, oracles.mod_vec(out.coeffs)), one))

    if kind == "expr":
        index, n = size
        body, value = EXPR_TEMPLATES[index]
        a, b, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-50, 50)
        source = f"{a}/{b}*({body}) + ({c})"
        want = Fraction(a, b) * value(n) + c
        bindings = {"n": Fraction(n)}

        def call():
            env = sk.Env(bindings=dict(bindings), ctx=ctx) if ctx is not None else sk.Env(bindings=dict(bindings))
            return sk.evaluate(sk.parse(source), env)

        return call, lambda out: _exact(out, want)

    def context():
        return ctx if ctx is not None else sk.SeqContext()

    if kind == "bell":
        return (lambda: context().bell(size)), (lambda out: _exact(out, oracles.bell()[size]))
    if kind == "bernoulli":
        return (lambda: context().bernoulli(size)), (lambda out: _exact(out, oracles.bernoulli()[size]))
    if kind == "moment":
        n, p = size
        return (lambda: context().moment(n, p)), (lambda out: _exact(out, oracles.moment(n, p)))
    raise ValueError(f"unknown op kind {kind!r}")


def library_pass(sk, rng: random.Random, deck: list, shared, tally: Tally) -> None:
    order = list(deck)
    rng.shuffle(order)
    for spec in order:
        call, check = library_op(sk, rng, spec, shared)
        tally.timed(call, check)


def run_library(sk, args, gauge):
    deck = library_deck()
    tally = Tally(gauge)
    if not args.trace:
        rng = random.Random(args.seed)
        shared = sk.SeqContext()
        loop_passes(args.seconds, LIBRARY_MIN_OPS, tally, lambda: library_pass(sk, rng, deck, shared, tally))
        return tally, None

    def fixed_work():
        rng = random.Random(args.seed)
        shared = sk.SeqContext()
        for _ in range(LIBRARY_TRACED_DECKS):
            library_pass(sk, rng, deck, shared, tally)

    t0 = time.perf_counter()
    fixed_work()
    plain_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, sk)
    try:
        t0 = time.perf_counter()
        fixed_work()
        traced_s = time.perf_counter() - t0
    finally:
        uninstall()
    return tally, (tracer, traced_s / plain_s)


# -- cli-calls ---------------------------------------------------------------


def _literal(key):
    def check(out: str):
        want = oracles.README_STDOUT[key]
        return (1, None) if out == want else (0, f"{key}: stdout {out!r} != README {want!r}")

    return check


def _check_values(got: list[str], want: list, what: str):
    expect = [str(Fraction(v)) for v in want]
    if got != expect:
        return 0, f"{what}: values differ from the oracle"
    return len(got), None


def _check_hyperharmonic(out: str):
    rows = oracles.table_rows(out, ",")
    if out.splitlines()[0] != "n,value" or [r[0] for r in rows] != [str(i) for i in range(5)]:
        return 0, "hyperharmonic csv: bad layout"
    return _check_values([r[1] for r in rows], [oracles.hyperharmonic2(n) for n in range(5)], "hyperharmonic")


def _check_triangle(kind: str, n_max: int, sep):
    def check(out: str):
        table = oracles.stirling2() if kind == "stirling2" else oracles.stirling1()
        rows = oracles.table_rows(out, sep)
        if out.split(sep, 1)[0].strip() != "n":
            return 0, f"triangle {kind}: bad header"
        want_keys = [[str(n), str(k)] for n in range(n_max + 1) for k in range(n + 1)]
        if [r[:2] for r in rows] != want_keys:
            return 0, f"triangle {kind}: bad (n, k) layout"
        want = [table[n][k] for n in range(n_max + 1) for k in range(n + 1)]
        return _check_values([r[2] for r in rows], want, f"triangle {kind}")

    return check


def _check_series_dilog(out: str):
    rows = oracles.table_rows(out, ",")
    if out.splitlines()[0] != "n,egf,ordinary" or len(rows) != 9:
        return 0, "series dilog: bad layout"
    egf = [0] + [Fraction(math.factorial(n), n * n) for n in range(1, 9)]
    ordinary = [0] + [Fraction(1, n * n) for n in range(1, 9)]
    got = [r[1] for r in rows] + [r[2] for r in rows]
    return _check_values(got, egf + ordinary, "series dilog")


def _check_bernoulli(out: str):
    rows = oracles.table_rows(out, None)
    if [r[0] for r in rows] != [str(i) for i in range(121)]:
        return 0, "seq bernoulli: bad layout"
    return _check_values([r[1] for r in rows], oracles.bernoulli()[:121], "seq bernoulli")


def _check_euler40(out: str):
    want = oracles.poly_text(oracles.euler_poly(40)) + "\n"
    return (41, None) if out == want else (0, "poly euler 40: text differs from the oracle")


def _check_identities(out: str):
    ids = [line.split()[0] for line in out.splitlines()[1:]]
    return (len(ids), None) if ids == list(oracles.REGISTRY_IDS) else (0, f"identities listing: {ids}")


def _check_t15(out: str):
    head, _, rest = out.partition("\n")
    if head + "\n" != oracles.README_STDOUT["verify-t15"] or rest != "all 1 identities passed\n":
        return 0, f"verify T15: stdout {out!r}"
    return 1, None


# (name, argv, stdin, check of stdout).  Every README example except
# "verify --all", which is verify-default's pass plus one interpreter start.
CLI_CALLS = (
    ("seq-bell", ["seq", "bell", "--n", "8", "--format", "json"], None, _literal("seq-bell")),
    ("seq-hyperharmonic", ["seq", "hyperharmonic", "--p", "2", "--n", "4", "--format", "csv"], None,
     _check_hyperharmonic),
    ("triangle-stirling1", ["triangle", "stirling1", "--n", "5"], None, _check_triangle("stirling1", 5, None)),
    ("poly-bernoulli", ["poly", "bernoulli", "--n", "3", "--format", "text"], None, _literal("poly-bernoulli")),
    ("series-dilog", ["series", "dilog", "--order", "8", "--format", "csv"], None, _check_series_dilog),
    ("transform-inv-stirling", ["transform", "--kind", "inv-stirling"], '["1","1","2","5"]\n',
     _literal("transform-inv-stirling")),
    ("verify-t15", ["verify", "--id", "T15", "--max-n", "30"], None, _check_t15),
    ("identities", ["identities"], None, _check_identities),
    ("eval-sum", ["eval", "sum(k=1..4, S(4,k)*fact(k-1))"], None, _literal("eval-sum")),
    ("eval-define", ["eval", "sum(k=0..n, S(n,k)*(-1)^k*fact(k)*H(k))", "-D", "n=3"], None,
     _literal("eval-define")),
    ("seq-bernoulli-120", ["seq", "bernoulli", "--n", "120"], None, _check_bernoulli),
    ("triangle-stirling2-120", ["triangle", "stirling2", "--n", "120", "--format", "csv"], None,
     _check_triangle("stirling2", 120, ",")),
    ("poly-euler-40", ["poly", "euler", "--n", "40"], None, _check_euler40),
)

CLI_ENTRY = "from stirlingkit.cli import run; run()"


def _cli_check(name, check):
    def checked(result):
        code, out, err = result
        if code != 0:
            return 0, f"{name}: exit code {code}, stderr {err.strip()!r}"
        if err:
            return 0, f"{name}: unexpected stderr {err.strip()!r}"
        return check(out)

    return checked


def cli_subprocess(argv, stdin):
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], input=stdin, capture_output=True,
                          text=True, cwd=ROOT, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(sk, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sk.cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error, as the process would
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_cycle(rng: random.Random, tally: Tally, invoke) -> None:
    calls = list(CLI_CALLS)
    rng.shuffle(calls)
    for name, argv, stdin, check in calls:
        tally.timed(lambda: invoke(argv, stdin), _cli_check(name, check))


def run_cli(sk, args, gauge):
    rng = random.Random(args.seed)
    tally = Tally(gauge)
    if not args.trace:
        loop_passes(args.seconds, CLI_MIN_CALLS, tally, lambda: cli_cycle(rng, tally, cli_subprocess))
        return tally, None
    # Subprocess calls, then the same cycle in process, plain and traced.
    for _ in range(2):
        cli_cycle(rng, tally, cli_subprocess)
    process_p50 = percentile(tally.latencies, 0.5)
    start = len(tally.latencies)
    in_process = functools.partial(cli_in_process, sk)
    for _ in range(2):
        cli_cycle(random.Random(args.seed), tally, in_process)
    plain = tally.latencies[start:]
    plain_cycle_s = sum(plain) / 2
    stdout_bytes = 0

    def counted(argv, stdin):
        nonlocal stdout_bytes
        result = cli_in_process(sk, argv, stdin)
        stdout_bytes += len(result[1].encode())
        return result

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, sk)
    start = len(tally.latencies)
    try:
        cli_cycle(random.Random(args.seed), tally, counted)
    finally:
        uninstall()
    traced_cycle_s = sum(tally.latencies[start:])
    extra = {
        "cli.process_s": (process_p50 - percentile(plain, 0.5), "s"),
        "cli.stdout_bytes": (stdout_bytes, "count"),
    }
    return tally, (tracer, traced_cycle_s / plain_cycle_s, extra)


# -- entry point ---------------------------------------------------------------

WORKLOADS = {
    "verify-default": lambda sk, args, gauge: run_verify(sk, args, gauge, "default"),
    "verify-n30": lambda sk, args, gauge: run_verify(sk, args, gauge, "n30"),
    "library-mix": run_library,
    "cli-calls": run_cli,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="self-test: corrupt expected values")
    args = parser.parse_args()

    import stirlingkit as sk

    importlib.import_module("stirlingkit.cli")  # cli-calls reaches it as sk.cli

    if Path(sk.__file__).resolve().parent != ROOT / "src" / "stirlingkit":
        print(f"error: imported stirlingkit from {sk.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.corrupt:
        oracles.corrupt()

    if args.trace:
        tally, traced = WORKLOADS[args.workload](sk, args, None)
    else:
        with hostspeed.Gauge() as gauge:
            tally, traced = WORKLOADS[args.workload](sk, args, gauge)
    for message in tally.messages:
        print(f"op failed: {message}", file=sys.stderr)
    record = {"attempted": len(tally.latencies), "failed": tally.failed}
    if not traced:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_kb = child_kb if args.workload == "cli-calls" else self_kb
        metrics = end_to_end(tally, peak_kb)
        record["raw_s"], record["scaled_s"] = sum(tally.latencies), sum(tally.scaled)
    else:
        tracer, ratio, *rest = traced
        metrics = tracing.layer_metrics(tracer, oracles.REGISTRY_IDS)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        metrics["cli.process_s"] = (0.0, "s")
        metrics["cli.stdout_bytes"] = (0, "count")
        if rest:
            metrics.update(rest[0])
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write_spans(path, {"workload": args.workload, "seed": args.seed})
        record["spans_file"] = str(path.relative_to(ROOT))
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
