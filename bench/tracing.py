"""Span tracing around stirlingkit's public functions, installed from outside.

``install`` replaces every public function and every public method of the
public classes in the layer modules with a wrapper that records a span: the
name, start, end and parent span.  It rebinds each name wherever callers look
it up (the defining module, every module that imported it, the package
namespace), so ``identities.binom_poly``, ``poly.Poly.__mul__`` and
``egf.ordinary_mul`` are all traced; nothing inside ``src/`` changes.

Spans live in flat arrays while the run lasts and ``write_spans`` saves them
at the end.  Self time is a span's duration minus the time its child spans
cover.  Counts are exact and repeat from run to run; times include the
wrappers' own cost, so end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("exact", "seq", "poly", "egf", "transform", "identities", "expr", "cli")

POLY_FAMILIES = ("exp_poly", "binom_poly", "euler_poly", "bernoulli_poly", "geom_poly")


class Tracer:
    """Spans in memory plus per-name call counts, self and total time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, int] = {
            "poly.mul.coeff_products": 0,
            "egf.ordinary_mul.coeff_products": 0,
            "seq.memo_lookups": 0,
            "seq.memo_hits": 0,
            "seq.row_grow_calls": 0,
            "identities.checked": 0,
        }
        self.seq_depth = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(idx)
        self._child_s.append(0.0)
        self.span_start.append(perf_counter())

    def leave(self) -> None:
        end = perf_counter()
        idx = self._open.pop()
        child = self._child_s.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.total_s[nid] += duration
        if self._child_s:
            self._child_s[-1] += duration

    def sum_by(self, pick, field: str) -> float:
        values = getattr(self, field)
        return sum(values[i] for i, name in enumerate(self.names) if pick(name))

    def write_spans(self, path: Path, header: dict) -> None:
        """One JSON header line (``header``, span names, span count), then
        the name, parent, start and end arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        head = dict(header, names=self.names, spans=len(self.span_name),
                    arrays=["name:i", "parent:i", "start:d", "end:d"], byteorder=sys.byteorder)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: Path):
    """Inverse of ``Tracer.write_spans``: (header, name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        out = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            out.append(arr)
    return (header, *out)


# -- wrappers ------------------------------------------------------------


def _plain(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave()

    return traced


def _poly_mul(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(self, other):
        width = len(other.coeffs) if hasattr(other, "coeffs") else 1
        counters["poly.mul.coeff_products"] += len(self.coeffs) * width
        tracer.enter(nid)
        try:
            return fn(self, other)
        finally:
            tracer.leave()

    return traced


def _ordinary_mul(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(a, b):
        size = min(len(a), len(b))
        counters["egf.ordinary_mul.coeff_products"] += size * (size + 1) // 2
        tracer.enter(nid)
        try:
            return fn(a, b)
        finally:
            tracer.leave()

    return traced


def _table_sizes(ctx) -> tuple[int, int]:
    """(triangle rows built, entries in all memo tables) of a SeqContext.

    Triangles are the list-of-lists attributes; every list or dict attribute
    is a memo table.  Reading them by shape keeps this independent of the
    attribute names.
    """
    rows = entries = 0
    for value in vars(ctx).values():
        if isinstance(value, (list, dict)):
            entries += len(value)
            if isinstance(value, list) and value and isinstance(value[0], list):
                rows += len(value)
    return rows, entries


def _seq_method(tracer: Tracer, name: str, fn):
    """A SeqContext method.  A call from outside the seq layer is one memo
    lookup: a hit if no table grew, a row-growth call if a triangle did."""
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        outer = tracer.seq_depth == 0
        if outer:
            rows0, entries0 = _table_sizes(self)
        tracer.seq_depth += 1
        tracer.enter(nid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.leave()
            tracer.seq_depth -= 1
            if outer:
                rows1, entries1 = _table_sizes(self)
                counters["seq.memo_lookups"] += 1
                counters["seq.memo_hits"] += entries1 == entries0
                counters["seq.row_grow_calls"] += rows1 > rows0

    return traced


def _check_identity(tracer: Tracer, name: str, fn):
    """Registry entries get one span name each, identities.<ID>."""
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(identity_id, *args, **kwargs):
        tracer.enter(tracer.name_id(f"identities.{identity_id}"))
        try:
            report = fn(identity_id, *args, **kwargs)
        finally:
            tracer.leave()
        counters["identities.checked"] += report.checked
        return report

    return traced


_SPECIAL = {
    "poly.Poly.__mul__": _poly_mul,
    "egf.ordinary_mul": _ordinary_mul,
    "identities.check_identity": _check_identity,
}


def _targets(package):
    """Yield (owner, attribute, span name, original) for everything traced."""
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, attr, f"{layer}.{attr}", obj
            elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in vars(obj).items():
                    public = not meth.startswith("_") or (meth.startswith("__") and meth != "__setattr__")
                    if public and inspect.isfunction(fn):
                        yield obj, meth, f"{layer}.{attr}.{meth}", fn


def install(tracer: Tracer, package):
    """Wrap every traced name of ``package``; returns a function that undoes it."""
    replaced = {}
    undo = []
    for owner, attr, name, fn in list(_targets(package)):
        if name in _SPECIAL:
            wrapper = _SPECIAL[name](tracer, name, fn)
        elif name.startswith("seq.SeqContext.") and attr != "__init__":
            wrapper = _seq_method(tracer, name, fn)
        else:
            wrapper = _plain(tracer, name, fn)
        replaced[id(fn)] = (fn, wrapper)
        undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
    # Rebind the names other modules imported with "from .x import y".
    modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------


def layer_metrics(tracer: Tracer, identity_ids) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced phase."""
    t = tracer
    c = t.counters

    def named(*names):
        wanted = set(names)
        return lambda name: name in wanted

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    def calls(pick):
        return int(t.sum_by(pick, "calls"))

    def self_s(pick):
        return t.sum_by(pick, "self_s")

    families = named(*(f"poly.{f}" for f in POLY_FAMILIES))
    lookups = c["seq.memo_lookups"]
    out = {
        "poly.mul.calls": (calls(named("poly.Poly.__mul__")), "count"),
        "poly.mul.self_s": (self_s(named("poly.Poly.__mul__")), "s"),
        "poly.mul.coeff_products": (c["poly.mul.coeff_products"], "count"),
        "poly.init.calls": (calls(named("poly.Poly.__init__")), "count"),
        "poly.init.self_s": (self_s(named("poly.Poly.__init__")), "s"),
        "poly.add.self_s": (self_s(named("poly.Poly.__add__")), "s"),
        "poly.family.calls": (calls(families), "count"),
        "poly.family.self_s": (self_s(families), "s"),
        "poly.xd_apply.self_s": (self_s(named("poly.xd_apply")), "s"),
        "poly.self_s": (self_s(layer("poly")), "s"),
        "egf.ordinary_mul.calls": (calls(named("egf.ordinary_mul")), "count"),
        "egf.ordinary_mul.self_s": (self_s(named("egf.ordinary_mul")), "s"),
        "egf.ordinary_mul.coeff_products": (c["egf.ordinary_mul.coeff_products"], "count"),
        "egf.compose.self_s": (self_s(named("egf.egf_compose")), "s"),
        "egf.reciprocal.self_s": (self_s(named("egf.egf_reciprocal")), "s"),
        "egf.mul.self_s": (self_s(named("egf.egf_mul")), "s"),
        "egf.substitution.self_s": (self_s(named("egf.stirling_substitution", "egf.log_substitution")), "s"),
        "egf.init.calls": (calls(named("egf.Egf.__init__")), "count"),
        "egf.self_s": (self_s(layer("egf")), "s"),
        "seq.calls": (calls(layer("seq")), "count"),
        "seq.self_s": (self_s(layer("seq")), "s"),
        "seq.contexts_created": (calls(named("seq.SeqContext.__init__")), "count"),
        "seq.row_grow_calls": (c["seq.row_grow_calls"], "count"),
        "seq.memo_lookups": (lookups, "count"),
        "seq.memo_hit_ratio": (c["seq.memo_hits"] / lookups if lookups else 0.0, "ratio"),
        "transform.calls": (calls(layer("transform")), "count"),
        "transform.self_s": (self_s(layer("transform")), "s"),
        "expr.calls": (calls(layer("expr")), "count"),
        "expr.parse.self_s": (self_s(named("expr.parse", "expr.tokenize")), "s"),
        "expr.eval.self_s": (self_s(named("expr.evaluate")), "s"),
        "identities.checked": (c["identities.checked"], "count"),
        "identities.self_s": (self_s(layer("identities")), "s"),
        "exact.calls": (calls(layer("exact")), "count"),
        "exact.self_s": (self_s(layer("exact")), "s"),
        "exact.format_self_s": (self_s(named("exact.format_rational")), "s"),
        "cli.main.self_s": (self_s(layer("cli")), "s"),
    }
    for ident in identity_ids:
        out[f"identities.{ident}_s"] = (t.sum_by(named(f"identities.{ident}"), "total_s"), "s")
    return out
