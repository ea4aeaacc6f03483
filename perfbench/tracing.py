"""Spans around calls into each layer, recorded from outside the package.

The modules bind each other's functions with `from .x import y`, so a
wrapper has to replace every module attribute that holds the original
function, not just the one in the defining module. Spans are kept in
memory as [name, start, end, parent, op] and written out once a pass ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, attribute): timed with a span each call
TIMED = (
    ("descent", "descend"),
    ("descent", "selmer_group"),
    ("descent", "locally_solvable"),
    ("descent", "enumerate_torsors"),
    ("descent", "search_points"),
    ("descent", "DescentReport.to_json"),
    ("criteria", "classify_auto"),
    ("criteria", "classify_11_plus"),
    ("criteria", "residue_profile"),
    ("criteria", "classify_profile"),
    ("quadring", "split_prime"),
    ("quadring", "primary_associate"),
    ("quadring", "ring_symbol"),
    ("quadring", "symbol_capital"),
    ("arith", "factor"),
    ("arith", "is_prime"),
    ("sqclass", "SquareClassGroup.span"),
    ("sqclass", "SquareClassGroup.from_elements"),
    ("survey", "run_survey"),
    ("survey", "render_ndjson"),
)
# microsecond-scale symbols: counted, not timed
COUNTED = (
    ("arith", "jacobi"),
    ("arith", "quartic_symbol"),
    ("arith", "octic_minus4"),
)

OP_SPAN = "op"

# per-layer metrics: (name, unit, better); the traced run reports exactly these
PER_LAYER = (
    ("descent.selmer_group.calls", "count", "lower"),
    ("descent.selmer_group.self_s", "s", "lower"),
    ("descent.locally_solvable.calls", "count", "lower"),
    ("descent.locally_solvable.self_s", "s", "lower"),
    ("descent.locally_solvable.true_ratio", "ratio", "higher"),
    ("descent.enumerate_torsors.self_s", "s", "lower"),
    ("descent.search_points.calls", "count", "lower"),
    ("descent.search_points.self_s", "s", "lower"),
    ("descent.search_points.hit_ratio", "ratio", "higher"),
    ("descent.to_json.self_s", "s", "lower"),
    ("criteria.classify_auto.self_s", "s", "lower"),
    ("criteria.classify_11_plus.self_s", "s", "lower"),
    ("criteria.residue_profile.calls", "count", "lower"),
    ("criteria.residue_profile.self_s", "s", "lower"),
    ("criteria.classify_profile.calls", "count", "lower"),
    ("criteria.classify_profile.self_s", "s", "lower"),
    ("quadring.split_prime.calls", "count", "lower"),
    ("quadring.split_prime.self_s", "s", "lower"),
    ("quadring.split_prime.distinct_ratio", "ratio", "higher"),
    ("quadring.primary_associate.calls", "count", "lower"),
    ("quadring.primary_associate.self_s", "s", "lower"),
    ("quadring.ring_symbol.self_s", "s", "lower"),
    ("quadring.symbol_capital.self_s", "s", "lower"),
    ("arith.factor.calls", "count", "lower"),
    ("arith.factor.self_s", "s", "lower"),
    ("arith.is_prime.calls", "count", "lower"),
    ("arith.is_prime.self_s", "s", "lower"),
    ("arith.jacobi.calls", "count", "lower"),
    ("arith.quartic_symbol.calls", "count", "lower"),
    ("arith.octic_minus4.calls", "count", "lower"),
    ("sqclass.span.calls", "count", "lower"),
    ("sqclass.span.self_s", "s", "lower"),
    ("sqclass.from_elements.calls", "count", "lower"),
    ("sqclass.from_elements.self_s", "s", "lower"),
    ("survey.run_survey.self_s", "s", "lower"),
    ("survey.render_ndjson.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def span_name(layer: str, attr: str) -> str:
    """'descent.DescentReport.to_json' -> 'descent.to_json'."""
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.calls: Counter = Counter()
        self.true_results: Counter = Counter()
        self.split_args: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [nid, clock(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_result(self, name: str):
        """What the ratio metrics need from a call: truthy results, split arguments."""
        if name in ("descent.locally_solvable", "descent.search_points"):
            def count_true(args, result):
                if result:
                    self.true_results[name] += 1
            return count_true
        if name == "quadring.split_prime":
            return lambda args, result: self.split_args.add((args[0], repr(args[1])))
        return None

    def install(self) -> None:
        """Patch wrappers into every cndescent module that binds a target."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cndescent" or n.startswith("cndescent."))
        ]
        for layer, attr in TIMED + COUNTED:
            name = span_name(layer, attr)
            mod = sys.modules[f"cndescent.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self.timed(name, fn, self._on_result(name))
                setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                continue
            orig = getattr(mod, attr)
            if (layer, attr) in COUNTED:
                wrapped = self.counted(name, orig)
            else:
                wrapped = self.timed(name, orig, self._on_result(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged before the
    subtraction, so a self time is never negative and never exceeds the span.
    """
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(start, spans[c][1]), min(end, spans[c][2])) for c in children.get(i, ())):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(max(0.0, (end - start) - covered))
    return out


def layer_metrics(tracer: Tracer, speed: float) -> dict[str, float]:
    """Per-layer figures of one traced pass; times scaled by the pass's speed factor."""
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for rec, st in zip(tracer.spans, selfs):
        name = tracer.names[rec[0]]
        calls[name] += 1
        self_s[name] += st
    calls.update(tracer.calls)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _unit, _better in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[span]
        elif field == "self_s":
            out[metric] = self_s[span] * speed
        elif field in ("true_ratio", "hit_ratio"):
            out[metric] = ratio(tracer.true_results[span], calls[span])
        elif field == "distinct_ratio":
            out[metric] = ratio(len(tracer.split_args), calls[span])
    return out
