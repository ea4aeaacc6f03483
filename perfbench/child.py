"""One workload pass (or a set-up or verify probe) in a fresh interpreter.

Reads a JSON job on stdin and writes JSON lines on stdout: "setup" after
the package import, one "op" line per finished operation, then "pass" or
"verify", then "end". A parent that has to kill this process counts the
operations without an "op" line as failed.

Timing is normalised for machine speed. The host is shared and its speed
drifts by tens of percent within seconds, for identical work. A probe
thread therefore times a fixed piece of work every PROBE_PERIOD_S. Every
measured interval, less the probe's own runs inside it, is then scaled by
PROBE_REF_S / (probe time) averaged over the probes run around it. Both
threads are pinned to one CPU, so the probe sees the core the work runs
on. Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_PERIOD_S = 0.02
# typical thread time of one probe on the reference machine (2-vCPU x86-64
# VM, CPython 3.11); only the ratio to it matters
PROBE_REF_S = 0.0005
PROBE_WINDOW_S = 0.05


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign


@dataclass(frozen=True)
class _Gauss:
    a: int
    b: int

    def __mul__(self, other: "_Gauss") -> "_Gauss":
        return _Gauss(self.a * other.a - self.b * other.b, self.a * other.b + self.b * other.a)


def _probe_work() -> int:
    """Fixed work of the package's kind: symbols, small frozen objects, sets."""
    acc = 0
    seen = set()
    for i in range(1, 60):
        n = 2 * ((i * 2654435761) % 100003) + 1
        acc += _jacobi(i * 7919, n)
        z = _Gauss(i, i + 1) * _Gauss(n % 97, 3)
        seen.add(frozenset({z.a % 11, z.b % 13}))
    return acc + len(seen)


class Probe:
    """Runs the probe every `period` seconds until stopped, recording when
    each run started and ended and the thread time it took."""

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            s = time.perf_counter()
            a = time.thread_time()
            _probe_work()
            b = time.thread_time()
            e = time.perf_counter()
            self.costs.append(b - a)
            self.ends.append(e)
            self.starts.append(s)  # last: len(starts) never runs ahead

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def scaler(self):
        """Maps an interval measured so far to its time at reference speed."""
        n = len(self.starts)
        starts, ends, costs = self.starts[:n], self.ends[:n], self.costs[:n]

        def scaled(start: float, end: float) -> float:
            own = end - start - busy_time(starts, ends, start, end)
            return own * speed_factor(starts, costs, start, end)

        return scaled


def busy_time(starts, ends, start, end) -> float:
    """How much of [start, end] the probe itself ran (it holds the GIL then)."""
    i = max(0, bisect.bisect_left(starts, start) - 1)
    busy = 0.0
    while i < len(starts) and starts[i] < end:
        busy += max(0.0, min(end, ends[i]) - max(start, starts[i]))
        i += 1
    return busy


def speed_factor(times, costs, start, end, window=PROBE_WINDOW_S, ref=PROBE_REF_S) -> float:
    """Mean of ref / cost over the probes run in [start, end] widened by
    `window`; the nearest probe when none ran there."""
    if not times:
        return 1.0
    lo = bisect.bisect_left(times, start - window)
    hi = bisect.bisect_right(times, end + window)
    if lo == hi:
        j = min(lo, len(times) - 1)
        if j > 0 and start - times[j - 1] < times[j] - end:
            j -= 1
        lo, hi = j, j + 1
    chosen = costs[lo:hi]
    return sum(ref / max(c, 1e-9) for c in chosen) / len(chosen)


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def pin_to_one_cpu() -> None:
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_ops(items, op, record, expected, tracer=None):
    """Closed loop over the items: each op starts when the previous returns.

    An op fails when it raises (MemoryError included), when `record`
    rejects its output, or when its digest differs from `expected`; the
    loop goes on either way. Returns the (start, end) of each op that
    passed, their digests, and the unit, decided and failure counts.
    """
    spans, digests = [], []
    units = decided = failed = 0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op(item)
            t1 = time.perf_counter()
            d, u, dec = record(item, out)
            if expected[i] is not None and d != expected[i]:
                raise workloads.CheckFailed(f"digest {d} differs from the reference {expected[i]}")
        except Exception as exc:  # noqa: BLE001 - one failed op must not end the pass
            failed += 1
            emit({"kind": "op", "i": i, "ok": False, "error": f"{type(exc).__name__}: {exc}"[:300]})
            continue
        spans.append((t0, t1))
        digests.append(d)
        units += u
        decided += dec
        emit({"kind": "op", "i": i, "ok": True})
    return {"spans": spans, "digests": digests, "units": units, "decided": decided, "failed": failed}


def main() -> int:
    job = json.loads(sys.stdin.read())
    pin_to_one_cpu()
    probe = Probe()
    probe.start()
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import cndescent.cli  # what the cndescent entry point imports

    t1 = time.perf_counter()
    if Path(cndescent.__file__).resolve().parent != (root / "src" / "cndescent").resolve():
        emit({"kind": "error", "error": f"imported cndescent from {cndescent.__file__}"})
        return 3
    emit({"kind": "setup", "raw_s": t1 - t0, "s": probe.scaler()(t0, t1)})

    if job["mode"] == "verify":
        emit({"kind": "verify", "passed": bool(cndescent.verify_reference().passed)})
    elif job["mode"] == "pass":
        workload = job["workload"]
        reference = workloads.load_reference()
        tracer = None
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
        op = workloads.OPS[workload]
        items = job["items"]
        expected = workloads.expected_digests(workload, items, job["seed"], reference)

        def record(item, out):
            return workloads.RECORDS[workload](item, out, reference)

        def run_one(item):
            return op(cndescent, item)

        if tracer is not None:
            run_one = tracer.timed(tracing.OP_SPAN, run_one)

        p0 = time.perf_counter()
        res = run_ops(items, run_one, record, expected, tracer)
        p1 = time.perf_counter()
        scaled = probe.scaler()
        speed = scaled(p0, p1) / (p1 - p0)
        lat = [scaled(a, b) for a, b in res["spans"]]
        summary = {
            "kind": "pass",
            "latencies_s": lat,
            "raw_latencies_s": [b - a for a, b in res["spans"]],
            "units": res["units"],
            "decided": res["decided"],
            "failed": res["failed"],
            "digest": workloads.combine(res["digests"]),
            "speed": speed,
        }
        if tracer is not None:
            summary["layers"] = tracing.layer_metrics(tracer, speed)
            if job.get("spans_path"):
                tracer.write(job["spans_path"])
        emit(summary)
    probe.stop()
    emit({"kind": "end", "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
