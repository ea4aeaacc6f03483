"""Benchmark for cndescent: four seeded workloads, checked outputs, end-to-end
metrics, and a traced run for the per-layer metrics.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout that has src/cndescent. Each pass runs
in a fresh child interpreter under an address-space cap and a wall-clock
cap. The last line on stdout is one JSON object: correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones. With
--trace 1 they are the per-layer ones, from spans recorded around each
layer's public functions. `--workload all` runs the four in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
CHILD = HERE / "child.py"
MEM_CAP_BYTES = 1 << 30  # address space of each child
CHILD_CAP_S = 90  # wall clock of each child
RUN_DEADLINE_S = 150  # no child starts or runs past this point of a run
SETUP_SAMPLES = 5

# bounds: the measured ten-seed spread (interquartile range over median)
# reached 7.1% for wall_s and ops_per_s and 6.1% for op_ms_p50 on classify;
# each bound is at least three times what was seen
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("op_ms_p50", "ms", "lower", 0.22),
    ("op_ms_p90", "ms", "lower", 0.22),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("decided_frac", "ratio", "higher", 0.15),
)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def spawn(job: dict, timeout: float, argv=None) -> dict:
    """Run one child to completion or until its wall-clock cap; parse its lines."""
    argv = argv or [sys.executable, str(CHILD)]
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, preexec_fn=_limit_child, text=True,
    )
    killed = False
    t0 = time.perf_counter()
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    by_kind: dict = {}
    for rec in records:
        if isinstance(rec, dict):
            by_kind.setdefault(rec.get("kind"), []).append(rec)
    return {
        "wall_s": time.perf_counter() - t0,
        "returncode": proc.returncode,
        "killed": killed,
        "stderr": err[-2000:],
        "ops": by_kind.get("op", []),
        **{k: v[-1] for k, v in by_kind.items() if k != "op"},
    }


def source_digest() -> str:
    files = sorted((ROOT / "src" / "cndescent").glob("*.py"))
    return workloads.combine(workloads.digest(f.read_text()) for f in files)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "source_sha": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "gmpy2": util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Run:
    """Passes of one workload, each in its own child, for about `seconds`."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, reference: dict):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.reference = reference
        self.items = workloads.make_inputs(workload, seed, reference)
        self.start = time.perf_counter()
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.passes: list[dict] = []  # completed untraced passes
        self.traced: list[dict] = []  # completed traced passes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified = False

    def _remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def _child(self, mode: str, trace: bool = False, spans_path=None) -> dict:
        job = {
            "root": str(ROOT), "mode": mode, "workload": self.workload, "seed": self.seed,
            "items": self.items if mode == "pass" else [], "trace": trace,
            "spans_path": spans_path,
        }
        res = spawn(job, min(CHILD_CAP_S, self._remaining()))
        if "setup" in res:
            self.setup.append(res["setup"]["s"])
            self.raw_setup.append(res["setup"]["raw_s"])
        if res["returncode"] != 0:
            why = "killed at its wall-clock cap" if res["killed"] else f"exit {res['returncode']}"
            tail = (res.get("error") or {}).get("error") or res["stderr"].strip()[-300:]
            self.problems.append(f"{mode} child {why}: {tail}")
        return res

    def verify(self) -> None:
        res = self._child("verify")
        self.attempted += 1
        self.verified = bool(res.get("verify", {}).get("passed"))
        if not self.verified:
            self.failed += 1
            self.problems.append("verify_reference() did not pass")

    def one_pass(self, trace: bool) -> float:
        spans_path = None
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = str(OUT_DIR / f"spans-{self.workload}-seed{self.seed}-pass{len(self.traced)}.json.gz")
        res = self._child("pass", trace, spans_path)
        self.attempted += len(self.items)
        self.problems += [f"op {op['i']}: {op.get('error')}" for op in res["ops"] if not op.get("ok")]
        summary = res.get("pass")
        if summary is None or "end" not in res:
            # killed or crashed: every op without an "ok" line counts as failed
            self.failed += len(self.items) - sum(1 for op in res["ops"] if op.get("ok"))
            return res["wall_s"]
        self.failed += summary["failed"]
        if summary["failed"] == 0 and self.seed == workloads.DEFAULT_SEED:
            want = self.reference[self.workload]["default_seed_digest"]
            if summary["digest"] != want:
                self.failed += 1
                self.attempted += 1
                self.problems.append(f"output digest {summary['digest']} != reference {want}")
        summary["peak_rss_mb"] = res["end"]["peak_rss_mb"]
        (self.traced if trace else self.passes).append(summary)
        return res["wall_s"]

    def measure(self) -> None:
        self.verify()
        t0 = time.perf_counter()
        costs = {False: [], True: []}
        kinds = [False, True] if self.trace else [False]
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            elapsed = time.perf_counter() - t0
            guess = max(costs[kind] or costs[not kind] or [0.0])
            if i >= len(kinds) and elapsed + guess > self.seconds:
                break
            if self._remaining() < max(guess, 5.0) * 1.5:
                break
            costs[kind].append(self.one_pass(kind))
            i += 1
        while len(self.setup) < SETUP_SAMPLES and self._remaining() > 10:
            self._child("setup")

    def end_to_end(self) -> dict:
        if not self.passes:
            return {}
        walls = [sum(p["latencies_s"]) for p in self.passes]
        lat_ms = [x * 1000 for p in self.passes for x in p["latencies_s"]]
        units = sum(p["units"] for p in self.passes)
        first = self.passes[0]
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": statistics.median(walls),
            "ops_per_s": units / sum(walls),
            "op_ms_p50": workloads.percentile(lat_ms, 50),
            "op_ms_p90": workloads.percentile(lat_ms, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.passes),
            "decided_frac": first["decided"] / first["units"],
        }

    def per_layer(self) -> dict:
        if not self.traced or not self.passes:
            return {}
        out = {}
        for name, _unit, _better in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                traced = statistics.median(sum(p["latencies_s"]) for p in self.traced)
                plain = statistics.median(sum(p["latencies_s"]) for p in self.passes)
                out[name] = traced - plain
            else:
                out[name] = statistics.median(p["layers"][name] for p in self.traced)
        return out

    def detail(self) -> dict:
        walls = [sum(p["latencies_s"]) for p in self.passes]
        return {
            "workload": self.workload,
            "environment": environment(self.seed),
            "inputs": len(self.items),
            "passes": len(self.passes),
            "traced_passes": len(self.traced),
            "op_samples": sum(len(p["latencies_s"]) for p in self.passes),
            "setup_samples": len(self.setup),
            "error_rate": self.failed / self.attempted if self.attempted else None,
            "verify_reference": self.verified,
            "digests": sorted({p["digest"] for p in self.passes + self.traced}),
            "speed_factors": [round(p["speed"], 4) for p in self.passes + self.traced],
            "raw": {
                "setup_s": statistics.median(self.raw_setup) if self.raw_setup else None,
                "wall_s": statistics.median(sum(p["raw_latencies_s"]) for p in self.passes) if self.passes else None,
            },
            "normalised_pass_walls_s": walls,
            "problems": self.problems[:20],
        }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    run = Run(workload, seed, seconds, trace, reference)
    run.measure()
    spec = tracing.PER_LAYER if trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    values = run.per_layer() if trace else run.end_to_end()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b in spec if name in values}
    correct = run.failed == 0 and run.verified and len(metrics) == len(spec) and not run.problems
    result = {"correct": correct, "attempted": max(1, run.attempted), "failed": run.failed, "metrics": metrics}
    detail = run.detail()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    for name, m in metrics.items():
        print(f"{workload:8s} {name:40s} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    if not (ROOT / "src" / "cndescent" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cndescent'}", file=sys.stderr)
        return 2

    reference = workloads.load_reference()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), reference) for w in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
