"""Self-tests of the benchmark harness (not of cndescent).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a = workloads.make_inputs(workload, 7, REFERENCE)
    assert a == workloads.make_inputs(workload, 7, REFERENCE)
    assert len(a) == workloads.N_OPS[workload]
    if workload != "survey":
        assert a != workloads.make_inputs(workload, 8, REFERENCE)


def test_samples_are_distinct_and_admissible():
    ks = workloads.make_inputs("classify", 3, REFERENCE)
    assert len(set(ks)) == len(ks) and set(ks) <= set(workloads.squarefree_below(1000))
    pairs = workloads.make_inputs("profile", 3, REFERENCE)
    assert len({tuple(p) for p in pairs}) == len(pairs)
    primes = set(workloads.primes_below(workloads.PROFILE_PRIME_BOUND))
    for p, l in pairs[:200]:
        assert p < l and p in primes and l in primes and p % 8 == l % 8 == 1
        assert workloads.legendre(p, l) == 1


def test_self_time_of_overlapping_and_stray_children():
    spans = [
        [0, 0.0, 10.0, -1, 0],
        [1, 1.0, 3.0, 0, 0],
        [1, 2.0, 5.0, 0, 0],  # overlaps its sibling
        [1, 9.0, 12.0, 0, 0],  # runs past its parent's end
        [2, 1.5, 2.5, 1, 0],  # grandchild: not subtracted from the root
    ]
    st = tracing.self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert st[1] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.0)


def test_self_time_never_negative_nor_above_span():
    rng = random.Random(5)
    for _ in range(50):
        spans = [[0, 0.0, 100.0, -1, 0]]
        for _ in range(60):
            parent = rng.randrange(len(spans))
            a = rng.uniform(spans[parent][1] - 5, spans[parent][2])
            spans.append([1, a, a + rng.uniform(0, 30), parent, 0])
        for rec, st in zip(spans, tracing.self_times(spans)):
            assert 0.0 <= st <= rec[2] - rec[1] + 1e-12


def test_percentile():
    xs = list(range(1, 11))
    assert workloads.percentile(xs, 50) == 5.5
    assert workloads.percentile(xs, 90) == pytest.approx(9.1)
    assert workloads.percentile(xs, 0) == 1 and workloads.percentile(xs, 100) == 10
    assert workloads.percentile([4.0], 90) == 4.0
    rng = random.Random(1)
    ys = [rng.random() for _ in range(101)]
    deciles = statistics.quantiles(ys, n=10, method="inclusive")
    assert workloads.percentile(ys, 90) == pytest.approx(deciles[8])
    assert workloads.percentile(reversed(ys), 50) == pytest.approx(statistics.median(ys))


def test_injected_failing_op_counts_as_failed(capsys):
    def op(x):
        if x == 3:
            raise MemoryError("injected")
        return x

    def record(item, out):
        if out == 4:
            raise workloads.CheckFailed("injected bad output")
        return str(out), 1, 1

    res = child.run_ops([1, 2, 3, 4, 5], op, record, [None] * 5)
    assert res["failed"] == 2 and len(res["spans"]) == 3 and res["units"] == 3
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [x["ok"] for x in lines] == [True, True, False, False, True]
    assert "MemoryError" in lines[2]["error"]


def test_digest_mismatch_counts_as_failed(capsys):
    res = child.run_ops([1, 2], lambda x: x, lambda item, out: ("d%d" % out, 1, 0), ["d1", "other"])
    assert res["failed"] == 1 and res["digests"] == ["d1"]


def test_killed_child_is_reported():
    script = "import json,time; print(json.dumps({'kind':'op','i':0,'ok':True}), flush=True); time.sleep(30)"
    res = run.spawn({}, timeout=1.0, argv=[sys.executable, "-c", script])
    assert res["killed"] and res["returncode"] != 0
    assert [op["i"] for op in res["ops"]] == [0]


def test_killed_pass_counts_its_unfinished_ops(monkeypatch):
    monkeypatch.setattr(run, "CHILD_CAP_S", 2)
    r = run.Run("classify", 1, 1, False, REFERENCE)
    r.one_pass(False)
    assert r.attempted == workloads.CLASSIFY_N and 0 < r.failed <= r.attempted
    assert not r.passes and any("killed" in p for p in r.problems)


def test_child_memory_is_capped():
    script = "b = bytearray(3 << 30)"
    res = run.spawn({}, timeout=30.0, argv=[sys.executable, "-c", script])
    assert not res["killed"] and res["returncode"] != 0
    assert "MemoryError" in res["stderr"]


def test_speed_factor_uses_nearby_probes():
    times, costs = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
    assert child.speed_factor(times, costs, 1.0, 2.0, window=0.1, ref=4.0) == pytest.approx((2 + 1) / 2)
    assert child.speed_factor(times, costs, 2.9, 2.95, window=0.01, ref=4.0) == pytest.approx(0.5)
    assert child.speed_factor([], [], 0.0, 1.0) == 1.0


def test_busy_time_is_the_probe_overlap():
    starts, ends = [0.0, 1.0, 2.0], [0.5, 1.5, 2.5]
    assert child.busy_time(starts, ends, 0.25, 2.25) == pytest.approx(0.25 + 0.5 + 0.25)
    assert child.busy_time(starts, ends, 0.6, 0.9) == 0.0
    assert child.busy_time([], [], 0.0, 1.0) == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in tracing.PER_LAYER]


def test_tracer_wraps_every_binding_and_times_layers(tmp_path):
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import cndescent, cndescent.cli, tracing
t = tracing.Tracer()
t.install()
import cndescent.descent as d, cndescent.criteria as c, cndescent.arith as a
assert d.factor is a.factor is c.factor and hasattr(a.factor, "__wrapped__")
assert cndescent.descend is d.descend
rep = cndescent.descend(4633, height=50)
rep.to_json()
m = tracing.layer_metrics(t, 1.0)
t.write({str(tmp_path / 'spans.json.gz')!r})
print(json.dumps(m))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    m = json.loads(out.stdout)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert m["descent.selmer_group.calls"] == 2
    assert m["criteria.residue_profile.calls"] == 1 and m["arith.factor.calls"] > 0
    assert m["descent.locally_solvable.calls"] > 0 and 0 < m["descent.locally_solvable.true_ratio"] <= 1
    assert m["descent.to_json.self_s"] > 0 and m["survey.run_survey.self_s"] == 0
    assert (tmp_path / "spans.json.gz").exists()


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        cmd + ["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
