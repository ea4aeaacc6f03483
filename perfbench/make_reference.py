"""Regenerate reference.json from the package as it stands.

    python3 perfbench/make_reference.py

Records, per workload, the output digests the benchmark checks against and
the population order its stratified sampling uses. Run it only at a commit
whose answers are the reference; a commit that changes an answer on purpose
regenerates the file in a change of its own.

- classify, search: the digest of every input of the population, and the
  population sorted by (decided, reference cost), with both columns and
  the peak RSS of a process that ran just that op. The cost is the
  fastest of REPEATS speed-normalised runs of the op.
- survey: the digest of the sweep.
- profile: the paper's grid (rank bound and Sha dimensions per profile),
  and the per-op digests of the default seed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads as wl  # noqa: E402

REPEATS = 3


def peak_rss_mb(fn) -> float:
    """Peak RSS of a forked copy of this process that runs fn() alone."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        fn()
        os.write(w, str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return int(text) / 1024


def main() -> int:
    child.pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import cndescent
    import sympy
    from cndescent.survey import REFERENCE_GRID

    ref: dict = {
        "generated_with": {
            "python": platform.python_version(),
            "sympy": sympy.__version__,
            "classify_height": wl.CLASSIFY_HEIGHT,
            "search_height": wl.SEARCH_HEIGHT,
        },
        "profile": {
            "grid": {
                ",".join(map(str, row.profile)): [row.rank_bound, len(row.sha_psi), len(row.sha_phi)]
                for row in REFERENCE_GRID
            }
        },
    }
    populations = {
        "classify": (wl.squarefree_below(wl.CLASSIFY_K_BOUND), lambda k: k),
        "search": (wl.admissible_pairs(wl.SEARCH_PRIME_BOUND), lambda pair: pair[0] * pair[1]),
    }
    # before this process runs any op, so every fork starts from a clean heap
    rss = {
        name: {key_of(item): peak_rss_mb(lambda: wl.OPS[name](cndescent, item)) for item in population}
        for name, (population, key_of) in populations.items()
    }
    probe = child.Probe()
    probe.start()
    for name, (population, key_of) in populations.items():
        op, record = wl.OPS[name], wl.RECORDS[name]
        digests, costs, decided = {}, {}, {}
        for item in population:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                out = op(cndescent, item)
                t1 = time.perf_counter()
                best = min(best, probe.scaler()(t0, t1))
            key = key_of(item)
            digests[str(key)], _, decided[key] = record(item, out, ref)
            costs[key] = best
        order = sorted(population, key=lambda it: (decided[key_of(it)], costs[key_of(it)], key_of(it)))
        ref[name] = {
            "digests": digests,
            "order": order,
            "cost_s": [round(costs[key_of(it)], 6) for it in order],
            "decided": [decided[key_of(it)] for it in order],
            "rss_mb": [round(rss[name][key_of(it)], 1) for it in order],
        }
        print(f"{name}: {len(population)} inputs, {sum(costs.values()):.2f} s in all", file=sys.stderr)

    out = wl.op_survey(cndescent, wl.SURVEY_BOUND)
    ref["survey"] = {"digests": {str(wl.SURVEY_BOUND): wl.record_survey(wl.SURVEY_BOUND, out, ref)[0]}}

    for name in wl.WORKLOADS:
        items = wl.make_inputs(name, wl.DEFAULT_SEED, ref)
        ops = [wl.RECORDS[name](item, wl.OPS[name](cndescent, item), ref)[0] for item in items]
        ref[name]["default_seed_digest"] = wl.combine(ops)
        if name == "profile":
            ref[name]["default_seed_ops"] = ops
    probe.stop()
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
