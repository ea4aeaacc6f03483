"""The benchmark's frozen answers: every digest in perfbench/reference.json,
recomputed through perfbench/workloads.py's own operations and records, so a
changed answer fails here and not first in a benchmark run.

The workloads module is compiled from its source and never imported, so no
bytecode is written under perfbench/.
"""

import types
from pathlib import Path

import pytest

import cndescent

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


wl = _load_workloads()
REFERENCE = wl.load_reference()


def _items(workload: str) -> list:
    """classify and search: their whole reference population; survey and
    profile: the default seed's inputs, the ones with digests."""
    if workload in ("classify", "search"):
        return REFERENCE[workload]["order"]
    return wl.make_inputs(workload, wl.DEFAULT_SEED, REFERENCE)


@pytest.mark.parametrize(
    "workload, n_items", [("classify", 608), ("search", 132), ("survey", 1), ("profile", 4000)]
)
def test_every_reference_digest_matches(workload, n_items):
    items = _items(workload)
    want = wl.expected_digests(workload, items, wl.DEFAULT_SEED, REFERENCE)
    assert len(items) == len(want) == n_items and None not in want
    op, record = wl.OPS[workload], wl.RECORDS[workload]
    wrong = [
        item
        for item, digest in zip(items, want)
        if record(item, op(cndescent, item), REFERENCE)[0] != digest
    ]
    assert wrong == []
