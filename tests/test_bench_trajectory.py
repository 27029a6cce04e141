"""The committed benchmark trajectory: each ``BENCH_<workload>.json`` at the
repository root is a list of entries, one per measured commit. An entry
names the commit, the date, the host's core count and the Python and numpy
versions, and holds the last stdout line of ``bench/run.py --seed 1
--seconds 25`` with ``--trace 0`` and with ``--trace 1``."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_KEYS = {"commit", "date", "cores", "python", "numpy", "command", "trace_0", "trace_1"}
RUN_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_every_workload_has_a_complete_correct_trajectory():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = sorted(workload["name"] for workload in benchmark["workloads"])
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert sorted(path.stem.removeprefix("BENCH_") for path in paths) == workloads
    for path in paths:
        entries = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(entries, list) and entries, path.name
        for entry in entries:
            assert ENTRY_KEYS <= entry.keys(), path.name
            for trace in ("trace_0", "trace_1"):
                assert RUN_KEYS <= entry[trace].keys(), (path.name, trace)
                assert entry[trace]["correct"] is True, (path.name, entry["commit"], trace)
