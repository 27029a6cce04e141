"""Start-up: a run pays only for what it uses.

Each check runs a fresh interpreter, because the test process itself has
long since imported numpy and multiprocessing.
"""

import filecmp
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import synthetic as syn
from talkmetrics.align import _PLAIN_CELLS
from talkmetrics.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads through /proc/self/task"
)

# Prints, as JSON, the process's (thread count, whether multiprocessing is
# loaded, whether numpy is loaded, OPENBLAS_NUM_THREADS) after the import
# and after each command, and the commands' exit codes.
SCRIPT = """
import json, os, sys

def state():
    return [len(os.listdir("/proc/self/task")), "multiprocessing" in sys.modules,
            "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]

from talkmetrics.cli import main

root, results, out = sys.argv[1:]
states, codes = [state()], []
for argv in (["features", "--root", root, "--out", out + "/features"],
             ["ingest-check", "--root", root, "--format", "json"],
             ["report", results, "--out", out + "/report"],
             ["batch", "--root", root, "--out", out + "/batch", "--workers", "1"]):
    codes.append(main(argv))
    states.append(state())
print(json.dumps({"states": states, "codes": codes}))
"""

COMMANDS = ["import", "features", "ingest-check", "report", "batch"]


def fresh_env(**env_vars) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(env_vars)
    return env


def run_fresh(tmp_path, **env_vars) -> dict:
    root = tmp_path / "corpus"
    syn.write_weather_recording(root, "linked")
    write_unlinked_recording(root, "unlinked", random.Random(3), 70)  # 70 x 62 cells
    # the saved results that ``report`` re-renders, made in this process
    saved = tmp_path / "saved"
    assert main(["batch", "--root", str(root), "--out", str(saved), "--format", "json"]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(root), str(saved / "results.json"),
         str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=fresh_env(**env_vars),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the commands print their own lines first
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    return dict(zip(COMMANDS, report["states"]))


def test_serial_run_starts_no_thread_and_no_pool_machinery(tmp_path):
    states = run_fresh(tmp_path)
    # the variable reads "1" from the import on, not only once numpy loads
    assert {command: [state[0], state[1], state[3]] for command, state in states.items()} == (
        dict.fromkeys(COMMANDS, [1, False, "1"])
    )


def test_numpy_loads_only_for_agreement(tmp_path):
    states = run_fresh(tmp_path)
    # batch aligns the unlinked recording by time, the one step that uses
    # numpy, and its cells are more than the plain-Python budget
    assert {command: state[2] for command, state in states.items()} == {
        **dict.fromkeys(COMMANDS, False), "batch": True
    }
    # the package set the variable before numpy was first imported
    assert states["batch"][3] == "1"


def loads_numpy(argv: list[str]) -> str:
    """Run ``argv`` through ``main`` in a fresh interpreter; return the
    exit code and whether that (parent) process loaded numpy, as one line."""
    script = "import sys\nfrom talkmetrics.cli import main\ncode = main(sys.argv[1:])\n"
    proc = subprocess.run(
        [sys.executable, "-c", script + "print(code, 'numpy' in sys.modules)", *argv],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_pooled_batch_without_expert_tables_never_loads_numpy(tmp_path):
    root = tmp_path / "corpus"
    for recording_id in ("a", "b"):
        syn.write_weather_recording(root, recording_id)
        (root / f"{recording_id}.expert.tsv").unlink()
    argv = ["batch", "--root", str(root), "--out", str(tmp_path / "out"), "--workers", "2"]
    assert loads_numpy(argv) == "0 False"


def test_agreement_on_linked_recordings_never_loads_numpy(tmp_path):
    # the ICC grid is summed in plain Python; only alignment by time needs numpy
    root = tmp_path / "corpus"
    for recording_id in ("a", "b"):
        syn.write_weather_recording(root, recording_id)
    for verb in ("batch", "reliability"):
        argv = [verb, "--root", str(root), "--out", str(tmp_path / verb), "--workers", "1"]
        assert loads_numpy(argv) == "0 False"


def test_pooled_batch_parent_never_loads_numpy(tmp_path):
    # the worker that aligns "c" by time loads numpy; the parent, which
    # merges and takes the ICCs, does not
    root = tmp_path / "corpus"
    for recording_id in ("a", "b"):
        syn.write_weather_recording(root, recording_id)
    write_unlinked_recording(root, "c", random.Random(3), 70)
    out = tmp_path / "out"
    assert loads_numpy(["batch", "--root", str(root), "--out", str(out), "--workers", "2"]) == (
        "0 False"
    )
    rows = (out / "reliability_per_recording.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:4]] == ["a", "b", "c"]


def test_numpy_loads_only_past_the_plain_python_budget(tmp_path):
    root = tmp_path / "corpus"
    for recording_id in ("a", "b"):
        syn.write_weather_recording(root, recording_id)
    verbs = ("batch", "reliability", "align")

    def loaded() -> list[str]:
        return [
            loads_numpy([verb, "--root", str(root), "--out", str(tmp_path / verb)])
            for verb in verbs
        ]

    assert loaded() == ["0 False"] * len(verbs)
    syn.write_weather_recording(root, "c", linked=False)  # 10 x 10 cells
    assert loaded() == ["0 False"] * len(verbs)
    write_unlinked_recording(root, "d", random.Random(3), 70)  # 70 x 62 cells
    assert 70 * 62 > _PLAIN_CELLS
    assert loaded() == ["0 True"] * len(verbs)


def test_preset_blas_thread_count_is_kept(tmp_path):
    states = run_fresh(tmp_path, OPENBLAS_NUM_THREADS="3")
    assert [state[3] for state in states.values()] == ["3"] * len(COMMANDS)


def write_unlinked_recording(
    root: Path, recording_id: str, rng: random.Random, rows: int
) -> None:
    """``rows`` machine rows; the expert rows are the same with shifted
    times and some words swapped, every eighth row dropped
    (``rows - rows // 8`` of them), and no machine-id column."""
    machine_rows, expert_rows = [], []
    clock = 0.0
    for index in range(rows):
        onset, clock = clock, clock + rng.uniform(1.0, 4.0)
        row = {"start": round(onset, 2), "end": round(clock - 0.2, 2),
               "text": rng.choice(syn.TEXT_POOL), "speaker": rng.choice(["teacher", "child"])}
        machine_rows.append(row)
        if index % 8 != 7:
            words = row["text"].split()
            if rng.random() < 0.3:
                words[rng.randrange(len(words))] = "um"
            expert_rows.append({**row, "start": round(onset + rng.uniform(0, 0.5), 2),
                                "text": " ".join(words)})
    syn.write_recording(
        root, recording_id, machine_rows, expert_rows, duration_minutes=clock / 60.0
    )


# Prints, as JSON, the exit code and, for each recording aligned by time in
# order, its id and whether numpy was loaded once it was aligned.
BY_TIME_SCRIPT = """
import json, sys
import talkmetrics.align as align
from talkmetrics.cli import main

by_time, seen = align.align_by_time, []

def traced(machine, expert, config=None):
    corpus = by_time(machine, expert, config)
    seen.append([machine.meta.recording_id, "numpy" in sys.modules])
    return corpus

align.align_by_time = traced
code = main(sys.argv[1:])
print(json.dumps([code, seen]))
"""


def test_small_recordings_load_numpy_at_the_first_that_does_not_fit(tmp_path):
    # 40 x 35 = 1,400 cells each: two fit the budget, the third does not
    assert 2 * 1400 <= _PLAIN_CELLS < 3 * 1400
    rng = random.Random(16)
    root = tmp_path / "corpus"
    for index in range(5):
        write_unlinked_recording(root, f"r{index}", rng, 40)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        proc = subprocess.run(
            [sys.executable, "-c", BY_TIME_SCRIPT, "batch", "--root", str(root),
             "--out", str(out), "--workers", workers],
            capture_output=True,
            text=True,
            env=fresh_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
        if workers == "1":
            assert json.loads(proc.stdout.splitlines()[-1]) == [
                0, [[f"r{index}", index >= 2] for index in range(5)]
            ]
    # each worker spends a budget of its own, so paths differ, but not outputs
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert "icc.csv" in names
    _, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert (mismatch, errors) == ([], [])
