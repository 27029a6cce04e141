"""Start-up: a run pays only for what it uses.

Each check runs a fresh interpreter, because the test process itself has
long since imported numpy and multiprocessing.
"""

import filecmp
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synthetic as syn
from talkmetrics.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads through /proc/self/task"
)

# Prints, as JSON, the process's (thread count, whether multiprocessing is
# loaded) after the import and after each command, and the commands' exit
# codes.
SCRIPT = """
import json, os, sys

def state():
    return [len(os.listdir("/proc/self/task")), "multiprocessing" in sys.modules]

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


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def write_corpus(root: Path) -> Path:
    """A linked recording, an unlinked one of 70 x 62 cells that aligns by
    time, and one with no expert table; returns the ``results.json`` that
    ``batch`` writes for them in this process, for ``report`` to re-render."""
    syn.write_weather_recording(root, "a")
    write_unlinked_recording(root, "b", random.Random(3), 70)
    syn.write_weather_recording(root, "c")
    (root / "c.expert.tsv").unlink()
    saved = root.parent / "saved"
    assert main(["batch", "--root", str(root), "--out", str(saved), "--format", "json"]) == 0
    return saved / "results.json"


def test_serial_run_starts_no_thread_and_no_pool_machinery(tmp_path):
    root = tmp_path / "corpus"
    results = write_corpus(root)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(root), str(results), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the commands print their own lines first
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert dict(zip(COMMANDS, report["states"])) == dict.fromkeys(COMMANDS, [1, False])


# a module's line in ``-X importtime``'s listing, which every process of a
# run writes to the shared standard error, forked or spawned workers too
def imported(module: str, stderr: str) -> bool:
    return re.search(rf"\| +{re.escape(module)}$", stderr, re.MULTILINE) is not None


@pytest.mark.parametrize(
    "argv",
    [["ingest-check"], ["align"], ["report"]]
    + [[verb, "--workers", workers] for verb in ("features", "reliability", "batch")
       for workers in ("1", "2")],
    ids=" ".join,
)
def test_no_command_loads_numpy(tmp_path, argv):
    """No process of any command loads numpy, not even to align recording
    ``b`` (70 x 62 cells) by time."""
    root = tmp_path / "corpus"
    results = write_corpus(root)
    source = [str(results)] if argv[0] == "report" else ["--root", str(root)]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "talkmetrics.cli", argv[0], *source,
         *argv[1:], "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
    )
    # exit 0: no recording failed, so each command that aligns aligned "b" by time
    assert proc.returncode == 0, proc.stderr
    assert imported("talkmetrics.align", proc.stderr)
    assert not imported("numpy", proc.stderr)


# Runs ``batch`` with numpy blocked: importing it raises ImportError.
BLOCKED_SCRIPT = """
import sys
sys.modules["numpy"] = None
from talkmetrics.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_run_without_numpy_aligns_every_unlinked_recording(tmp_path):
    """A missing numpy once read as damaged recordings: unlinked ones failed
    at stage ``expert`` with ModuleNotFoundError. Blocked or not, the run
    exits 0 and writes the same bytes, and no errors.json."""
    rng = random.Random(21)
    root = tmp_path / "corpus"
    for index in range(3):
        write_unlinked_recording(root, f"u{index}", rng, 40 + 30 * index)
    outs = []
    for interpreter in (["-c", BLOCKED_SCRIPT], ["-m", "talkmetrics.cli"]):
        out = tmp_path / f"out{len(outs)}"
        proc = subprocess.run(
            [sys.executable, *interpreter, "batch", "--root", str(root), "--out", str(out)],
            capture_output=True,
            text=True,
            env=fresh_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert "errors.json" not in names and "icc.csv" in names
    _, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert (mismatch, errors) == ([], [])


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
