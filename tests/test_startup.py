"""Start-up: a run pays only for what it uses.

Each check runs a fresh interpreter, because the test process itself has
long since imported numpy and multiprocessing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synthetic as syn

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads through /proc/self/task"
)

# Prints, as JSON, the process's (thread count, whether multiprocessing is
# loaded, OPENBLAS_NUM_THREADS) after the import and after each command, and
# the commands' exit codes.
SCRIPT = """
import json, os, sys

def state():
    return [len(os.listdir("/proc/self/task")), "multiprocessing" in sys.modules,
            os.environ.get("OPENBLAS_NUM_THREADS")]

from talkmetrics.cli import main

root, out = sys.argv[1:]
states, codes = [state()], []
for argv in (["features", "--root", root, "--out", out + "/features"],
             ["batch", "--root", root, "--out", out + "/batch", "--workers", "1"]):
    codes.append(main(argv))
    states.append(state())
print(json.dumps({"states": states, "codes": codes}))
"""


def run_fresh(tmp_path, **env_vars) -> dict:
    root = tmp_path / "corpus"
    syn.write_weather_recording(root, "linked")
    syn.write_weather_recording(root, "unlinked", linked=False)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(root), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the commands print their own lines first
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_run_starts_no_thread_and_no_pool_machinery(tmp_path):
    report = run_fresh(tmp_path)
    assert report["codes"] == [0, 0]
    # after the import, after features, after batch
    assert report["states"] == [[1, False, "1"]] * 3


def test_preset_blas_thread_count_is_kept(tmp_path):
    report = run_fresh(tmp_path, OPENBLAS_NUM_THREADS="3")
    assert report["codes"] == [0, 0]
    assert [variable for _, _, variable in report["states"]] == ["3"] * 3
