"""The same bytes on every installed interpreter.

Outputs must be byte-identical on every supported Python (3.10 and later),
but the suite runs on one. This test drives the other interpreters it can
find as subprocesses, with nothing installed in them: the program runs on
the standard library alone. Each runs ``batch --format json`` with
``PYTHONPATH=src`` on the seed-1 corpora of all three benchmark workloads,
``unlinked_align``'s alignment by time included, with one worker, and on
``unlinked_align`` with two as well. Every run must give the exit code and
the digests of its stdout and files that ``tests/data/bench_digests.json``
holds.

Interpreters are found through ``pyenv versions --bare`` and started as
``PYENV_VERSION=<version> pyenv exec python3``: a plain ``python3`` would
find this interpreter first on the ``PATH`` that pyenv gave it. Those that
do not start, that are older than 3.10, or that are the interpreter running
the suite are left out, and each is run once however many versions name
it. With none left, the test skips and says why; CI's Python matrix covers
such hosts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_digests import EXPECTED, SEED, WORKLOADS, _bench_corpus, _sha256

REPO = Path(__file__).resolve().parents[1]
# (workload, workers) of each run; the corpus of the first is aligned by time
RUNS = [("unlinked_align", 1), ("unlinked_align", 2), ("linked_corpus", 1), ("many_small", 1)]
PYTHON3 = ["pyenv", "exec", "python3"]


def other_interpreters() -> dict[str, dict[str, str]]:
    """{executable: environment in which ``PYTHON3`` starts it} for each
    interpreter pyenv names, at 3.10 or later, other than this one."""
    if shutil.which("pyenv") is None:
        return {}
    listed = subprocess.run(
        ["pyenv", "versions", "--bare"], capture_output=True, text=True, timeout=60
    )
    found = {}
    for version in listed.stdout.split():
        env = {**os.environ, "PYENV_VERSION": version, "PYTHONPATH": str(REPO / "src")}
        try:
            probe = subprocess.run(
                [*PYTHON3, "-c", "import sys; print(sys.executable, *sys.version_info[:2])"],
                capture_output=True, text=True, env=env, timeout=60,
            )
        except OSError:
            continue
        if probe.returncode != 0 or len(probe.stdout.split()) != 3:
            continue
        executable, major, minor = probe.stdout.split()
        if (int(major), int(minor)) >= (3, 10) and (
            os.path.realpath(executable) != os.path.realpath(sys.executable)
        ):
            found.setdefault(os.path.realpath(executable), env)
    return found


def run_digests(env: dict[str, str], root: Path, out: Path, workers: int) -> dict:
    """``batch --format json`` on ``root`` in the interpreter ``env``
    starts, as ``tests/test_bench_digests.py`` records a run."""
    proc = subprocess.run(
        [*PYTHON3, "-m", "talkmetrics.cli", "batch", "--root", str(root), "--out", str(out),
         "--format", "json", "--workers", str(workers)],
        capture_output=True, env=env, timeout=300,
    )
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return {
        "exit": proc.returncode,
        "stdout": _sha256(proc.stdout.replace(str(out).encode(), b"<out>")),
        "files": {path.relative_to(out).as_posix(): _sha256(path.read_bytes()) for path in files},
    }


def test_every_interpreter_writes_the_committed_bytes(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("pyenv names no other interpreter at Python 3.10 or later that starts")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    corpus = _bench_corpus()
    for workload in WORKLOADS:
        corpus.write_corpus(corpus.generate(workload, SEED), tmp_path / workload)
    differ = []
    for index, (executable, env) in enumerate(interpreters.items()):
        for workload, workers in RUNS:
            out = tmp_path / f"out{index}-{workload}-{workers}"
            got = run_digests(env, tmp_path / workload, out, workers)
            if got != expected[workload][f"batch --format json --workers {workers}"]:
                differ.append(f"{executable}: {workload} --workers {workers}")
    assert not differ, differ
