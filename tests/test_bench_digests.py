"""Every verb's outputs on the benchmark corpora, byte for byte.

The three corpora of ``bench/corpus.py`` at one seed go through ``batch``
(csv and json, one and two workers), ``features``, ``reliability``,
``report``, ``align`` and ``ingest-check --format json``. Each run must
give the committed sha256 of every file it writes, of its stdout (the
output directory written as ``<out>``) and the committed exit code. The
corpus generator is imported, never changed; a change to it changes the
digests.

To rewrite the digests after an intended change of an output:

    PYTHONPATH=src:tests python tests/test_bench_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from talkmetrics.cli import main

REPO = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "data" / "bench_digests.json"
SEED = 1
WORKLOADS = ("linked_corpus", "unlinked_align", "many_small")


def _bench_corpus():
    """``bench/corpus.py`` as a module, loaded from its file."""
    name = "bench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, REPO / "bench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def _runs(workload: str) -> list[list[str]]:
    """The commands run on one corpus, each without its --root and --out.
    ``report`` re-renders the results of the ``batch --format json`` run
    before it; ``many_small`` runs two workers once only, to keep time."""
    runs = [
        ["batch", "--format", "csv", "--workers", "1"],
        ["batch", "--format", "csv", "--workers", "2"],
        ["batch", "--format", "json", "--workers", "1"],
        ["batch", "--format", "json", "--workers", "2"],
        ["report", "--format", "csv"],
        ["features", "--format", "csv"],
        ["reliability", "--format", "csv"],
        ["align"],
        ["ingest-check", "--format", "json"],
    ]
    if workload == "many_small":
        runs.remove(["batch", "--format", "json", "--workers", "2"])
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_digests(workload: str, work: Path) -> dict:
    """{command: {"exit", "stdout", "files"}} for one corpus built under ``work``."""
    corpus = _bench_corpus()
    root = work / "corpus"
    corpus.write_corpus(corpus.generate(workload, SEED), root)
    digests = {}
    results = None
    for index, run in enumerate(_runs(workload)):
        out = work / f"out{index}"
        verb, flags = run[0], run[1:]
        if verb == "report":
            argv = [verb, str(results), "--out", str(out), *flags]
        elif verb == "ingest-check":
            argv = [verb, "--root", str(root), *flags]
        else:
            argv = [verb, "--root", str(root), "--out", str(out), *flags]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(argv)
        if verb == "batch" and "json" in flags:
            results = out / "results.json"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        digests[" ".join(run)] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().replace(str(out), "<out>").encode()),
            "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
        }
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_committed_digests(workload, tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    assert workload_digests(workload, tmp_path) == expected


if __name__ == "__main__":
    digests = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as scratch:
            digests[name] = workload_digests(name, Path(scratch))
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
