"""The benchmark's output checks in tier 1, over many seeds.

Each case generates a corpus with ``bench/corpus.py``, runs the pipeline on
it in this process with the default ``RunConfig`` and writes the csv report.
``bench/checks.py`` then checks the program's time alignments against the
benchmark's scorer and every reported count, feature, agreement row and
ICC against the independent computations of ``bench/oracles.py``. A case
passes when no check reports a failure.

Cases: seeds 1-20 of ``linked_corpus`` at scale 0.05, seeds 1-20 of
``unlinked_align`` at scale 0.1, and seeds 1-3 of ``many_small`` at scale
0.5. ``many_small`` keeps all its recordings, so its expert tables with a
byte-order mark are covered. The bench modules are imported, never changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from talkmetrics.batch import RunConfig, discover, emit_report, run_pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"
CASES = (
    [("linked_corpus", seed, 0.05) for seed in range(1, 21)]
    + [("unlinked_align", seed, 0.1) for seed in range(1, 21)]
    + [("many_small", seed, 0.5) for seed in (1, 2, 3)]
)


@pytest.fixture(scope="module")
def bench():
    """``bench/checks.py`` and ``bench/corpus.py``, imported with ``bench/``
    on the path only while they load (``checks`` imports ``oracles``)."""
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import corpus
    finally:
        sys.path.remove(str(BENCH))
    return checks, corpus


@pytest.mark.parametrize("workload, seed, scale", CASES)
def test_outputs_pass_the_bench_oracles(bench, tmp_path, workload, seed, scale):
    checks, corpus = bench
    recordings = corpus.generate(workload, seed, scale)
    root, out = tmp_path / "corpus", tmp_path / "out"
    corpus.write_corpus(recordings, root)
    emit_report(run_pipeline(discover(root_dir=root), RunConfig()), out, "csv")
    failures, alignments = checks.check_alignments(recordings, root)
    expected = checks.Expected(recordings, alignments)
    results, errors = checks.load_outputs(out)
    failures += checks.check_results(results, errors, expected)
    failures += checks.check_tables(out, results)
    assert failures == []
