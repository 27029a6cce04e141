"""The report of a small fixed corpus, byte for byte.

The expected ``results.json`` is committed, so every supported Python must
produce the same bytes: the pooled means, the corpus hours and the pooled
WER are float sums, which the built-in ``sum`` has rounded differently
since 3.12.

To rewrite the expected file after an intended change of the report:

    PYTHONPATH=src:tests python tests/test_pinned_report.py
"""

import random
import tempfile
from pathlib import Path

import synthetic as syn
from talkmetrics.cli import EXIT_OK, main

EXPECTED = Path(__file__).resolve().parent / "data" / "pinned_results.json"


def write_pinned_corpus(root: Path, n: int = 8, seed: int = 2024) -> Path:
    """``n`` recordings drawn with ``random.random`` alone, whose sequence
    Python keeps the same across versions. Recording 0 has no expert table
    and recording 1 an unlinked one; the rest are linked, with some expert
    texts changed so that the WERs are not all 0."""
    rng = random.Random(seed)

    def pick(options):
        return options[int(rng.random() * len(options))]

    for i in range(n):
        machine_rows, expert_rows = [], []
        clock = rng.random() * 2.0
        for j in range(4 + int(rng.random() * 8)):
            end = clock + 0.5 + rng.random() * 3.0
            row = {"start": round(clock, 2), "end": round(end, 2),
                   "speaker": pick(("teacher", "child"))}
            text = pick(syn.TEXT_POOL)
            machine_rows.append({**row, "text": text})
            expert_text = pick(syn.TEXT_POOL) if rng.random() < 0.3 else text
            link = {"machine_id": j + 1} if i != 1 else {}
            expert_rows.append({**row, "text": expert_text, **link})
            clock = end + rng.random() * 2.5 - 0.5
        syn.write_recording(
            root,
            f"pin{i:02d}",
            machine_rows,
            expert_rows if i else None,
            wearer=pick(("teacher", "child")),
            duration_minutes=round(clock / 60.0 + 0.5 + rng.random() * 4.0, 4),
        )
    return root


def pinned_report(tmp_path: Path) -> bytes:
    root = write_pinned_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    assert main(["batch", "--root", str(root), "--out", str(out), "--format", "json"]) == EXIT_OK
    return (out / "results.json").read_bytes()


def test_results_match_committed_file(tmp_path):
    assert pinned_report(tmp_path) == EXPECTED.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        EXPECTED.parent.mkdir(exist_ok=True)
        EXPECTED.write_bytes(pinned_report(Path(scratch)))
