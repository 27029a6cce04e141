"""Seeded synthetic corpora for the talkmetrics benchmark, with bookkeeping.

Every recording is generated from ``random.Random(f"{workload}:{seed}:{index}")``,
so one seed always gives byte-identical files. The generator keeps, next to
the files it writes, what it planted in them: each utterance's role, words
and question mark, the expert rows it dropped, inserted, re-timed, re-labelled
(role flips) or edited (word substitutions), and the machine<->expert matching
it built. The checks in ``checks.py`` compare the program's reports with this
bookkeeping; the program itself sees only the files.

Recording counts and sizes depend only on the workload, never on the seed, so
run time varies little from seed to seed. Expert tables written with a UTF-8
byte-order mark (``bom``) sit at fixed positions and are generated from a
seed-independent stream: they fail the same way on every seed.

Regenerate a corpus on disk with::

    python3 bench/corpus.py --workload many_small --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROLES = ("teacher", "child", "other")
ROLE_CUM_WEIGHTS = (55, 96, 100)
FLIP = {"teacher": "child", "child": "teacher"}

# A fixed vocabulary of pronounceable lowercase words (already in the form
# the program's normalizer produces), plus contractions, which it keeps as
# one word. Word frequencies follow a Zipf-like law, as speech does.
VOCAB = tuple(
    c1 + v + c2
    for c1, v, c2 in itertools.product("bdfgklmnprstvz", "aeiou", "klmnrst")
) + ("it's", "don't", "we'll", "i'm", "that's", "can't")
_CUM_WEIGHTS = tuple(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(VOCAB))))


@dataclass(frozen=True)
class Row:
    """One utterance as generated: times in seconds, the words the
    program's tokenizer must find, and whether the raw text holds a '?'."""

    onset: float
    offset: float
    role: str
    tokens: tuple[str, ...]
    question: bool
    text: str


@dataclass
class Recording:
    """One recording's files plus everything planted in them.

    ``planted`` lists (machine index, expert index, substitutions) for every
    expert row derived from a machine row, in increasing order on both
    sides. Expert rows absent from it were inserted; machine rows absent
    from it were dropped. For ``linked`` recordings the expert table links
    exactly these pairs through its ``machine_id`` column.
    """

    rid: str
    kind: str  # "plain" (machine only), "linked" or "unlinked"
    wearer: str
    duration_minutes: float
    machine: list[Row]
    expert: list[Row] | None = None
    planted: list[tuple[int, int, int]] = field(default_factory=list)
    bom: bool = False


@dataclass(frozen=True)
class Spec:
    """What to generate for one recording."""

    kind: str
    size: int
    bom: bool = False


def workload_specs(workload: str, scale: float = 1.0) -> list[Spec]:
    """The recordings of a workload. Sizes are fixed, not drawn from the seed."""

    def n(size: int) -> int:
        return max(2, round(size * scale))

    if workload == "linked_corpus":
        # criterion-8 shape: long machine-only recordings plus a few linked
        # ones; one short unlinked recording keeps the time route measured
        return (
            [Spec("plain", n(600)) for _ in range(50)]
            + [Spec("linked", n(1500)) for _ in range(4)]
            + [Spec("unlinked", n(60))]
        )
    if workload == "unlinked_align":
        # the DP dominates; one short linked recording keeps the index
        # route measured
        return [Spec("unlinked", n(size)) for size in (120, 200, 300)] + [
            Spec("linked", n(200))
        ]
    if workload == "many_small":
        # sizes cycle deterministically; every 100th expert table carries a
        # byte-order mark; a few short unlinked recordings keep the time
        # route measured
        specs = [
            Spec("linked", n(30 + (i * 37) % 41), bom=(i % 100 == 50)) for i in range(1000)
        ]
        specs += [Spec("unlinked", n(30)) for _ in range(4)]
        return specs
    raise ValueError(f"unknown workload: {workload!r}")


WORKLOADS = ("linked_corpus", "unlinked_align", "many_small")


def _timeline(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """(onset, offset) in centiseconds; onsets strictly increase, turns
    often overlap."""
    times = []
    onset = rng.randint(50, 300)
    for _ in range(count):
        length = rng.randint(50, 400)
        times.append((onset, onset + length))
        onset += max(20, length + rng.randint(-150, 250))
    return times


def _words(rng: random.Random) -> tuple[str, ...]:
    k = min(12, 1 + int(rng.expovariate(1 / 3.5)))
    return tuple(rng.choices(VOCAB, cum_weights=_CUM_WEIGHTS, k=k))


def _machine_text(rng: random.Random, tokens: tuple[str, ...], question: bool) -> str:
    """Raw text the way a recognizer writes it: capitalized, punctuated,
    sometimes with an annotation marker the normalizer strips."""
    if not tokens:
        return "[noise]"
    words = list(tokens)
    words[0] = words[0].capitalize()
    if rng.random() < 0.05:
        words.insert(rng.randrange(len(words) + 1), "[laughs]")
    return " ".join(words) + ("?" if question else ".")


def _expert_text(tokens: tuple[str, ...], question: bool) -> str:
    if not tokens:
        return "[noise]"
    return " ".join(tokens) + ("?" if question else "")


def _new_row(rng: random.Random, onset_cs: int, offset_cs: int, expert: bool) -> Row:
    role = rng.choices(ROLES, cum_weights=ROLE_CUM_WEIGHTS)[0]
    tokens = () if rng.random() < 0.01 else _words(rng)
    question = bool(tokens) and rng.random() < 0.22
    text = _expert_text(tokens, question) if expert else _machine_text(rng, tokens, question)
    return Row(onset_cs / 100, offset_cs / 100, role, tokens, question, text)


def _absent_word(rng: random.Random, present: set[str]) -> str:
    while True:
        word = rng.choice(VOCAB)
        if word not in present:
            return word


def _derive_expert(
    rng: random.Random, machine: list[Row], times: list[tuple[int, int]], linked: bool
) -> tuple[list[Row], list[tuple[int, int, int]]]:
    """Expert rows built from the machine rows.

    Drops ~4% of machine rows, substitutes words (each substitute absent
    from the machine row, so the row's word edit distance equals its
    substitution count), flips ~6% of teacher/child labels, inserts ~3%
    new rows and, when unlinked, jitters every timestamp by up to 0.3 s.
    """
    count = len(machine)
    dropped = set(rng.sample(range(count), count // 25))
    derived: list[tuple[int, int, int, Row]] = []  # onset_cs, offset_cs, machine index, row
    subs_of: dict[int, int] = {}
    last_onset = -1
    for i, row in enumerate(machine):
        if i in dropped:
            continue
        onset, offset = times[i]
        if not linked:
            onset = max(0, onset + rng.randint(-30, 30))
            offset = max(onset + 10, offset + rng.randint(-30, 30))
        if onset <= last_onset:
            shift = last_onset + 1 - onset
            onset, offset = onset + shift, offset + shift
        last_onset = onset
        tokens = list(row.tokens)
        n_subs = min(len(tokens), rng.choice((0, 0, 0, 1, 1, 2)))
        if n_subs:
            present = set(row.tokens)
            for position in rng.sample(range(len(tokens)), n_subs):
                tokens[position] = _absent_word(rng, present)
        role = row.role
        if role in FLIP and rng.random() < 0.06:
            role = FLIP[role]
        text = _expert_text(tuple(tokens), row.question)
        derived.append(
            (onset, offset, i, Row(onset / 100, offset / 100, role, tuple(tokens), row.question, text))
        )
        subs_of[i] = n_subs
    # inserted rows go halfway between two neighbouring onsets
    gaps = [k for k in range(len(derived) - 1) if derived[k + 1][0] - derived[k][0] >= 2]
    for k in sorted(rng.sample(gaps, min(len(gaps), count * 3 // 100)), reverse=True):
        onset = (derived[k][0] + derived[k + 1][0]) // 2
        offset = onset + rng.randint(40, 250)
        derived.insert(k + 1, (onset, offset, -1, _new_row(rng, onset, offset, expert=True)))
    expert = [entry[3] for entry in derived]
    planted = [(i, j, subs_of[i]) for j, (_, _, i, _) in enumerate(derived) if i >= 0]
    return expert, planted


def generate_recording(rid: str, spec: Spec, rng: random.Random, wearer: str) -> Recording:
    times = _timeline(rng, spec.size)
    machine = [_new_row(rng, onset, offset, expert=False) for onset, offset in times]
    recording = Recording(rid=rid, kind=spec.kind, wearer=wearer, duration_minutes=0.0,
                          machine=machine, bom=spec.bom)
    if spec.kind != "plain":
        recording.expert, recording.planted = _derive_expert(
            rng, machine, times, linked=spec.kind == "linked"
        )
    last = max(row.offset for row in machine + (recording.expert or []))
    recording.duration_minutes = (last + 30.0) / 60.0
    return recording


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Recording]:
    """All recordings of ``workload`` for ``seed``, in generation order."""
    recordings = []
    for index, spec in enumerate(workload_specs(workload, scale)):
        stream = f"{workload}:bom:{index}" if spec.bom else f"{workload}:{seed}:{index}"
        wearer = "child" if index % 4 == 3 else "teacher"
        recordings.append(
            generate_recording(f"{spec.kind[0]}{index:05d}", spec, random.Random(stream), wearer)
        )
    return recordings


def write_corpus(recordings: list[Recording], root: Path) -> None:
    """Write each recording's file triple under ``root`` (one flat directory)."""
    root.mkdir(parents=True, exist_ok=True)
    for rec in recordings:
        rng = random.Random(rec.rid)
        lines = []
        for row in rec.machine:
            record = {"start": row.onset, "end": row.offset, "text": row.text,
                      "speaker": row.role, "confidence": round(rng.uniform(0.4, 1.0), 3)}
            lines.append(json.dumps(record))
        (root / f"{rec.rid}.machine.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta = {"recording_id": rec.rid, "wearer_role": rec.wearer, "classroom_id":
                f"room{int(rec.rid[1:]) % 7}", "academic_year": "2023-2024",
                "duration_minutes": rec.duration_minutes}
        (root / f"{rec.rid}.meta.json").write_text(json.dumps(meta), encoding="utf-8")
        if rec.expert is None:
            continue
        linked = rec.kind == "linked"
        link_of = {j: i for i, j, _ in rec.planted}
        header = "start\tend\tspeaker\ttext" + ("\tmachine_id" if linked else "")
        lines = [("\ufeff" if rec.bom else "") + header]
        for j, row in enumerate(rec.expert):
            cells = [repr(row.onset), repr(row.offset), row.role, row.text]
            if linked:
                cells.append(str(link_of[j] + 1) if j in link_of else "")
            lines.append("\t".join(cells))
        (root / f"{rec.rid}.expert.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def utterance_counts(recordings: list[Recording]) -> tuple[int, int]:
    """(machine, expert) utterances written."""
    machine = sum(len(rec.machine) for rec in recordings)
    expert = sum(len(rec.expert) for rec in recordings if rec.expert is not None)
    return machine, expert


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every recording's utterance count (default 1)")
    args = parser.parse_args()
    recordings = generate(args.workload, args.seed, args.scale)
    write_corpus(recordings, args.out)
    machine, expert = utterance_counts(recordings)
    print(f"{len(recordings)} recordings, {machine} machine and {expert} expert"
          f" utterances in {args.out}")


if __name__ == "__main__":
    main()
