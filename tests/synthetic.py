"""Shared test builders: deterministic fixtures, random transcripts,
on-disk corpora, and the JSON value of a record."""

from __future__ import annotations

import json
import random
from pathlib import Path

from talkmetrics.align import align_by_index
from talkmetrics.codec import json_chunks
from talkmetrics.transcript import RecordingMeta, Source, SpeakerRole, Transcript, Utterance


def encoded(value: object) -> object:
    """``value`` as a results file holds it: the JSON that ``json_chunks``
    writes, read back."""
    return json.loads("".join(json_chunks(value)))


def word_count(transcript: Transcript, role: SpeakerRole | None = None) -> int:
    """The words of a transcript's utterances, or of one role's, counted
    from its columns."""
    pairs = zip(transcript.columns.tokens, transcript.columns.role)
    return sum(len(tokens) for tokens, speaker in pairs if role is None or speaker is role)


# A ten-utterance teacher/child exchange about weather and raisins. The
# machine and expert sides differ on rows 3 and 9 (index 2 and 8), giving
# known word counts, edit distances, and error rates per row.
WEATHER_ROWS = (
    ("How is the weather?", "How is the weather?", "teacher"),
    ("Sunny.", "Sunny", "child"),
    ("Sunny.", "It's rainy?", "teacher"),
    ("It's sunny? I don't know if it's sunny.", "It's sunny? I don't know if it's sunny", "teacher"),
    ("It is.", "It is", "child"),
    ("It is? I think it's sunny as well.", "It is? I think it's sunny as well.", "teacher"),
    ("Me too.", "Me too.", "child"),
    ("Yeah, you too.", "Yeah, you too.", "teacher"),
    ("Oh, raisins.", "Oh a raisin is in there", "child"),
    ("I love the raisins.", "I love the raisins", "child"),
)
WEATHER_EXPERT_WORD_COUNTS = (4, 1, 2, 8, 2, 8, 2, 3, 6, 4)
WEATHER_DISTANCES = (0, 0, 2, 0, 0, 0, 0, 0, 5, 0)
WEATHER_WERS = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5 / 6, 0.0)

TEXT_POOL = (
    "How is the weather?",
    "It's sunny outside.",
    "Can you pass the blocks?",
    "I want the red one.",
    "Look at this!",
    "What do you see?",
    "A big dog.",
    "Let's clean up now.",
    "Why?",
    "Because it's lunch time.",
    "[laughs]",
    "The cat sat on the mat.",
    "One two three four five.",
)


def make_meta(
    recording_id: str = "rec",
    wearer: str = "teacher",
    duration_minutes: float = 5.0,
    classroom: str = "roomA",
    year: str = "2023-2024",
) -> RecordingMeta:
    return RecordingMeta(
        recording_id=recording_id,
        wearer_role=SpeakerRole.from_label(wearer),
        classroom_id=classroom,
        academic_year=year,
        duration_minutes=duration_minutes,
    )


def utt(
    id: object,
    onset: float,
    offset: float,
    text: str,
    role: str = "teacher",
    source: str = "machine",
    linked_id: str | None = None,
) -> Utterance:
    return Utterance(
        id=str(id),
        onset=onset,
        offset=offset,
        raw_text=text,
        role=SpeakerRole.from_label(role),
        source=Source(source),
        linked_id=linked_id,
    )


def transcript(
    utterances, meta: RecordingMeta | None = None, linked: bool = False
) -> Transcript:
    return Transcript.from_utterances(meta or make_meta(), utterances, linked=linked)


def build_weather_pair(duration_minutes: float = 1.0):
    """The ten-row fixture as a linked machine/expert transcript pair."""
    meta = make_meta(recording_id="weather", duration_minutes=duration_minutes)
    machine_utts = []
    expert_utts = []
    for i, (machine_text, expert_text, role) in enumerate(WEATHER_ROWS):
        onset = 3.0 * i
        offset = onset + 2.0
        machine_utts.append(utt(i + 1, onset, offset, machine_text, role, "machine"))
        expert_utts.append(
            utt(f"e{i + 1}", onset, offset, expert_text, role, "expert", linked_id=str(i + 1))
        )
    machine = transcript(machine_utts, meta)
    expert = transcript(expert_utts, meta, linked=True)
    return machine, expert


def build_weather_corpus(duration_minutes: float = 1.0):
    machine, expert = build_weather_pair(duration_minutes)
    return align_by_index(machine, expert)


def random_transcript(
    rng: random.Random,
    n: int,
    duration_minutes: float = 5.0,
    roles=("teacher", "child", "other"),
    source: str = "machine",
    max_gap: float = 4.0,
) -> Transcript:
    """n utterances with mostly-sequential, sometimes-overlapping timing."""
    utts = []
    clock = 0.0
    for i in range(n):
        onset = max(0.0, clock + rng.uniform(-1.0, max_gap))
        length = rng.uniform(0.2, 4.0)
        utts.append(
            utt(i + 1, onset, onset + length, rng.choice(TEXT_POOL), rng.choice(roles), source)
        )
        clock = max(clock, onset + length * rng.uniform(0.3, 1.0))
    minutes = max(duration_minutes, (clock + 5.0) / 60.0)
    return transcript(utts, make_meta(duration_minutes=minutes))


def write_recording(
    directory: Path,
    recording_id: str,
    machine_rows: list[dict],
    expert_rows: list[dict] | None = None,
    wearer: str = "teacher",
    duration_minutes: float = 5.0,
    classroom: str = "roomA",
    year: str = "2023-2024",
) -> tuple[Path, Path | None, Path]:
    """Write one recording's file triple; returns (machine, expert, meta) paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{recording_id}.machine.jsonl", "w", encoding="utf-8") as handle:
        for row in machine_rows:
            handle.write(json.dumps(row) + "\n")
    if expert_rows is not None:
        has_links = any("machine_id" in row for row in expert_rows)
        columns = ["start", "end", "speaker", "text"] + (["machine_id"] if has_links else [])
        with open(directory / f"{recording_id}.expert.tsv", "w", encoding="utf-8") as handle:
            handle.write("\t".join(columns) + "\n")
            for row in expert_rows:
                cells = [str(row[c]) if c in row else "" for c in columns]
                handle.write("\t".join(cells) + "\n")
    meta = {
        "recording_id": recording_id,
        "wearer_role": wearer,
        "classroom_id": classroom,
        "academic_year": year,
        "duration_minutes": duration_minutes,
    }
    with open(directory / f"{recording_id}.meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return (
        directory / f"{recording_id}.machine.jsonl",
        directory / f"{recording_id}.expert.tsv" if expert_rows is not None else None,
        directory / f"{recording_id}.meta.json",
    )


def write_weather_recording(
    directory: Path, recording_id: str = "weather", linked: bool = True
) -> tuple[Path, Path | None, Path]:
    """The ten-row fixture on disk; without ``linked`` the expert table has
    no ``machine_id`` column, so it is aligned by time."""
    machine_rows = []
    expert_rows = []
    for i, (machine_text, expert_text, role) in enumerate(WEATHER_ROWS):
        onset = 3.0 * i
        machine_rows.append(
            {"start": onset, "end": onset + 2.0, "text": machine_text, "speaker": role}
        )
        expert_rows.append(
            {
                "start": onset,
                "end": onset + 2.0,
                "speaker": role,
                "text": expert_text,
                **({"machine_id": i + 1} if linked else {}),
            }
        )
    return write_recording(
        directory, recording_id, machine_rows, expert_rows, duration_minutes=1.0
    )
