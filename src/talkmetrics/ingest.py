"""Parsers and validation for the on-disk transcript formats.

Machine transcripts arrive as UTF-8 JSONL, one utterance object per line
with keys ``start``, ``end``, ``text``, ``speaker`` and an optional
``confidence``. Utterance ids are the 1-based line numbers.

Expert transcripts are tab-separated with a header of ``start``, ``end``,
``speaker``, ``text`` and an optional ``machine_id`` column; when at least
90% of rows carry a machine id the transcript is marked linked, which
enables index-based alignment.

Recording metadata lives in a JSON sidecar with ``recording_id``,
``wearer_role``, ``classroom_id``, ``academic_year`` and
``duration_minutes``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .codec import decode, read_json
from .errors import TalkmetricsError
from .transcript import (
    Columns,
    RecordingMeta,
    Row,
    SpeakerRole,
    Source,
    Transcript,
    tokens_of,
)

LINKED_THRESHOLD = 0.9

EXPERT_COLUMNS = ("start", "end", "speaker", "text")


class ParseError(TalkmetricsError):
    """A transcript file could not be parsed; carries path and line."""

    def __init__(self, path: Path | str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class MalformedRecord(ParseError):
    """A line is not a well-formed record (bad JSON, missing keys, wrong
    cell count or type)."""


class InvalidTimestamps(ParseError):
    """Timestamps are negative, non-finite, or end before they start."""


class UnknownSpeakerLabel(ParseError):
    """Speaker label outside the closed set; never coerced silently,
    a mislabeled file would corrupt every downstream confusion count."""


class MissingHeader(ParseError):
    """The expert table header is absent or lacks a required column."""


class MetaError(TalkmetricsError):
    """The metadata sidecar is missing a field or holds a bad value."""


@dataclass(frozen=True)
class ValidationWarning:
    """A non-fatal data-quality finding from validate()."""

    code: str
    utterance_id: str
    message: str


_ROLE_LABELS = {role.value: role for role in SpeakerRole}
_INF = float("inf")
_raw_decode = json.JSONDecoder().raw_decode


def _parse_time(value: object, path: Path | str, line: int, column: str) -> float:
    try:
        parsed = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise MalformedRecord(path, line, f"{column} is not a number: {value!r}") from None
    except OverflowError:  # an integer past the float range
        raise InvalidTimestamps(path, line, f"{column} is out of range: {value!r}") from None
    if 0.0 <= parsed < _INF:
        return parsed
    if parsed != parsed or parsed in (_INF, -_INF):
        raise InvalidTimestamps(path, line, f"{column} is not finite: {value!r}")
    raise InvalidTimestamps(path, line, f"{column} is negative: {value!r}")


def _parse_role(value: object, path: Path | str, line: int) -> SpeakerRole:
    if not isinstance(value, str):
        raise MalformedRecord(path, line, f"speaker is not a string: {value!r}")
    role = _ROLE_LABELS.get(value)
    if role is not None:
        return role
    try:
        return SpeakerRole.from_label(value)
    except ValueError as exc:
        raise UnknownSpeakerLabel(path, line, str(exc)) from None


def _load_record(text: str, path: Path | str, line: int) -> object:
    """One JSONL line's value, as ``json.loads`` gives it."""
    try:
        record, end = _raw_decode(text)
        if end == len(text):
            return record
    except ValueError:
        pass
    try:  # json.loads words the error, or accepts what raw_decode did not
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(path, line, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise MalformedRecord(path, line, f"invalid JSON: {exc}") from None


def parse_machine(path: Path | str, meta: RecordingMeta) -> Transcript:
    """Read a machine transcript from JSONL. Ids are 1-based line numbers."""
    rows: list[Row] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped:
                continue
            record = _load_record(stripped, path, line_no)
            if not isinstance(record, dict):
                raise MalformedRecord(path, line_no, "line is not a JSON object")
            for key in ("start", "end", "text", "speaker"):
                if key not in record:
                    raise MalformedRecord(path, line_no, f"missing key {key!r}")
            # a JSON float that is finite and not negative is already a time
            onset = record["start"]
            if not (type(onset) is float and 0.0 <= onset < _INF):
                onset = _parse_time(onset, path, line_no, "start")
            offset = record["end"]
            if not (type(offset) is float and 0.0 <= offset < _INF):
                offset = _parse_time(offset, path, line_no, "end")
            if offset < onset:
                raise InvalidTimestamps(path, line_no, f"end {offset} before start {onset}")
            text = record["text"]
            if not isinstance(text, str):
                raise MalformedRecord(path, line_no, f"text is not a string: {text!r}")
            confidence = record.get("confidence")
            if confidence is not None and type(confidence) is not float:
                try:
                    confidence = float(confidence)
                except (TypeError, ValueError):
                    raise MalformedRecord(
                        path, line_no, f"confidence is not a number: {confidence!r}"
                    ) from None
                except OverflowError:
                    raise MalformedRecord(
                        path, line_no, f"confidence is out of range: {confidence!r}"
                    ) from None
            role = _parse_role(record["speaker"], path, line_no)
            rows.append(
                (onset, offset, str(line_no), role, tokens_of(text), "?" in text, text,
                 confidence, None)
            )
    rows.sort()  # ids are unique, so (onset, offset, id) decides every comparison
    return Transcript(meta, Columns.from_rows(rows), False, Source.MACHINE)


def parse_expert(path: Path | str, meta: RecordingMeta) -> Transcript:
    """Read an expert transcript from a tab-separated table.

    The header must contain start/end/speaker/text in any order, after an
    optional UTF-8 byte-order mark (spreadsheet exports carry one); a
    machine_id column is optional and, when filled on at least 90% of rows,
    marks the transcript linked.
    """
    rows: list[Row] = []
    link_count = 0
    with open(path, encoding="utf-8-sig", newline="") as handle:
        header_line = handle.readline()
        if not header_line:
            raise MissingHeader(path, 1, "empty file, expected a header row")
        header = [column.strip() for column in header_line.rstrip("\r\n").split("\t")]
        missing = [column for column in EXPERT_COLUMNS if column not in header]
        if missing:
            raise MissingHeader(path, 1, f"header is missing columns: {', '.join(missing)}")
        start_at, end_at, speaker_at, text_at = map(header.index, EXPERT_COLUMNS)
        link_at = header.index("machine_id") if "machine_id" in header else None
        width = len(header)
        for line_no, line in enumerate(handle, 2):
            row = line.rstrip("\r\n")
            if not row.strip():
                continue
            cells = row.split("\t")
            if len(cells) < len(EXPERT_COLUMNS):
                raise MalformedRecord(
                    path, line_no, f"expected at least {len(EXPERT_COLUMNS)} cells, got {len(cells)}"
                )
            if len(cells) < width:  # a short row's missing cells read as empty
                cells += [""] * (width - len(cells))
            onset = _parse_time(cells[start_at], path, line_no, "start")
            offset = _parse_time(cells[end_at], path, line_no, "end")
            if offset < onset:
                raise InvalidTimestamps(path, line_no, f"end {offset} before start {onset}")
            linked_id = None
            if link_at is not None:
                raw_link = cells[link_at].strip()
                if raw_link:
                    linked_id = raw_link
                    link_count += 1
            text = cells[text_at]
            role = _parse_role(cells[speaker_at], path, line_no)
            rows.append(
                (onset, offset, f"e{line_no - 1}", role, tokens_of(text), "?" in text, text,
                 None, linked_id)
            )
    linked = bool(rows) and link_count / len(rows) >= LINKED_THRESHOLD
    rows.sort()  # ids are unique, so (onset, offset, id) decides every comparison
    return Transcript(meta, Columns.from_rows(rows), linked, Source.EXPERT)


def load_meta(path: Path | str) -> RecordingMeta:
    """Read the metadata sidecar."""
    data = read_json(path, MetaError)
    if not isinstance(data, dict):
        raise MetaError(f"{path}: metadata must be a JSON object")
    for key in ("recording_id", "wearer_role", "classroom_id", "academic_year", "duration_minutes"):
        if key not in data:
            raise MetaError(f"{path}: missing key {key!r}")
    try:
        wearer = SpeakerRole.from_label(str(data["wearer_role"]))
    except ValueError as exc:
        raise MetaError(f"{path}: {exc}") from None
    try:
        duration = float(data["duration_minutes"])
    except (TypeError, ValueError):
        raise MetaError(
            f"{path}: duration_minutes is not a number: {data['duration_minutes']!r}"
        ) from None
    except OverflowError:  # an integer past the float range
        raise MetaError(
            f"{path}: duration_minutes is out of range: {data['duration_minutes']!r}"
        ) from None
    try:
        return RecordingMeta(
            recording_id=decode(str, data["recording_id"], "recording_id"),
            wearer_role=wearer,
            classroom_id=decode(str, data["classroom_id"], "classroom_id"),
            academic_year=decode(str, data["academic_year"], "academic_year"),
            duration_minutes=duration,
        )
    except ValueError as exc:
        raise MetaError(f"{path}: {exc}") from None


def validate(transcript: Transcript) -> list[ValidationWarning]:
    """Non-fatal data-quality checks.

    Flags overlapping same-role utterances, utterances running more than a
    second past the recorded duration, and zero-word utterances. Returned
    in utterance order; an empty list means no findings.
    """
    findings: list[ValidationWarning] = []
    limit = transcript.meta.duration_seconds + 1.0
    last_offset: dict[SpeakerRole, tuple[float, str]] = {}
    for onset, offset, id, role, tokens, _, raw_text, _, _ in transcript.columns.rows():
        previous = last_offset.get(role)
        if previous is not None and onset < previous[0]:
            findings.append(
                ValidationWarning(
                    code="overlap",
                    utterance_id=id,
                    message=(
                        f"{role.value} utterance {id} starts at {onset:.3f}"
                        f" before {previous[1]} ends at {previous[0]:.3f}"
                    ),
                )
            )
        if previous is None or offset > previous[0]:
            last_offset[role] = (offset, id)
        if offset > limit:
            findings.append(
                ValidationWarning(
                    code="past_duration",
                    utterance_id=id,
                    message=(
                        f"utterance {id} ends at {offset:.3f}, past the"
                        f" recording duration of {transcript.meta.duration_seconds:.1f}s"
                    ),
                )
            )
        if not tokens:
            findings.append(
                ValidationWarning(
                    code="zero_words",
                    utterance_id=id,
                    message=f"utterance {id} normalizes to zero words: {raw_text!r}",
                )
            )
    return findings
