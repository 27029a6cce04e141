"""The ingest error contract: for each malformed machine line and expert
row, the exception class and its ``path:line: message`` text; for the
values the parsers accept, what they read them as."""

import json
import math

import pytest

import synthetic as syn
from talkmetrics.ingest import (
    InvalidTimestamps,
    MalformedRecord,
    MissingHeader,
    ParseError,
    UnknownSpeakerLabel,
    parse_expert,
    parse_machine,
)
from talkmetrics.transcript import SpeakerRole

META = syn.make_meta()
GOOD = {"start": 0.5, "end": 1.0, "text": "hello", "speaker": "teacher"}


def machine_file(tmp_path, lines, prefix=""):
    path = tmp_path / "rec.machine.jsonl"
    path.write_text(prefix + "\n".join(lines) + "\n", encoding="utf-8")
    return path


DROP = object()  # a key that line() leaves out


def line(**changes):
    record = {**GOOD, **changes}
    return json.dumps({key: value for key, value in record.items() if value is not DROP})


HUGE = 10**400  # an integer past the float range
LONG = "1" * 5000  # an integer literal past the interpreter's digit limit
try:
    int(LONG)
    LONG_FAILURE = (InvalidTimestamps, f"start is out of range: {LONG}")
except ValueError as exc:  # the JSON decoder stops at the same limit
    LONG_FAILURE = (MalformedRecord, f"invalid JSON: {exc}")

MACHINE_FAILURES = [
    ("{not json", MalformedRecord,
     "invalid JSON: Expecting property name enclosed in double quotes"),
    ('{"start": 0, "end": 1, "text": "a", "speaker": "child",}', MalformedRecord,
     "invalid JSON: Expecting property name enclosed in double quotes"),
    ("{} {}", MalformedRecord, "invalid JSON: Extra data"),
    ("[1, 2, 3]", MalformedRecord, "line is not a JSON object"),
    ('"teacher"', MalformedRecord, "line is not a JSON object"),
    (line(speaker=DROP), MalformedRecord, "missing key 'speaker'"),
    (line(start=DROP, text=DROP), MalformedRecord, "missing key 'start'"),
    (line(start="soon"), MalformedRecord, "start is not a number: 'soon'"),
    (line(start=None), MalformedRecord, "start is not a number: None"),
    (line(start=[1]), MalformedRecord, "start is not a number: [1]"),
    (line(start=math.nan), InvalidTimestamps, "start is not finite: nan"),
    (line(start="NaN"), InvalidTimestamps, "start is not finite: 'NaN'"),
    (line(start=math.inf), InvalidTimestamps, "start is not finite: inf"),
    (line(start=-math.inf), InvalidTimestamps, "start is not finite: -inf"),
    (line(start=-1), InvalidTimestamps, "start is negative: -1"),
    (line(start=-0.5), InvalidTimestamps, "start is negative: -0.5"),
    (line(end=math.inf), InvalidTimestamps, "end is not finite: inf"),
    (line(start=HUGE), InvalidTimestamps, f"start is out of range: {HUGE}"),
    (line(end=HUGE), InvalidTimestamps, f"end is out of range: {HUGE}"),
    (line(start=0).replace('"start": 0', f'"start": {LONG}'), *LONG_FAILURE),
    (line(start=5.0, end=4.0), InvalidTimestamps, "end 4.0 before start 5.0"),
    (line(start=2, end=1), InvalidTimestamps, "end 1.0 before start 2.0"),
    (line(text=5), MalformedRecord, "text is not a string: 5"),
    (line(text=None), MalformedRecord, "text is not a string: None"),
    (line(confidence="high"), MalformedRecord, "confidence is not a number: 'high'"),
    (line(confidence=[0.5]), MalformedRecord, "confidence is not a number: [0.5]"),
    (line(confidence=HUGE), MalformedRecord, f"confidence is out of range: {HUGE}"),
    (line(speaker="robot"), UnknownSpeakerLabel, "unknown speaker label: 'robot'"),
    (line(speaker=3), MalformedRecord, "speaker is not a string: 3"),
    # the first failing check wins
    (line(start="soon", speaker="robot"), MalformedRecord, "start is not a number: 'soon'"),
    (line(text=5, confidence="high"), MalformedRecord, "text is not a string: 5"),
    (line(confidence="high", speaker="robot"), MalformedRecord,
     "confidence is not a number: 'high'"),
]


@pytest.mark.parametrize("bad, kind, message", MACHINE_FAILURES)
def test_machine_line_failure(tmp_path, bad, kind, message):
    path = machine_file(tmp_path, [line(), "", bad])
    with pytest.raises(ParseError) as excinfo:
        parse_machine(path, META)
    error = excinfo.value
    assert type(error) is kind
    assert str(error) == f"{path}:3: {message}"
    assert (error.path, error.line) == (str(path), 3)


def test_machine_byte_order_mark(tmp_path):
    path = machine_file(tmp_path, [line()], prefix="﻿")
    with pytest.raises(MalformedRecord) as excinfo:
        parse_machine(path, META)
    assert str(excinfo.value) == (
        f"{path}:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


@pytest.mark.parametrize(
    "start, onset",
    [("1.5", 1.5), (True, 1.0), (1, 1.0), (-0.0, -0.0), (0, 0.0), (" 2 ", 2.0)],
)
def test_machine_start_accepted(tmp_path, start, onset):
    utterance = parse_machine(machine_file(tmp_path, [line(start=start, end=3)]), META)
    (read,) = utterance.utterances
    assert type(read.onset) is float and read.onset == onset
    assert math.copysign(1.0, read.onset) == math.copysign(1.0, onset)
    assert type(read.offset) is float and read.offset == 3.0


@pytest.mark.parametrize("confidence, read", [(0.5, 0.5), (1, 1.0), ("0.25", 0.25), (None, None)])
def test_machine_confidence_accepted(tmp_path, confidence, read):
    (utterance,) = parse_machine(
        machine_file(tmp_path, [line(confidence=confidence)]), META
    ).utterances
    assert utterance.confidence == read and type(utterance.confidence) is type(read)


@pytest.mark.parametrize("label", [" Teacher ", "TEACHER", "teacher", "Teacher\t"])
def test_machine_label_accepted(tmp_path, label):
    (utterance,) = parse_machine(machine_file(tmp_path, [line(speaker=label)]), META).utterances
    assert utterance.role is SpeakerRole.TEACHER


HEADER = "start\tend\tspeaker\ttext"


def expert_file(tmp_path, rows, header=HEADER):
    path = tmp_path / "rec.expert.tsv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


EXPERT_FAILURES = [
    ("0\t1\tteacher", MalformedRecord, "expected at least 4 cells, got 3"),
    ("soon\t1\tteacher\thi", MalformedRecord, "start is not a number: 'soon'"),
    ("\t1\tteacher\thi", MalformedRecord, "start is not a number: ''"),
    ("0\tlater\tteacher\thi", MalformedRecord, "end is not a number: 'later'"),
    ("nan\t1\tteacher\thi", InvalidTimestamps, "start is not finite: 'nan'"),
    ("0\tinf\tteacher\thi", InvalidTimestamps, "end is not finite: 'inf'"),
    ("-1\t1\tteacher\thi", InvalidTimestamps, "start is negative: '-1'"),
    ("5\t4\tteacher\thi", InvalidTimestamps, "end 4.0 before start 5.0"),
    ("0\t1\trobot\thi", UnknownSpeakerLabel, "unknown speaker label: 'robot'"),
    ("0\t1\t\thi", UnknownSpeakerLabel, "unknown speaker label: ''"),
    ("5\t4\trobot\thi", InvalidTimestamps, "end 4.0 before start 5.0"),
]


@pytest.mark.parametrize("bad, kind, message", EXPERT_FAILURES)
def test_expert_row_failure(tmp_path, bad, kind, message):
    path = expert_file(tmp_path, ["0\t1\tchild\tok", "", bad])
    with pytest.raises(ParseError) as excinfo:
        parse_expert(path, META)
    error = excinfo.value
    assert type(error) is kind
    assert str(error) == f"{path}:4: {message}"
    assert (error.path, error.line) == (str(path), 4)


@pytest.mark.parametrize(
    "header, message",
    [("", "empty file, expected a header row"),
     ("start\tend\tspeaker", "header is missing columns: text"),
     ("begin\tend\twho\ttext", "header is missing columns: start, speaker")],
)
def test_expert_header_failure(tmp_path, header, message):
    path = tmp_path / "rec.expert.tsv"
    path.write_text(header + ("\n" if header else ""), encoding="utf-8")
    with pytest.raises(MissingHeader) as excinfo:
        parse_expert(path, META)
    assert type(excinfo.value) is MissingHeader
    assert str(excinfo.value) == f"{path}:1: {message}"


def test_expert_accepted_values(tmp_path):
    path = expert_file(
        tmp_path,
        [" 1.5 \t2\t Teacher \thi", "-0.0\t0\tCHILD\tyo", "3\t4\tother\tthere\textra"],
    )
    first, second, third = parse_expert(path, META).utterances
    assert (first.onset, first.offset) == (-0.0, 0.0)
    assert math.copysign(1.0, first.onset) == -1.0 and first.role is SpeakerRole.CHILD
    assert (second.onset, second.role, second.raw_text) == (1.5, SpeakerRole.TEACHER, "hi")
    assert (third.raw_text, third.role) == ("there", SpeakerRole.OTHER)


def test_expert_short_row_reads_missing_cells_as_empty(tmp_path):
    path = expert_file(
        tmp_path, ["0\t1\tchild\thi"], header="start\tend\tspeaker\ttext\tmachine_id"
    )
    transcript = parse_expert(path, META)
    assert transcript.utterances[0].linked_id is None and not transcript.linked

