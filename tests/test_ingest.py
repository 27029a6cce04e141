"""File parsing, metadata and validation warnings."""

import json
import re

import pytest

import synthetic as syn
from talkmetrics.ingest import (
    InvalidTimestamps,
    MalformedRecord,
    MetaError,
    MissingHeader,
    UnknownSpeakerLabel,
    load_meta,
    parse_expert,
    parse_machine,
    validate,
)
from talkmetrics.transcript import MAX_DURATION_MINUTES, MIN_DURATION_MINUTES, SpeakerRole

META = syn.make_meta()


def machine_file(tmp_path, lines):
    path = tmp_path / "rec.machine.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def expert_file(tmp_path, rows, header="start\tend\tspeaker\ttext"):
    path = tmp_path / "rec.expert.tsv"
    body = [header] + ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


def record(start=0.0, end=1.0, text="hello", speaker="teacher", **extra):
    return json.dumps({"start": start, "end": end, "text": text, "speaker": speaker, **extra})


class TestParseMachine:
    def test_happy_path(self, tmp_path):
        path = machine_file(
            tmp_path,
            [
                record(0.0, 1.5, "How is the weather?", "teacher", confidence=0.92),
                record(2.0, 2.8, "Sunny.", "child"),
            ],
        )
        transcript = parse_machine(path, META)
        assert [u.id for u in transcript.utterances] == ["1", "2"]
        first = transcript.utterances[0]
        assert first.onset == 0.0 and first.offset == 1.5
        assert first.role is SpeakerRole.TEACHER
        assert first.confidence == 0.92
        assert transcript.utterances[1].confidence is None
        assert not transcript.linked

    def test_ids_are_line_numbers_even_past_blank_lines(self, tmp_path):
        path = machine_file(tmp_path, [record(0, 1), "", record(2, 3)])
        transcript = parse_machine(path, META)
        assert [u.id for u in transcript.utterances] == ["1", "3"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = machine_file(tmp_path, [record(), "{not json"])
        with pytest.raises(MalformedRecord) as excinfo:
            parse_machine(path, META)
        assert excinfo.value.line == 2

    def test_non_object_line(self, tmp_path):
        path = machine_file(tmp_path, ["[1, 2, 3]"])
        with pytest.raises(MalformedRecord):
            parse_machine(path, META)

    def test_missing_key(self, tmp_path):
        path = machine_file(tmp_path, ['{"start": 0, "end": 1, "text": "hi"}'])
        with pytest.raises(MalformedRecord) as excinfo:
            parse_machine(path, META)
        assert "speaker" in str(excinfo.value)

    def test_non_numeric_time(self, tmp_path):
        path = machine_file(tmp_path, [record(start="soon")])
        with pytest.raises(MalformedRecord):
            parse_machine(path, META)

    def test_negative_time(self, tmp_path):
        path = machine_file(tmp_path, [record(start=-0.5)])
        with pytest.raises(InvalidTimestamps):
            parse_machine(path, META)

    def test_non_finite_time(self, tmp_path):
        path = machine_file(tmp_path, [record(end="NaN")])
        with pytest.raises(InvalidTimestamps):
            parse_machine(path, META)

    def test_end_before_start(self, tmp_path):
        path = machine_file(tmp_path, [record(start=5.0, end=4.0)])
        with pytest.raises(InvalidTimestamps) as excinfo:
            parse_machine(path, META)
        assert excinfo.value.line == 1

    def test_unknown_speaker(self, tmp_path):
        path = machine_file(tmp_path, [record(speaker="narrator")])
        with pytest.raises(UnknownSpeakerLabel):
            parse_machine(path, META)

    def test_bad_confidence(self, tmp_path):
        path = machine_file(tmp_path, [record(confidence="high")])
        with pytest.raises(MalformedRecord):
            parse_machine(path, META)

    def test_empty_file_gives_empty_transcript(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_machine(path, META).utterances == ()


class TestParseExpert:
    def test_happy_path(self, tmp_path):
        path = expert_file(
            tmp_path,
            [(0.0, 1.5, "teacher", "How is the weather?"), (2.0, 2.8, "child", "Sunny")],
        )
        transcript = parse_expert(path, META)
        assert [u.id for u in transcript.utterances] == ["e1", "e2"]
        assert transcript.utterances[0].role is SpeakerRole.TEACHER
        assert not transcript.linked

    def test_header_column_order_is_free(self, tmp_path):
        path = expert_file(
            tmp_path,
            [("hello", "teacher", 0.0, 1.0)],
            header="text\tspeaker\tstart\tend",
        )
        transcript = parse_expert(path, META)
        assert transcript.utterances[0].raw_text == "hello"
        assert transcript.utterances[0].onset == 0.0

    def test_linked_at_threshold(self, tmp_path):
        rows = [(float(i), float(i) + 0.5, "teacher", "w", str(i + 1)) for i in range(9)]
        rows.append((9.0, 9.5, "teacher", "w", ""))
        path = expert_file(tmp_path, rows, header="start\tend\tspeaker\ttext\tmachine_id")
        transcript = parse_expert(path, META)
        assert transcript.linked  # 9 of 10 rows linked, exactly 90%
        assert transcript.utterances[0].linked_id == "1"
        assert transcript.utterances[9].linked_id is None

    def test_unlinked_below_threshold(self, tmp_path):
        rows = [(float(i), float(i) + 0.5, "teacher", "w", str(i + 1)) for i in range(8)]
        rows += [(8.0, 8.5, "teacher", "w", ""), (9.0, 9.5, "teacher", "w", "")]
        path = expert_file(tmp_path, rows, header="start\tend\tspeaker\ttext\tmachine_id")
        assert not parse_expert(path, META).linked  # 8 of 10 is under 90%

    def test_empty_file_missing_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MissingHeader):
            parse_expert(path, META)

    def test_header_missing_column(self, tmp_path):
        path = expert_file(tmp_path, [], header="start\tend\tspeaker")
        with pytest.raises(MissingHeader) as excinfo:
            parse_expert(path, META)
        assert "text" in str(excinfo.value)

    def test_short_row(self, tmp_path):
        path = expert_file(tmp_path, [(0.0, 1.0, "teacher")])
        with pytest.raises(MalformedRecord) as excinfo:
            parse_expert(path, META)
        assert excinfo.value.line == 2

    def test_bad_speaker_row_number(self, tmp_path):
        path = expert_file(
            tmp_path,
            [(0.0, 1.0, "teacher", "a"), (2.0, 3.0, "adult", "b")],
        )
        with pytest.raises(UnknownSpeakerLabel) as excinfo:
            parse_expert(path, META)
        assert excinfo.value.line == 3

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "rec.expert.tsv"
        path.write_bytes(
            "\ufeffstart\tend\tspeaker\ttext\n0\t1\tteacher\thello\n".encode("utf-8")
        )
        transcript = parse_expert(path, META)
        assert [u.raw_text for u in transcript.utterances] == ["hello"]
        assert transcript.utterances[0].onset == 0.0

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "rec.expert.tsv"
        path.write_text(
            "start\tend\tspeaker\ttext\n0\t1\tteacher\ta\n\n2\t3\tchild\tb\n",
            encoding="utf-8",
        )
        transcript = parse_expert(path, META)
        assert len(transcript.utterances) == 2


class TestMeta:
    def test_reads_every_field(self, tmp_path):
        path = syn.write_recording(tmp_path, "r7", [], wearer="child", duration_minutes=33.25)[2]
        assert load_meta(path) == syn.make_meta(
            recording_id="r7", wearer="child", duration_minutes=33.25
        )

    def test_missing_field(self, tmp_path):
        path = tmp_path / "rec.meta.json"
        path.write_text('{"recording_id": "r1"}', encoding="utf-8")
        with pytest.raises(MetaError):
            load_meta(path)

    def test_bad_wearer_role(self, tmp_path):
        with pytest.raises(MetaError):
            load_meta(syn.write_recording(tmp_path, "rec", [], wearer="robot")[2])

    def test_non_positive_duration(self, tmp_path):
        with pytest.raises(MetaError):
            load_meta(syn.write_recording(tmp_path, "rec", [], duration_minutes=0)[2])

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 1e307])
    def test_non_finite_duration(self, tmp_path, duration):
        # NaN and Infinity are not JSON; 1e307 minutes is finite, but not in seconds
        message = "invalid JSON: not a finite number: "
        if duration == 1e307:
            message = "duration must be positive and finite"
        with pytest.raises(MetaError, match=message):
            load_meta(syn.write_recording(tmp_path, "rec", [], duration_minutes=duration)[2])

    @pytest.mark.parametrize("duration", [1_000_000.0000001, 2.9e306])
    def test_duration_above_bound(self, tmp_path, duration):
        # finite in seconds, but 70 such recordings overflow a duration-weighted sum
        path = syn.write_recording(tmp_path, "rec", [], duration_minutes=duration)[2]
        with pytest.raises(MetaError) as excinfo:
            load_meta(path)
        assert str(excinfo.value) == (
            f"{path}: recording rec: duration must be at most 1,000,000 minutes, got {duration}"
        )

    @pytest.mark.parametrize("duration", [MAX_DURATION_MINUTES, MIN_DURATION_MINUTES])
    def test_duration_at_bound(self, tmp_path, duration):
        path = syn.write_recording(tmp_path, "rec", [], duration_minutes=duration)[2]
        assert load_meta(path).duration_minutes == duration

    @pytest.mark.parametrize("duration", [1e-320, 5e-324, 0.016666666666666664, 0.01])
    def test_duration_under_one_second(self, tmp_path, duration):
        # a per-minute rate over 1e-320 minutes is infinite
        path = syn.write_recording(tmp_path, "rec", [], duration_minutes=duration)[2]
        with pytest.raises(MetaError) as excinfo:
            load_meta(path)
        assert str(excinfo.value) == (
            f"{path}: recording rec: duration must be at least one second"
            f" (0.016666666666666666 minutes), got {duration}"
        )

    @pytest.mark.parametrize("key", ["recording_id", "classroom_id", "academic_year"])
    @pytest.mark.parametrize("value", [None, 2023, ["a"], {"a": [1]}, True])
    def test_text_field_must_be_a_string(self, tmp_path, key, value):
        # never str()'d: a null classroom must not load as classroom 'None'
        path = syn.write_recording(tmp_path, "rec", [])[2]
        data = json.loads(path.read_text(encoding="utf-8"))
        data[key] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MetaError, match=re.escape(f"{key} must be a string: {value!r}")):
            load_meta(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "rec.meta.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(MetaError):
            load_meta(path)

    def test_duration_past_float_range(self, tmp_path):
        path = syn.write_recording(tmp_path, "rec", [], duration_minutes=10**400)[2]
        with pytest.raises(MetaError) as excinfo:
            load_meta(path)
        assert str(excinfo.value) == f"{path}: duration_minutes is out of range: {10**400}"

    def test_integer_literal_past_digit_limit(self, tmp_path):
        path = syn.write_recording(tmp_path, "rec", [], duration_minutes=12345)[2]
        path.write_text(path.read_text().replace("12345", "1" * 5000), encoding="utf-8")
        with pytest.raises(MetaError, match=f"^{re.escape(str(path))}: "):
            load_meta(path)


class TestValidate:
    def test_clean_transcript(self, weather_machine):
        assert validate(weather_machine) == []

    def test_same_role_overlap(self):
        transcript = syn.transcript(
            [syn.utt(1, 0.0, 5.0, "a", "teacher"), syn.utt(2, 3.0, 6.0, "b", "teacher")]
        )
        findings = validate(transcript)
        assert [f.code for f in findings] == ["overlap"]
        assert findings[0].utterance_id == "2"

    def test_cross_role_overlap_allowed(self):
        transcript = syn.transcript(
            [syn.utt(1, 0.0, 5.0, "a", "teacher"), syn.utt(2, 3.0, 6.0, "b", "child")]
        )
        assert validate(transcript) == []

    def test_past_duration(self):
        meta = syn.make_meta(duration_minutes=1.0)
        transcript = syn.transcript([syn.utt(1, 59.0, 61.5, "a")], meta)
        findings = validate(transcript)
        assert [f.code for f in findings] == ["past_duration"]

    def test_one_second_grace(self):
        meta = syn.make_meta(duration_minutes=1.0)
        transcript = syn.transcript([syn.utt(1, 59.0, 60.9, "a")], meta)
        assert validate(transcript) == []

    def test_zero_words(self):
        transcript = syn.transcript([syn.utt(1, 0.0, 1.0, "[laughs]")])
        findings = validate(transcript)
        assert [f.code for f in findings] == ["zero_words"]

    def test_findings_in_utterance_order(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 0.0, 5.0, "[hum]", "child"),
                syn.utt(2, 2.0, 6.0, "b", "child"),
            ]
        )
        codes = [f.code for f in validate(transcript)]
        assert codes == ["zero_words", "overlap"]


class TestRoundTrips:
    def test_awkward_floats_survive(self, tmp_path):
        onset = 0.1 + 0.2  # not exactly representable as a short decimal
        path = tmp_path / "out.expert.tsv"
        path.write_text(
            f"start\tend\tspeaker\ttext\n{onset!r}\t{onset + 1.7!r}\tteacher\tx\n",
            encoding="utf-8",
        )
        parsed = parse_expert(path, META)
        assert parsed.utterances[0].onset == onset
        assert parsed.utterances[0].offset == onset + 1.7
