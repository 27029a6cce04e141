"""A transcript read from a file (columns only) and one built from
``Utterance`` objects give the same utterances, word counts,
responses and feature rows; the feature rows also equal those of the
object-based ``summarize`` kept here as the reference."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
import talkmetrics.transcript as transcript_module
from talkmetrics.batch import RunConfig, discover, run_pipeline
from talkmetrics.cli import EXIT_OK, main
from talkmetrics.features import (
    FeatureSummary,
    ResponseLink,
    detect_responses,
    response_proportion,
    summarize,
)
from talkmetrics.ingest import parse_expert, parse_machine
from talkmetrics.transcript import Source, SpeakerRole, Transcript, Utterance, is_question

TEXTS = (
    "How is the weather?",
    "it's sunny",
    "[noise]",
    "",
    "Why?",
    "well-known café, ok",
    "Straße İstanbul?",
    "one two three four five",
    # the only '?' sits in an annotation: a question with words, and one without
    "okay [what?]",
    "?",
)
ROLES = ("teacher", "child", "other")

# Few distinct times, so (onset, offset) ties are common; ids "9" and "10"
# (and "e9", "e10") sort as strings, so a tie puts "10" first.
row = st.tuples(
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 9.0)),
    st.sampled_from((0.0, 0.5, 1.0, 3.0)),
    st.sampled_from(TEXTS),
    st.sampled_from(ROLES),
    st.sampled_from((None, "1", "7")),
)
rows_strategy = st.lists(row, max_size=24)
parameters = st.tuples(
    st.sampled_from((0.05, 0.2, 1.0)),  # duration in minutes: short ones put onsets past it
    st.sampled_from((0.5, 2.5)),  # response window
    st.sampled_from((1.0, 7.5, 60.0)),  # lexical-diversity window
)


def reference_detect_responses(transcript, window):
    utterances = transcript.utterances
    links = []
    for t, target in enumerate(utterances):
        for response in utterances[t + 1:]:
            if response.onset > target.offset + window:
                break
            if response.onset <= target.onset or response.role is target.role:
                continue
            links.append(ResponseLink(target.id, response.id, response.onset - target.offset))
    return tuple(links)


def reference_mlu(utterances):
    counts = [utt.word_count for utt in utterances if utt.word_count]
    return sum(counts) / len(counts) if counts else None


def reference_summarize(transcript, role, links, ld_window):
    """``summarize`` as it was over ``Utterance`` objects, filtering the
    role's utterances once per feature."""
    minutes = transcript.meta.duration_minutes
    mine = [utt for utt in transcript.utterances if utt.role is role]
    spoken = [utt for utt in mine if utt.word_count > 0]
    questions = [utt for utt in spoken if is_question(utt.raw_text)]
    non_questions = [utt for utt in spoken if not is_question(utt.raw_text)]
    responded_ids = {link.target_utt_id for link in links}
    responder_ids = {link.response_utt_id for link in links}
    n_responded_questions = sum(1 for utt in questions if utt.id in responded_ids)
    n_responded_non_questions = sum(1 for utt in non_questions if utt.id in responded_ids)
    buckets = [set() for _ in range(max(math.ceil(minutes * 60.0 / ld_window), 1))]
    for utt in mine:
        slot = int(utt.onset // ld_window)
        while slot >= len(buckets):
            buckets.append(set())
        buckets[slot].update(utt.tokens)
    types = set()
    for utt in mine:
        types.update(utt.tokens)
    return FeatureSummary(
        recording_id=transcript.meta.recording_id,
        source=transcript.source,
        role=role,
        n_utterances=len(spoken),
        n_questions=len(questions),
        n_non_questions=len(non_questions),
        mlu_overall=reference_mlu(spoken),
        mlu_question=reference_mlu(questions),
        mlu_non_question=reference_mlu(non_questions),
        words_per_minute=sum(utt.word_count for utt in mine) / minutes,
        n_responded_questions=n_responded_questions,
        n_responded_non_questions=n_responded_non_questions,
        prop_responded_questions=response_proportion(n_responded_questions, len(questions)),
        prop_responded_non_questions=response_proportion(
            n_responded_non_questions, len(non_questions)
        ),
        pct_questions=response_proportion(len(questions), len(spoken)),
        n_responses_given=sum(1 for utt in spoken if utt.id in responder_ids),
        lexical_diversity_per_minute=sum(len(b) for b in buckets) / len(buckets),
        lexical_diversity_pooled=len(types) / minutes,
    )


def write_machine(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for onset, length, text, role, _ in rows:
            record = {"start": onset, "end": onset + length, "text": text, "speaker": role}
            handle.write(json.dumps(record) + "\n")


def write_expert(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("start\tend\tspeaker\ttext\tmachine_id\n")
        for onset, length, text, role, link in rows:
            handle.write(f"{onset!r}\t{onset + length!r}\t{role}\t{text}\t{link or ''}\n")


def object_route(rows, source):
    """The same rows as ``Utterance`` objects, in file order."""
    prefix = "e" if source is Source.EXPERT else ""
    return [
        Utterance(
            id=f"{prefix}{i}",
            onset=onset,
            offset=onset + length,
            raw_text=text,
            role=SpeakerRole(role),
            source=source,
            linked_id=link if source is Source.EXPERT else None,
        )
        for i, (onset, length, text, role, link) in enumerate(rows, 1)
    ]


def assert_same(parsed, built, response_window, ld_window):
    assert parsed == built
    assert parsed.columns == built.columns
    assert parsed.utterances == built.utterances
    for role in SpeakerRole:
        assert syn.word_count(parsed, role) == syn.word_count(built, role)
    assert syn.word_count(parsed) == syn.word_count(built) == sum(
        u.word_count for u in built.utterances
    )
    links = detect_responses(parsed, response_window)
    assert links == detect_responses(built, response_window)
    assert links == reference_detect_responses(built, response_window)
    for role in SpeakerRole:
        summary = summarize(parsed, role, links, ld_window=ld_window)
        assert summary == summarize(built, role, links, ld_window=ld_window)
        assert summary == reference_summarize(built, role, links, ld_window)


@settings(max_examples=80, deadline=None)
@given(rows_strategy, parameters)
def test_machine_file_and_objects_agree(tmp_path_factory, rows, params):
    minutes, response_window, ld_window = params
    meta = syn.make_meta(duration_minutes=minutes)
    path = tmp_path_factory.mktemp("columns") / "rec.machine.jsonl"
    write_machine(path, rows)
    parsed = parse_machine(path, meta)
    # a fresh parse whose objects are built only after the features
    fresh = parse_machine(path, meta)
    links = detect_responses(fresh, response_window)
    summaries = [summarize(fresh, role, links, ld_window=ld_window) for role in SpeakerRole]
    built = Transcript.from_utterances(meta, object_route(rows, Source.MACHINE))
    assert_same(parsed, built, response_window, ld_window)
    assert summaries == [
        summarize(built, role, links, ld_window=ld_window) for role in SpeakerRole
    ]


@settings(max_examples=80, deadline=None)
@given(rows_strategy, parameters)
def test_expert_file_and_objects_agree(tmp_path_factory, rows, params):
    minutes, response_window, ld_window = params
    meta = syn.make_meta(duration_minutes=minutes)
    path = tmp_path_factory.mktemp("columns") / "rec.expert.tsv"
    write_expert(path, rows)
    parsed = parse_expert(path, meta)
    utterances = object_route(rows, Source.EXPERT)
    linked = bool(rows) and sum(u.linked_id is not None for u in utterances) / len(rows) >= 0.9
    built = Transcript.from_utterances(meta, utterances, linked=linked, source=Source.EXPERT)
    assert_same(parsed, built, response_window, ld_window)


def test_string_order_of_tied_ids(tmp_path):
    rows = [(1.0, 1.0, "hi", "teacher", None)] * 10
    path = tmp_path / "rec.machine.jsonl"
    write_machine(path, rows)
    transcript = parse_machine(path, syn.make_meta())
    utterances = transcript.utterances
    assert [u.id for u in utterances] == ["1", "10", *"23456789"]
    # built objects share the columns' token tuples rather than copying them
    assert all(u.tokens is t for u, t in zip(utterances, transcript.columns.tokens))


def test_index_route_builds_no_utterance(tmp_path, monkeypatch, capsys):
    """Parsing, features, index alignment, reliability and validation read
    the columns: with ``Utterance`` building broken, a linked corpus still
    runs clean through ``run_pipeline`` and the ``features`` and
    ``ingest-check`` verbs."""
    root = tmp_path / "corpus"
    syn.write_weather_recording(root, "weather")
    syn.write_weather_recording(root, "weather2")

    def forbidden(row, source):
        raise AssertionError("an Utterance was built")

    monkeypatch.setattr(transcript_module, "_utterance", forbidden)
    result = run_pipeline(discover(root_dir=root), RunConfig())
    assert result.errors == ()
    assert [row.recording_id for row in result.reliability.rows] == ["weather", "weather2"]
    assert main(["features", "--root", str(root), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert main(["ingest-check", "--root", str(root)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
