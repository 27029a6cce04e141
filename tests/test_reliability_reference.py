"""``recording_reliability`` reads the aligned corpus's index pairs and
columns; on Hypothesis-drawn recordings, through both alignment routes and
with wearer matching on and off, it equals the object-based reference kept
here: the same floats, confusion counts and residue counts."""

from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.align import AlignConfig, AlignedCorpus, align_by_index, align_by_time
from talkmetrics.reliability import (
    ConfusionMatrix,
    MetricSet,
    RecordingReliability,
    accuracy,
    cohen_kappa,
    recording_reliability,
    utterance_wer,
    weighted_f1,
)
from talkmetrics.transcript import SpeakerRole, Transcript

TEXTS = (
    "How is the weather?",
    "how is it",
    "the weather is sunny",
    "[noise]",
    "",
    "one two three",
    "three two one two",
    "Why?",
)
ROLES = ("teacher", "child", "other")


def reference_wer_units(corpus: AlignedCorpus, role: SpeakerRole, wearer_match: bool):
    """``wer_units`` over utterance objects: pairs, then expert residue,
    then machine residue."""
    if wearer_match and corpus.machine.meta.wearer_role is not role:
        return 0.0, 0
    total = 0.0
    count = 0
    for pair in corpus.pairs:
        if pair.expert_utt.role is role:
            total += utterance_wer(pair.machine_utt, pair.expert_utt)
            count += 1
    for utt in corpus.expert_only:
        if utt.role is role:
            total += 1.0
            count += 1
    for utt in corpus.machine_only:
        if utt.role is role:
            total += 1.0
            count += 1
    return total, count


def reference_cross_classify(corpus: AlignedCorpus) -> ConfusionMatrix:
    """``cross_classify`` over utterance objects."""
    order = (SpeakerRole.TEACHER, SpeakerRole.CHILD)
    cells = [[0, 0], [0, 0]]
    excluded = 0
    for pair in corpus.pairs:
        expert_role = pair.expert_utt.role
        machine_role = pair.machine_utt.role
        if expert_role not in order or machine_role not in order:
            excluded += 1
            continue
        cells[order.index(expert_role)][order.index(machine_role)] += 1
    return ConfusionMatrix(
        counts=((cells[0][0], cells[0][1]), (cells[1][0], cells[1][1])),
        excluded_other=excluded,
        residue_machine=len(corpus.machine_only),
        residue_expert=len(corpus.expert_only),
    )


def reference_row(corpus: AlignedCorpus, wearer_match: bool) -> RecordingReliability:
    confusion = reference_cross_classify(corpus)
    teacher = reference_wer_units(corpus, SpeakerRole.TEACHER, wearer_match)
    child = reference_wer_units(corpus, SpeakerRole.CHILD, wearer_match)
    meta = corpus.machine.meta
    return RecordingReliability(
        recording_id=meta.recording_id,
        classroom_id=meta.classroom_id,
        academic_year=meta.academic_year,
        wearer_role=meta.wearer_role,
        duration_minutes=meta.duration_minutes,
        confusion=confusion,
        metrics=MetricSet(
            f1_weighted=weighted_f1(confusion),
            accuracy=accuracy(confusion),
            kappa=cohen_kappa(confusion),
            wer_teacher=teacher[0] / teacher[1] if teacher[1] else None,
            wer_child=child[0] / child[1] if child[1] else None,
        ),
        wer_sum_teacher=teacher[0],
        wer_count_teacher=teacher[1],
        wer_sum_child=child[0],
        wer_count_child=child[1],
    )


# (onset, length, text, role); few distinct times, so ties and overlaps are common
rows = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5, 6.0)),
        st.sampled_from((0.0, 0.5, 1.5, 3.0)),
        st.sampled_from(TEXTS),
        st.sampled_from(ROLES),
    ),
    max_size=14,
)


@st.composite
def recordings(draw) -> tuple[Transcript, Transcript]:
    """A machine transcript and a linked expert one whose links may repeat,
    dangle, cross or be missing."""
    meta = syn.make_meta(wearer=draw(st.sampled_from(("teacher", "child"))))
    machine_rows = draw(rows)
    expert_rows = draw(rows)
    ids = [str(i) for i in range(1, len(machine_rows) + 1)] + ["99"]
    links = draw(st.lists(st.sampled_from(ids) | st.none(), min_size=len(expert_rows),
                          max_size=len(expert_rows)))
    machine = syn.transcript(
        [syn.utt(i, onset, onset + length, text, role)
         for i, (onset, length, text, role) in enumerate(machine_rows, 1)],
        meta,
    )
    expert = syn.transcript(
        [syn.utt(f"e{i}", onset, onset + length, text, role, "expert", linked_id=link)
         for i, ((onset, length, text, role), link) in enumerate(zip(expert_rows, links), 1)],
        meta,
        linked=True,
    )
    return machine, expert


@settings(max_examples=150, deadline=None)
@given(recordings(), st.sampled_from((AlignConfig(), AlignConfig(similarity_weight=1.0))))
def test_reliability_equals_object_reference(recording, config):
    machine, expert = recording
    for corpus in (align_by_index(machine, expert), align_by_time(machine, expert, config)):
        for wearer_match in (True, False):
            assert recording_reliability(corpus, wearer_match) == reference_row(
                corpus, wearer_match
            )
