"""Language features for one transcript and speaker role.

The battery covers utterance and question counts, mean length of utterance
(MLU, words per utterance), speaking rate, question/non-question response
behavior, and lexical diversity. A response is an utterance by a different
speaker starting within 2.5 s of the target's offset; responses that start
before the target finishes count, since overlapping turns are routine in
classrooms.

Counts and means consider only utterances that still contain words after
text normalization; a segment that normalizes to nothing is a detection,
not speech. Response links, however, are computed over all utterances,
once per transcript by ``detect_responses``; ``summarize`` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

from .transcript import Source, SpeakerRole, Transcript, is_question

DEFAULT_RESPONSE_WINDOW = 2.5
DEFAULT_LD_WINDOW = 60.0
MIN_LD_WINDOW = 1.0  # seconds; any shorter, and a large onset's window index overflows


class ResponseLink(NamedTuple):
    """One detected response: who answered which utterance, how fast.

    Latency is response onset minus target offset; negative values mean the
    response started while the target was still speaking.
    """

    target_utt_id: str
    response_utt_id: str
    latency: float


def ratio(numerator: float, denominator: float) -> float | None:
    """``numerator / denominator``; None when there is nothing to divide by,
    the one rule for every value that can be undefined this way."""
    return numerator / denominator if denominator else None


def detect_responses(
    transcript: Transcript, window: float = DEFAULT_RESPONSE_WINDOW
) -> tuple[ResponseLink, ...]:
    """Every (target, response) pair in the transcript.

    A link exists when the response has a different role, starts strictly
    after the target starts, and starts no later than ``window`` seconds
    after the target ends. One utterance may appear in many links on either
    side. Links come out ordered by target, then response.
    """
    columns = transcript.columns  # onset-sorted
    ids, onsets, offsets, roles = columns.id, columns.onset, columns.offset, columns.role
    n = len(ids)
    links: list[ResponseLink] = []
    for t, (target_id, onset, offset, role) in enumerate(zip(ids, onsets, offsets, roles)):
        deadline = offset + window
        for v in range(t + 1, n):
            response_onset = onsets[v]
            if response_onset > deadline:
                break
            if response_onset > onset and roles[v] is not role:
                links.append(ResponseLink(target_id, ids[v], response_onset - offset))
    return tuple(links)


def response_proportion(responded: int, total: int) -> float | None:
    """Share of targets that drew at least one response; None when there
    were no targets at all."""
    return ratio(responded, total)


@dataclass(frozen=True)
class FeatureSummary:
    """The language-feature battery for one (recording, role, source).

    Counts cover word-bearing utterances only; every proportion is None
    when its denominator is zero; mlu_overall times n_utterances, once
    rounded, is the exact total word count.
    """

    recording_id: str
    source: Source
    role: SpeakerRole
    n_utterances: int
    n_questions: int
    n_non_questions: int
    mlu_overall: float | None
    mlu_question: float | None
    mlu_non_question: float | None
    words_per_minute: float
    n_responded_questions: int
    n_responded_non_questions: int
    prop_responded_questions: float | None
    prop_responded_non_questions: float | None
    pct_questions: float | None
    n_responses_given: int
    lexical_diversity_per_minute: float
    lexical_diversity_pooled: float


FEATURE_COLUMNS = tuple(f.name for f in fields(FeatureSummary))


def summarize(
    transcript: Transcript,
    role: SpeakerRole,
    links: Sequence[ResponseLink],
    ld_window: float = DEFAULT_LD_WINDOW,
) -> FeatureSummary:
    """Fill the whole feature battery for one role, in one pass over the
    transcript's columns.

    ``links`` are the transcript's response links, as ``detect_responses``
    finds them; one pass serves both roles. Lexical diversity per minute is
    the mean count of distinct word types per ``ld_window`` seconds,
    bucketed on utterance onset; silent windows count as zero, so quiet
    speakers score low even when their busy minutes are rich. The pooled
    rate is the recording's distinct types per minute.
    """
    minutes = transcript.meta.duration_minutes
    if not ld_window >= MIN_LD_WINDOW:  # NaN included
        raise ValueError(f"ld_window must be at least {MIN_LD_WINDOW:g} second: {ld_window}")
    responded = {link.target_utt_id for link in links}
    responders = {link.response_utt_id for link in links}
    # the windows partition [0, duration), extended to the last window any of
    # the role's utterances starts in; only the non-empty ones are held
    windows: dict[int, set[str]] = {}
    last_slot = 0
    # the counts cover word-bearing utterances only
    n_questions = n_non_questions = question_words = non_question_words = 0
    n_responded_questions = n_responded_non_questions = n_responses_given = 0
    columns = transcript.columns
    for utt_id, onset, utt_role, tokens, raw_text in zip(
        columns.id, columns.onset, columns.role, columns.tokens, columns.raw_text
    ):
        if utt_role is not role:
            continue
        slot = last_slot = int(onset // ld_window)  # the columns are onset-sorted
        if not tokens:
            continue
        windows.setdefault(slot, set()).update(tokens)
        if is_question(raw_text):
            n_questions += 1
            question_words += len(tokens)
            n_responded_questions += utt_id in responded
        else:
            n_non_questions += 1
            non_question_words += len(tokens)
            n_responded_non_questions += utt_id in responded
        n_responses_given += utt_id in responders
    n_windows = max(math.ceil(transcript.meta.duration_seconds / ld_window), last_slot + 1)
    n_spoken = n_questions + n_non_questions
    n_words = question_words + non_question_words
    return FeatureSummary(
        recording_id=transcript.meta.recording_id,
        source=transcript.source,
        role=role,
        n_utterances=n_spoken,
        n_questions=n_questions,
        n_non_questions=n_non_questions,
        mlu_overall=ratio(n_words, n_spoken),
        mlu_question=ratio(question_words, n_questions),
        mlu_non_question=ratio(non_question_words, n_non_questions),
        words_per_minute=n_words / minutes,
        n_responded_questions=n_responded_questions,
        n_responded_non_questions=n_responded_non_questions,
        prop_responded_questions=response_proportion(n_responded_questions, n_questions),
        prop_responded_non_questions=response_proportion(
            n_responded_non_questions, n_non_questions
        ),
        pct_questions=response_proportion(n_questions, n_spoken),
        n_responses_given=n_responses_given,
        lexical_diversity_per_minute=sum(map(len, windows.values())) / n_windows,
        lexical_diversity_pooled=len(set().union(*windows.values())) / minutes,
    )


# The per-recording feature vector of the between-rater ICC grid: each
# feature's value from one summary and its recording's minutes, a
# ``RecordingMeta``'s, which are never under ``MIN_DURATION_MINUTES``. Counts
# become rates per minute so recordings of different lengths compare;
# proportions and MLUs pass through.
ICC_FEATURES: dict[str, Callable[[FeatureSummary, float], float | None]] = {
    "questions_per_minute": lambda s, minutes: s.n_questions / minutes,
    "non_questions_per_minute": lambda s, minutes: s.n_non_questions / minutes,
    "responses_per_minute": lambda s, minutes: s.n_responses_given / minutes,
    "response_proportion": lambda s, minutes: response_proportion(
        s.n_responded_questions + s.n_responded_non_questions, s.n_utterances
    ),
    "mlu_overall": lambda s, minutes: s.mlu_overall,
    "mlu_question": lambda s, minutes: s.mlu_question,
    "mlu_non_question": lambda s, minutes: s.mlu_non_question,
    "words_per_minute": lambda s, minutes: s.words_per_minute,
    "pct_questions": lambda s, minutes: s.pct_questions,
    "lexical_diversity_per_minute": lambda s, minutes: s.lexical_diversity_per_minute,
    "lexical_diversity_pooled": lambda s, minutes: s.lexical_diversity_pooled,
}
