"""Language features for one transcript and speaker role.

The battery covers utterance and question counts, mean length of utterance
(MLU, words per utterance), speaking rate, question/non-question response
behavior, and lexical diversity. A response is an utterance by a different
speaker starting within 2.5 s of the target's offset; responses that start
before the target finishes count, since overlapping turns are routine in
classrooms.

Counts and means consider only utterances that still contain words after
text normalization; a segment that normalizes to nothing is a detection,
not speech. Response links, however, are computed over all utterances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .codec import Codec
from .errors import TalkmetricsError
from .transcript import SpeakerRole, Transcript, Utterance

DEFAULT_RESPONSE_WINDOW = 2.5
DEFAULT_LD_WINDOW = 60.0


class ZeroDuration(TalkmetricsError):
    """Per-minute rates need a positive recording duration."""


class InvalidCounts(TalkmetricsError):
    """A responded count cannot exceed its total."""


@dataclass(frozen=True)
class ResponseLink:
    """One detected response: who answered which utterance, how fast.

    Latency is response onset minus target offset; negative values mean the
    response started while the target was still speaking.
    """

    target_utt_id: str
    response_utt_id: str
    latency: float


def mlu(utterances: Iterable[Utterance]) -> float | None:
    """Mean words per utterance, over word-bearing utterances only.

    None when nothing qualifies.
    """
    total = 0
    count = 0
    for utt in utterances:
        if utt.word_count == 0:
            continue
        total += utt.word_count
        count += 1
    if count == 0:
        return None
    return total / count


def words_per_minute(transcript: Transcript, role: SpeakerRole) -> float:
    """Total words spoken by ``role`` divided by the recording length."""
    minutes = transcript.meta.duration_minutes
    if minutes <= 0:
        raise ZeroDuration(f"duration must be positive, got {minutes}")
    return transcript.word_count(role) / minutes


def detect_responses(
    transcript: Transcript, window: float = DEFAULT_RESPONSE_WINDOW
) -> tuple[ResponseLink, ...]:
    """Every (target, response) pair in the transcript.

    A link exists when the response has a different role, starts strictly
    after the target starts, and starts no later than ``window`` seconds
    after the target ends. One utterance may appear in many links on either
    side. Links come out ordered by target, then response.
    """
    utterances = transcript.utterances  # already onset-sorted
    n = len(utterances)
    links: list[ResponseLink] = []
    for t, target in enumerate(utterances):
        deadline = target.offset + window
        for v in range(t + 1, n):
            response = utterances[v]
            if response.onset > deadline:
                break
            if response.onset <= target.onset:
                continue
            if response.role is target.role:
                continue
            links.append(
                ResponseLink(
                    target_utt_id=target.id,
                    response_utt_id=response.id,
                    latency=response.onset - target.offset,
                )
            )
    return tuple(links)


def response_proportion(responded: int, total: int) -> float | None:
    """Share of targets that drew at least one response.

    None when there were no targets at all.
    """
    if responded > total:
        raise InvalidCounts(f"responded {responded} exceeds total {total}")
    if responded < 0 or total < 0:
        raise InvalidCounts("counts must be non-negative")
    if total == 0:
        return None
    return responded / total


def _window_types(
    transcript: Transcript, role: SpeakerRole, window: float
) -> list[set[str]]:
    """Distinct normalized word types per onset-bucketed time window.

    The partition covers [0, duration); an utterance starting past the
    recorded duration extends it.
    """
    duration = transcript.meta.duration_seconds
    n_windows = max(math.ceil(duration / window), 1)
    buckets: list[set[str]] = [set() for _ in range(n_windows)]
    for utt in transcript.by_role(role):
        slot = int(utt.onset // window)
        while slot >= len(buckets):
            buckets.append(set())
        buckets[slot].update(utt.tokens)
    return buckets


def lexical_diversity_per_minute(
    transcript: Transcript, role: SpeakerRole, window: float = DEFAULT_LD_WINDOW
) -> float:
    """Mean count of distinct word types per time window for ``role``.

    Windows are fixed-width buckets on utterance onset; silent windows
    count as zero, so quiet speakers score low even when their busy minutes
    are rich.
    """
    if transcript.meta.duration_seconds <= 0:
        raise ZeroDuration("duration must be positive")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    buckets = _window_types(transcript, role, window)
    return sum(len(bucket) for bucket in buckets) / len(buckets)


def lexical_diversity_pooled(transcript: Transcript, role: SpeakerRole) -> float:
    """Distinct word types over the whole recording, per minute."""
    minutes = transcript.meta.duration_minutes
    if minutes <= 0:
        raise ZeroDuration("duration must be positive")
    types: set[str] = set()
    for utt in transcript.by_role(role):
        types.update(utt.tokens)
    return len(types) / minutes


@dataclass(frozen=True)
class FeatureSummary(Codec):
    """The language-feature battery for one (recording, role, source).

    Counts cover word-bearing utterances only; every proportion is None
    when its denominator is zero; mlu_overall times n_utterances recovers
    the exact total word count.
    """

    recording_id: str
    source: str
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
    links: Sequence[ResponseLink] | None = None,
    response_window: float = DEFAULT_RESPONSE_WINDOW,
    ld_window: float = DEFAULT_LD_WINDOW,
) -> FeatureSummary:
    """Fill the whole feature battery for one role.

    ``links`` lets callers share one detect_responses pass across both
    roles; left as None, they are computed here.
    """
    if links is None:
        links = detect_responses(transcript, response_window)
    spoken = [utt for utt in transcript.by_role(role) if utt.word_count > 0]
    questions = [utt for utt in spoken if utt.question]
    non_questions = [utt for utt in spoken if not utt.question]
    responded_ids = {link.target_utt_id for link in links}
    responder_ids = {link.response_utt_id for link in links}
    n_questions = len(questions)
    n_non_questions = len(non_questions)
    n_responded_questions = sum(1 for utt in questions if utt.id in responded_ids)
    n_responded_non_questions = sum(1 for utt in non_questions if utt.id in responded_ids)
    return FeatureSummary(
        recording_id=transcript.meta.recording_id,
        source=transcript.source.value,
        role=role,
        n_utterances=len(spoken),
        n_questions=n_questions,
        n_non_questions=n_non_questions,
        mlu_overall=mlu(spoken),
        mlu_question=mlu(questions),
        mlu_non_question=mlu(non_questions),
        words_per_minute=words_per_minute(transcript, role),
        n_responded_questions=n_responded_questions,
        n_responded_non_questions=n_responded_non_questions,
        prop_responded_questions=response_proportion(n_responded_questions, n_questions),
        prop_responded_non_questions=response_proportion(
            n_responded_non_questions, n_non_questions
        ),
        pct_questions=response_proportion(n_questions, len(spoken)),
        n_responses_given=sum(1 for utt in spoken if utt.id in responder_ids),
        lexical_diversity_per_minute=lexical_diversity_per_minute(transcript, role, ld_window),
        lexical_diversity_pooled=lexical_diversity_pooled(transcript, role),
    )


ICC_FEATURES = (
    "questions_per_minute",
    "non_questions_per_minute",
    "responses_per_minute",
    "response_proportion",
    "mlu_overall",
    "mlu_question",
    "mlu_non_question",
    "words_per_minute",
    "pct_questions",
    "lexical_diversity_per_minute",
    "lexical_diversity_pooled",
)


def icc_feature_values(
    summary: FeatureSummary, duration_minutes: float
) -> dict[str, float | None]:
    """Per-recording feature vector for the between-rater ICC grid.

    Counts become rates per minute so recordings of different lengths
    compare; proportions and MLUs pass through.
    """
    if duration_minutes <= 0:
        raise ZeroDuration(f"duration must be positive, got {duration_minutes}")
    n_responded = summary.n_responded_questions + summary.n_responded_non_questions
    return {
        "questions_per_minute": summary.n_questions / duration_minutes,
        "non_questions_per_minute": summary.n_non_questions / duration_minutes,
        "responses_per_minute": summary.n_responses_given / duration_minutes,
        "response_proportion": response_proportion(n_responded, summary.n_utterances),
        "mlu_overall": summary.mlu_overall,
        "mlu_question": summary.mlu_question,
        "mlu_non_question": summary.mlu_non_question,
        "words_per_minute": summary.words_per_minute,
        "pct_questions": summary.pct_questions,
        "lexical_diversity_per_minute": summary.lexical_diversity_per_minute,
        "lexical_diversity_pooled": summary.lexical_diversity_pooled,
    }
