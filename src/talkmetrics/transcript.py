"""Core domain types and text handling for classroom speech transcripts.

Everything downstream (parsing, alignment, features, reliability) works on
the types defined here. Text handling is deliberately small and fixed so
word counts are reproducible:

* ``normalize`` lower-cases, strips annotation markers and punctuation
  (keeping apostrophes inside words, so contractions stay one word), joins
  hyphenated words, and collapses whitespace.
* ``tokenize`` splits normalized text on spaces; a word count is always
  ``len(tokenize(normalize(text)))``.
* ``is_question`` looks at the *raw* text, before normalization removes
  question marks. Any ``?`` anywhere in the utterance marks it a question.
* ``levenshtein`` is the word-level edit distance that alignment scores and
  word error rates share.

All types are immutable after construction and all functions are pure, so
values can be shared freely across threads and worker processes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence


class SpeakerRole(Enum):
    """Who produced an utterance. ``OTHER`` is preserved through ingestion
    but never counted in teacher/child features."""

    TEACHER = "teacher"
    CHILD = "child"
    OTHER = "other"

    @classmethod
    def from_label(cls, label: str) -> "SpeakerRole":
        """Map a file label to a role. Raises ValueError for anything outside
        the closed teacher/child/other set (callers decide how to report it)."""
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise ValueError(f"unknown speaker label: {label!r}") from None


class Source(Enum):
    """Provenance of a transcript: machine pipeline output or expert coding."""

    MACHINE = "machine"
    EXPERT = "expert"


# Markers like "[laughs]" or "<noise>" are annotations, not speech; they are
# stripped before any other normalization step. The list is configurable via
# the strip_patterns argument of normalize().
DEFAULT_STRIP_PATTERNS: tuple[str, ...] = (r"\[[^\]]*\]", r"<[^>]*>")

# Fast path: text that is already in normalized form (lowercase words of
# letters/digits with only internal apostrophes, single spaces, no edges)
# passes through normalize() unchanged, so skip the rewrite chain.
_NORMALIZED_ALREADY = re.compile(
    r"(?:[a-z0-9]+(?:'[a-z0-9]+)*)(?: [a-z0-9]+(?:'[a-z0-9]+)*)*\Z"
)
_CURLY_APOSTROPHES = re.compile(r"[‘’ʼ`´]")
_HYPHEN_JOIN = re.compile(r"(?<=\w)-(?=\w)")
_PUNCTUATION = re.compile(r"[^\w\s']")
_EDGE_APOSTROPHE = re.compile(r"(?<!\w)'|'(?!\w)")
_WHITESPACE = re.compile(r"\s+")


@lru_cache(maxsize=16)
def _compiled_strip_patterns(patterns: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    return tuple(re.compile(p) for p in patterns)


def normalize(raw_text: str, strip_patterns: Sequence[str] = DEFAULT_STRIP_PATTERNS) -> str:
    """Normalize raw utterance text for tokenization.

    Lower-cases, removes annotation markers and punctuation, keeps
    apostrophes internal to a word ("it's" stays one word), joins hyphenated
    words ("well-known" -> "wellknown"), keeps numerals verbatim, and
    collapses whitespace. Total function: any input string is accepted.
    """
    if strip_patterns is DEFAULT_STRIP_PATTERNS and _NORMALIZED_ALREADY.fullmatch(raw_text):
        return raw_text
    text = raw_text
    for pattern in _compiled_strip_patterns(tuple(strip_patterns)):
        text = pattern.sub(" ", text)
    text = text.lower()
    text = _CURLY_APOSTROPHES.sub("'", text)
    text = _HYPHEN_JOIN.sub("", text)
    text = _PUNCTUATION.sub(" ", text)
    text = _EDGE_APOSTROPHE.sub(" ", text)
    return _WHITESPACE.sub(" ", text).strip()


def tokenize(normalized_text: str) -> list[str]:
    """Split normalized text into word tokens; empty text yields no tokens."""
    return normalized_text.split()


def is_question(raw_text: str) -> bool:
    """True iff the raw (pre-normalization) text contains a '?' anywhere.

    Checked before normalization because normalize() removes the marks.
    """
    return "?" in raw_text


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimum insertions + deletions + substitutions (unit costs) turning
    token list ``a`` into ``b``. Symmetric; 0 iff the lists are equal."""
    if a == b or list(a) == list(b):
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, word_a in enumerate(a, 1):
        current = [i]
        append = current.append
        prev_diag = previous[0]
        for j, word_b in enumerate(b, 1):
            prev_j = previous[j]
            cost = prev_diag if word_a == word_b else prev_diag + 1
            up = prev_j + 1
            if up < cost:
                cost = up
            left = current[j - 1] + 1
            if left < cost:
                cost = left
            append(cost)
            prev_diag = prev_j
        previous = current
    return previous[-1]


@dataclass(frozen=True, slots=True)
class Utterance:
    """One timestamped, speaker-labeled, tokenized segment of speech.

    ``tokens`` is derived from ``raw_text`` at construction and is always
    ``tokenize(normalize(raw_text))``. ``confidence`` and ``linked_id`` are
    carried through from the source file when present (machine confidence,
    expert link to a machine segment id).
    """

    id: str
    onset: float
    offset: float
    raw_text: str
    role: SpeakerRole
    source: Source
    confidence: float | None = None
    linked_id: str | None = None
    tokens: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.offset < self.onset:
            raise ValueError(
                f"utterance {self.id}: offset {self.offset} precedes onset {self.onset}"
            )
        object.__setattr__(self, "tokens", tuple(tokenize(normalize(self.raw_text))))

    @property
    def word_count(self) -> int:
        return len(self.tokens)

    @property
    def question(self) -> bool:
        return is_question(self.raw_text)

    @property
    def duration(self) -> float:
        return self.offset - self.onset


@dataclass(frozen=True)
class RecordingMeta:
    """Recording-level metadata: who wore the recorder, where, and how long."""

    recording_id: str
    wearer_role: SpeakerRole
    classroom_id: str
    academic_year: str
    duration_minutes: float

    def __post_init__(self) -> None:
        if not 0 < self.duration_minutes < math.inf:
            raise ValueError(
                f"recording {self.recording_id}: duration must be positive and finite, "
                f"got {self.duration_minutes}"
            )

    @property
    def duration_seconds(self) -> float:
        return self.duration_minutes * 60.0


def _sort_key(u: Utterance) -> tuple[float, float, str]:
    return (u.onset, u.offset, u.id)


@dataclass(frozen=True)
class Transcript:
    """Ordered utterances of one recording plus its metadata.

    Utterances are stored sorted by (onset, offset, id); the order is total,
    so identical inputs always produce identical transcripts. ``linked`` is
    set by the expert parser when enough rows reference machine segment ids
    to allow index alignment. ``source`` is set by the parsers; left unset,
    it is taken from the utterances (machine when there are none).
    """

    meta: RecordingMeta
    utterances: tuple[Utterance, ...]
    linked: bool = False
    source: Source | None = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.utterances, key=_sort_key))
        object.__setattr__(self, "utterances", ordered)
        if self.source is None:
            source = ordered[0].source if ordered else Source.MACHINE
            object.__setattr__(self, "source", source)

    def __len__(self) -> int:
        return len(self.utterances)

    def by_role(self, role: SpeakerRole) -> tuple[Utterance, ...]:
        return tuple(u for u in self.utterances if u.role is role)

    def word_count(self, role: SpeakerRole | None = None) -> int:
        if role is None:
            return sum(u.word_count for u in self.utterances)
        return sum(u.word_count for u in self.utterances if u.role is role)


def iter_roles() -> Iterable[SpeakerRole]:
    """The two roles that participate in features and reliability."""
    return (SpeakerRole.TEACHER, SpeakerRole.CHILD)
