"""Core domain types and text handling for classroom speech transcripts.

Everything downstream (parsing, alignment, features, reliability) works on
the types defined here. Text handling is deliberately small and fixed so
word counts are reproducible:

* ``tokens_of`` is the normalization rule: it strips annotation markers
  and punctuation, lower-cases (keeping apostrophes inside words, so
  contractions stay one word) and joins hyphenated words; a word count is
  always ``len(tokens_of(text))``.
* ``is_question`` looks at the *raw* text, before normalization removes
  question marks. Any ``?`` anywhere in the utterance marks it a question.
  ``features.summarize`` reads it.
* ``levenshtein`` is the word-level edit distance that alignment scores and
  word error rates share.

All types are immutable after construction and all functions are pure, so
values can be shared freely across threads and worker processes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
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


# The two roles that features and reliability count, in their report order
ROLES = (SpeakerRole.TEACHER, SpeakerRole.CHILD)


class Source(Enum):
    """Provenance of a transcript: machine pipeline output or expert coding."""

    MACHINE = "machine"
    EXPERT = "expert"


# Markers like "[laughs]" or "<noise>" are annotations, not speech; they are
# stripped, one pattern after the other, before any other normalization step.
_ANNOTATIONS = (re.compile(r"\[[^\]]*\]"), re.compile(r"<[^>]*>"))

_CURLY_APOSTROPHES = re.compile(r"[‘’ʼ`´]")
_HYPHEN_JOIN = re.compile(r"(?<=\w)-(?=\w)")
_PUNCTUATION = re.compile(r"[^\w\s']")
# an apostrophe without a word character on one side: (?<!\w)'|'(?!\w),
# written to start with the apostrophe so the search skips to each one
_EDGE_APOSTROPHE = re.compile(r"'(?:(?<!\w')|(?!\w))")

# The ASCII form of the lower-case, apostrophe and punctuation steps, as a
# byte table: word characters are kept (letters lower-cased), a backtick
# becomes an apostrophe, and every other character becomes a space, which
# the final split treats like any whitespace.
_ASCII_FOLD = bytes(
    ord(c.lower()) if c.isalnum() or c in "_'" else ord("'") if c == "`" else ord(" ")
    for c in map(chr, range(128))
) + bytes(range(128, 256))


def _strip_annotations(raw_text: str) -> str:
    if "[" not in raw_text and "<" not in raw_text:
        return raw_text  # neither pattern can match
    text = raw_text
    for pattern in _ANNOTATIONS:
        text = pattern.sub(" ", text)
    return text


def _ascii_words(text: str) -> list[str]:
    """The normalized words of ASCII ``text`` whose annotations are already
    stripped: the regex chain of ``tokens_of``, with one byte-table
    translate doing its context-free steps."""
    if "-" in text:
        text = _HYPHEN_JOIN.sub("", text)
    text = text.encode("ascii").translate(_ASCII_FOLD).decode("ascii")
    if "'" in text:
        text = _EDGE_APOSTROPHE.sub(" ", text)
    return text.split()


def tokens_of(raw_text: str) -> tuple[str, ...]:
    """The normalized words of raw utterance text: the one normalization rule.

    Removes annotation markers, lower-cases, removes punctuation, keeps
    apostrophes internal to a word ("it's" stays one word), joins
    hyphenated words ("well-known" -> "wellknown") and keeps numerals
    verbatim. Total function: any input string is accepted.
    """
    text = _strip_annotations(raw_text)
    if text.isascii():
        return tuple(_ascii_words(text))
    text = text.lower()
    text = _CURLY_APOSTROPHES.sub("'", text)
    text = _HYPHEN_JOIN.sub("", text)
    text = _PUNCTUATION.sub(" ", text)
    text = _EDGE_APOSTROPHE.sub(" ", text)
    return tuple(text.split())


def is_question(raw_text: str) -> bool:
    """True iff the raw (pre-normalization) text contains a '?' anywhere.

    Checked before normalization because tokens_of() removes the marks.
    """
    return "?" in raw_text


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimum insertions + deletions + substitutions (unit costs) turning
    token list ``a`` into ``b``. Symmetric; 0 iff the lists are equal."""
    if a == b:
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
    ``tokens_of(raw_text)``; the utterances a transcript builds
    take it from the transcript's columns instead of normalizing again.
    ``confidence`` and ``linked_id`` are carried through from the source
    file when present (machine confidence, expert link to a machine segment
    id).
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
        # the parsers' rule; NaN fails every comparison, so it is rejected too
        if not 0.0 <= self.onset <= self.offset < math.inf:
            raise ValueError(
                f"utterance {self.id}: times must satisfy 0 <= onset <= offset < inf, "
                f"got onset {self.onset}, offset {self.offset}"
            )
        object.__setattr__(self, "tokens", tokens_of(self.raw_text))

    @property
    def word_count(self) -> int:
        return len(self.tokens)


# One second to about 694 days: a per-minute rate is then at most 60 times its
# count, and sums weighted by duration stay inside the float range.
MIN_DURATION_MINUTES = 1 / 60
MAX_DURATION_MINUTES = 1e6


@dataclass(frozen=True)
class RecordingMeta:
    """Recording-level metadata: who wore the recorder, where, and how long."""

    recording_id: str
    wearer_role: SpeakerRole
    classroom_id: str
    academic_year: str
    duration_minutes: float

    def __post_init__(self) -> None:
        # checked in seconds: a finite duration in minutes can overflow there
        if not 0 < self.duration_seconds < math.inf:
            raise ValueError(
                f"recording {self.recording_id}: duration must be positive and finite, "
                f"got {self.duration_minutes}"
            )
        if self.duration_minutes < MIN_DURATION_MINUTES:
            raise ValueError(
                f"recording {self.recording_id}: duration must be at least one second "
                f"({MIN_DURATION_MINUTES!r} minutes), got {self.duration_minutes}"
            )
        if self.duration_minutes > MAX_DURATION_MINUTES:
            raise ValueError(
                f"recording {self.recording_id}: duration must be at most "
                f"{MAX_DURATION_MINUTES:,.0f} minutes, got {self.duration_minutes}"
            )

    @property
    def duration_seconds(self) -> float:
        return self.duration_minutes * 60.0


# One utterance's entry in every column, in the field order of ``Columns``.
Row = tuple[float, float, str, SpeakerRole, tuple[str, ...], str, float | None, str | None]


@dataclass(frozen=True)
class Columns:
    """A transcript's utterances as parallel tuples: entry ``i`` of every
    field belongs to the ``i``-th utterance in (onset, offset, id) order.
    ``tokens`` holds each utterance's normalized words."""

    onset: tuple[float, ...]
    offset: tuple[float, ...]
    id: tuple[str, ...]
    role: tuple[SpeakerRole, ...]
    tokens: tuple[tuple[str, ...], ...]
    raw_text: tuple[str, ...]
    confidence: tuple[float | None, ...]
    linked_id: tuple[str | None, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "Columns":
        """The columns of ``rows``, which must already be in (onset, offset,
        id) order."""
        if not rows:
            return cls(*((),) * len(fields(cls)))
        return cls(*zip(*rows))

    def rows(self) -> Iterable[Row]:
        """The rows of the columns, in order."""
        return zip(*(getattr(self, f.name) for f in fields(self)))


def _utterance(row: Row, source: Source) -> Utterance:
    """The utterance of one row, taking the row's tokens."""
    onset, offset, id, role, tokens, raw_text, confidence, linked_id = row
    utt = object.__new__(Utterance)
    set_field = object.__setattr__
    set_field(utt, "id", id)
    set_field(utt, "onset", onset)
    set_field(utt, "offset", offset)
    set_field(utt, "raw_text", raw_text)
    set_field(utt, "role", role)
    set_field(utt, "source", source)
    set_field(utt, "confidence", confidence)
    set_field(utt, "linked_id", linked_id)
    set_field(utt, "tokens", tokens)
    return utt


@dataclass(frozen=True)
class Transcript:
    """Ordered utterances of one recording plus its metadata.

    The utterances are held as ``columns``, sorted by (onset, offset, id);
    the order is total, so identical inputs always produce identical
    transcripts. ``linked`` is set by the expert parser when enough rows
    reference machine segment ids to allow index alignment; ``source`` says
    which side the transcript is. The ``Utterance`` objects of
    ``utterances`` are built from the columns on every read and not kept.
    """

    meta: RecordingMeta
    columns: Columns = field(repr=False)
    linked: bool
    source: Source

    @classmethod
    def from_utterances(
        cls,
        meta: RecordingMeta,
        utterances: Iterable[Utterance],
        linked: bool = False,
        source: Source | None = None,
    ) -> "Transcript":
        """The transcript of ``utterances``, in any order. Left unset,
        ``source`` is taken from the utterances (machine when there are
        none)."""
        ordered = sorted(utterances, key=lambda u: (u.onset, u.offset, u.id))
        if source is None:
            source = ordered[0].source if ordered else Source.MACHINE
        rows = [
            (u.onset, u.offset, u.id, u.role, u.tokens, u.raw_text, u.confidence, u.linked_id)
            for u in ordered
        ]
        return cls(meta, Columns.from_rows(rows), linked, source)

    @property
    def utterances(self) -> tuple[Utterance, ...]:
        source = self.source
        return tuple(_utterance(row, source) for row in self.columns.rows())

    def __len__(self) -> int:
        return len(self.columns.id)
