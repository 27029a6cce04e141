"""Pairing machine utterances with expert utterances.

Two routes produce the same structure:

* :func:`align_by_index` follows explicit machine-id links recorded by the
  annotators. Duplicate or out-of-order links are demoted to residue so the
  result is always a monotone matching.
* :func:`align_by_time` recovers a matching from scratch with dynamic
  programming over the two time-ordered utterance lists, scoring candidate
  pairs by a blend of text similarity and temporal overlap.

Either way the result is an :class:`AlignedCorpus`: the two transcripts
and the matched (machine index, expert index) pairs; every utterance
outside a pair is machine-only or expert-only residue. Downstream agreement
statistics treat pairs and residue differently, so the split is preserved
rather than flattened.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import TalkmetricsError
from .transcript import RecordingMeta, Transcript, Utterance, levenshtein


class NotLinked(TalkmetricsError):
    """Index alignment requires an expert transcript with machine-id links."""


@dataclass(frozen=True)
class AlignConfig:
    """Knobs for time-based alignment.

    ``similarity_weight`` blends text similarity against temporal overlap;
    ``gap_penalty`` is charged per skipped utterance; after the optimal
    matching is found, pairs below both ``min_iou`` and
    ``min_text_similarity`` are demoted to residue as spurious.
    """

    similarity_weight: float = 0.5
    gap_penalty: float = 0.05
    min_iou: float = 0.10
    min_text_similarity: float = 0.2

    def __post_init__(self) -> None:
        for name in ("similarity_weight", "min_iou", "min_text_similarity"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {getattr(self, name)}")
        if not self.gap_penalty >= 0.0:
            raise ValueError(f"gap_penalty must be non-negative: {self.gap_penalty}")


def time_iou(a: Utterance, b: Utterance) -> float:
    """Intersection over union of the two utterances' time intervals.

    Zero-length intervals and disjoint intervals give 0.0.
    """
    intersection = min(a.offset, b.offset) - max(a.onset, b.onset)
    if intersection <= 0.0:
        return 0.0
    union = (a.offset - a.onset) + (b.offset - b.onset) - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union


def text_similarity(a: Utterance, b: Utterance) -> float:
    """1 - normalized word edit distance, in [0, 1].

    The distance is divided by the longer word count; two empty utterances
    count as identical.
    """
    longest = max(a.word_count, b.word_count)
    if longest == 0:
        return 1.0
    score = 1.0 - levenshtein(a.tokens, b.tokens) / longest
    return max(score, 0.0)


def pair_score(machine: Utterance, expert: Utterance, config: AlignConfig) -> float:
    """The DP's per-pair reward: blended text and time affinity."""
    w = config.similarity_weight
    return w * text_similarity(machine, expert) + (1.0 - w) * time_iou(machine, expert)


@dataclass(frozen=True)
class AlignedPair:
    """One matched machine/expert utterance pair.

    Its affinity scores are computed from the two utterances when read, so
    building a matching does not pay for scores that only audits use.
    """

    machine_utt: Utterance
    expert_utt: Utterance

    @property
    def time_iou(self) -> float:
        return time_iou(self.machine_utt, self.expert_utt)

    @property
    def text_similarity(self) -> float:
        return text_similarity(self.machine_utt, self.expert_utt)

    def to_dict(self) -> dict:
        return {
            "machine_id": self.machine_utt.id,
            "expert_id": self.expert_utt.id,
            "time_iou": self.time_iou,
            "text_similarity": self.text_similarity,
        }


@dataclass(frozen=True)
class AlignedCorpus:
    """A recording's matching: the two transcripts and ``matched``, the
    (machine index, expert index) position pairs, increasing on both sides.

    ``pairs``, ``machine_only`` and ``expert_only`` build their utterance
    objects on every read.
    """

    machine: Transcript
    expert: Transcript
    matched: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.matched)

    @property
    def meta(self) -> RecordingMeta:
        return self.machine.meta

    @property
    def n_machine(self) -> int:
        return len(self.machine)

    @property
    def n_expert(self) -> int:
        return len(self.expert)

    @property
    def pairs(self) -> tuple[AlignedPair, ...]:
        machine, expert = self.machine.utterances, self.expert.utterances
        return tuple(AlignedPair(machine[i], expert[j]) for i, j in self.matched)

    @property
    def machine_only(self) -> tuple[Utterance, ...]:
        used = {i for i, _ in self.matched}
        return tuple(u for i, u in enumerate(self.machine.utterances) if i not in used)

    @property
    def expert_only(self) -> tuple[Utterance, ...]:
        used = {j for _, j in self.matched}
        return tuple(u for j, u in enumerate(self.expert.utterances) if j not in used)


def _longest_increasing_run(values: Sequence[int]) -> list[int]:
    """Positions of one longest strictly increasing subsequence.

    Patience sorting with parent pointers; ties keep the earliest chain so
    the result is deterministic.
    """
    tails: list[int] = []  # value at the end of the best run of each length
    tail_positions: list[int] = []
    parents = [-1] * len(values)
    for position, value in enumerate(values):
        slot = bisect.bisect_left(tails, value)
        if slot == len(tails):
            tails.append(value)
            tail_positions.append(position)
        else:
            tails[slot] = value
            tail_positions[slot] = position
        parents[position] = tail_positions[slot - 1] if slot else -1
    if not tail_positions:
        return []
    chain = []
    position = tail_positions[-1]
    while position != -1:
        chain.append(position)
        position = parents[position]
    chain.reverse()
    return chain


def align_by_index(machine: Transcript, expert: Transcript) -> AlignedCorpus:
    """Pair utterances through the annotators' machine-id links.

    Each machine utterance accepts its first claimant (in expert order);
    later duplicates become residue. Links that would cross an earlier link
    are dropped by a longest-increasing-subsequence pass, keeping the
    largest monotone subset.
    """
    if not expert.linked:
        raise NotLinked(
            f"expert transcript for {expert.meta.recording_id!r} carries too few"
            " machine ids for index alignment"
        )
    machine_position = {id: i for i, id in enumerate(machine.columns.id)}
    claimed: set[int] = set()
    links: list[tuple[int, int]] = []  # (machine index, expert index), expert order
    for j, linked_id in enumerate(expert.columns.linked_id):
        if linked_id is None:
            continue
        i = machine_position.get(linked_id)
        if i is None or i in claimed:
            continue
        claimed.add(i)
        links.append((i, j))
    links.sort()  # machine order; now keep the largest strictly increasing expert run
    keep = _longest_increasing_run([j for _, j in links])
    return AlignedCorpus(machine, expert, tuple(links[position] for position in keep))


# Machine rows per distance block are sized so a block holds about this
# many (machine, expert) cells; the block's uint64 state stays cache-sized.
# The kernel keeps to a few numpy operations (bitwise operators, addition,
# shifts, gathers) because each further kind of numpy call maps more of
# numpy's library into memory, which shows in a run's peak RSS.
_BLOCK_CELLS = 4096
_WORD_BITS = 64


def _row_distances(
    machine: Sequence[Utterance], expert: Sequence[Utterance]
) -> Iterator[list[int]]:
    """Word edit distance from each machine utterance to every expert one.

    Yields one list per machine row, in expert order. Hyyrö's bit-vector
    form of Myers' algorithm runs with each machine utterance as the
    pattern (one bit per word) and every expert utterance as a text, all
    cells of a row block at once. Expert utterances are visited longest
    first, so the texts still running at word ``k`` are a column prefix.
    Rows with no words or more than 64 take the scalar ``levenshtein``.
    """
    m = len(expert)
    vocab: dict[str, int] = {}
    for utt in expert:
        for token in utt.tokens:
            vocab.setdefault(token, len(vocab))
    order = sorted(range(m), key=lambda j: -expert[j].word_count)
    positions = [0] * m
    for position, j in enumerate(order):
        positions[j] = position
    inverse = np.array(positions, dtype=np.intp)
    steps = []  # token ids at word k of every text still running
    for k in range(max((utt.word_count for utt in expert), default=0)):
        active = [vocab[expert[j].tokens[k]] for j in order if expert[j].word_count > k]
        steps.append(np.array(active, dtype=np.intp))
    block = max(1, _BLOCK_CELLS // max(1, m))
    for first in range(0, len(machine), block):
        rows = machine[first : first + block]
        # A pattern of n words fills the top n bits, so every row's last
        # word sits on bit 63; the zero bits below it stay inert.
        lengths = [min(utt.word_count, _WORD_BITS) or 1 for utt in rows]
        peq = [[0] * len(vocab) for _ in rows]
        for table, utt, length in zip(peq, rows, lengths):
            for bit, token in enumerate(utt.tokens[:length], _WORD_BITS - length):
                column = vocab.get(token)
                if column is not None:
                    table[column] |= 1 << bit
        peq_array = np.array(peq, dtype=np.uint64)
        pv = np.array(
            [[(1 << _WORD_BITS) - (1 << (_WORD_BITS - length))] * m for length in lengths],
            dtype=np.uint64,
        )
        mv = np.zeros((len(rows), m), dtype=np.uint64)
        plus = np.zeros((len(rows), m), dtype=np.uint64)
        minus = np.zeros((len(rows), m), dtype=np.uint64)
        for ids in steps:
            active = len(ids)
            pv, mv = pv[:, :active], mv[:, :active]
            eq = peq_array[:, ids]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            up = plus[:, :active]
            up += ph >> 63
            down = minus[:, :active]
            down += mh >> 63
            ph = (ph << 1) | 1
            mh = mh << 1
            pv = mh | ~(xv | ph)
            mv = ph & xv
        start = np.array([[length] for length in lengths], dtype=np.uint64)
        distances = (start + plus - minus)[:, inverse].tolist()
        for utt, row in zip(rows, distances):
            if utt.word_count == 0:
                yield [e.word_count for e in expert]
            elif utt.word_count > _WORD_BITS:
                yield [levenshtein(utt.tokens, e.tokens) for e in expert]
            else:
                yield row


def _dp(
    machine: Sequence[Utterance], expert: Sequence[Utterance], config: AlignConfig
) -> tuple[list[tuple[int, int]], float]:
    """Best monotone matching and its score.

    Maximizes sum of pair scores minus gap_penalty per unmatched utterance.
    Each cell's reward is :func:`pair_score`, spelled out inline with the
    same float operations and fed word distances from
    :func:`_row_distances`. Backpointers are packed one byte per cell (0
    match, 1 skip machine, 2 skip expert); score rows roll. Ties prefer
    matching, then consuming machine utterances.
    """
    n, m = len(machine), len(expert)
    gap = config.gap_penalty
    w_text = config.similarity_weight
    w_time = 1.0 - w_text
    spans = [(e.onset, e.offset, e.offset - e.onset, e.word_count) for e in expert]
    moves = [bytearray([0] + [2] * m)]
    previous = [-j * gap for j in range(m + 1)]
    for i, distances in enumerate(_row_distances(machine, expert), 1):
        utt_m = machine[i - 1]
        m_on, m_off, m_words = utt_m.onset, utt_m.offset, utt_m.word_count
        m_len = m_off - m_on
        left = -i * gap
        current = [left]
        row = bytearray(b"\x01")
        diagonal = previous[0]
        for (e_on, e_off, e_len, e_words), distance, up in zip(
            spans, distances, previous[1:]
        ):
            # pair_score: time_iou and text_similarity with their own float steps
            low = e_on if e_on > m_on else m_on
            intersection = (e_off if e_off < m_off else m_off) - low
            if intersection <= 0.0:
                iou = 0.0
            else:
                union = m_len + e_len - intersection
                iou = 0.0 if union <= 0.0 else intersection / union
            longest = e_words if e_words > m_words else m_words
            if longest == 0:
                similarity = 1.0
            else:
                similarity = 1.0 - distance / longest
                if similarity < 0.0:
                    similarity = 0.0
            best = diagonal + (w_text * similarity + w_time * iou)
            move = 0
            if up - gap > best:
                best = up - gap
                move = 1
            if left - gap > best:
                best = left - gap
                move = 2
            current.append(best)
            row.append(move)
            diagonal = up
            left = best
        moves.append(row)
        previous = current
    matched: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        move = moves[i][j] if i > 0 and j > 0 else (1 if i > 0 else 2)
        if move == 0:
            matched.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    matched.reverse()
    return matched, previous[m]


def align_by_time(
    machine: Transcript, expert: Transcript, config: AlignConfig | None = None
) -> AlignedCorpus:
    """Recover a monotone matching from timing and text alone.

    The roles of the two arguments are positional: the first transcript
    fills the machine side of each pair. After the optimal matching is
    found, pairs with almost no temporal overlap and almost no text in
    common are demoted to residue; they are artifacts of the monotone
    structure, not real correspondences.
    """
    config = config or AlignConfig()
    machine_utts, expert_utts = machine.utterances, expert.utterances
    matched, _ = _dp(machine_utts, expert_utts, config)
    kept = []
    for i, j in matched:
        utt_m, utt_e = machine_utts[i], expert_utts[j]
        if (
            time_iou(utt_m, utt_e) < config.min_iou
            and text_similarity(utt_m, utt_e) < config.min_text_similarity
        ):
            continue
        kept.append((i, j))
    return AlignedCorpus(machine, expert, tuple(kept))


def align(
    machine: Transcript, expert: Transcript, config: AlignConfig | None = None
) -> AlignedCorpus:
    """Index alignment when the expert transcript is linked, else time."""
    if expert.linked:
        return align_by_index(machine, expert)
    return align_by_time(machine, expert, config)


def write_alignment_jsonl(corpus: AlignedCorpus, path: Path | str) -> None:
    """Audit trail: one JSON line per pair, then per residue utterance."""
    records = [{"kind": "pair", **pair.to_dict()} for pair in corpus.pairs]
    records += [{"kind": "machine_only", "machine_id": u.id} for u in corpus.machine_only]
    records += [{"kind": "expert_only", "expert_id": u.id} for u in corpus.expert_only]
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
