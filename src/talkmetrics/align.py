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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import TalkmetricsError
from .transcript import Transcript, Utterance, levenshtein


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
        if self.gap_penalty > sys.float_info.max:  # infinite, or an integer past the floats
            raise ValueError(f"gap_penalty is out of range: {self.gap_penalty}")


def time_iou(a: Utterance, b: Utterance) -> float:
    """Intersection over union of the two utterances' time intervals.

    Zero-length intervals and disjoint intervals give 0.0.
    """
    intersection = min(a.offset, b.offset) - max(a.onset, b.onset)
    if intersection <= 0.0:
        return 0.0
    # the union is at least the intersection: each length is, and rounding keeps order
    return intersection / ((a.offset - a.onset) + (b.offset - b.onset) - intersection)


def text_similarity(a: Utterance, b: Utterance) -> float:
    """1 - normalized word edit distance, in [0, 1].

    The distance is divided by the longer word count; two empty utterances
    count as identical.
    """
    longest = max(a.word_count, b.word_count)
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a.tokens, b.tokens) / longest


def pair_score(machine: Utterance, expert: Utterance, config: AlignConfig) -> float:
    """The DP's per-pair reward: blended text and time affinity."""
    w = config.similarity_weight
    return w * text_similarity(machine, expert) + (1.0 - w) * time_iou(machine, expert)


@dataclass(frozen=True)
class AlignedPair:
    """One matched machine/expert utterance pair. It holds no scores: an
    audit that wants them calls ``time_iou`` and ``text_similarity`` on the
    two utterances, so building a matching does not pay for them.
    """

    machine_utt: Utterance
    expert_utt: Utterance


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


def _trace_back(moves: bytearray, n: int, m: int) -> list[tuple[int, int]]:
    """The matched (machine, expert) pairs, in order, traced back from the
    corner of an (n + 1) × (m + 1) table of backpointers packed one byte per
    cell, row-major: 0 match, 1 skip machine, 2 skip expert."""
    width = m + 1
    matched: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        move = moves[i * width + j] if i > 0 and j > 0 else (1 if i > 0 else 2)
        if move == 0:
            matched.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    matched.reverse()
    return matched


def _lane_width(words: int) -> int:
    """Bits per lane for a machine row of ``words`` words: one per word and
    a spare top bit that stops the lane's carry; 16 up to 15 words, else the
    next multiple of 64 past ``words``."""
    return 16 if words < 16 else 64 * (words // 64 + 1)


# per lane width: (rows, width, match, mask, first), as _lanes describes
_LaneGroups = list[tuple[list[int], int, dict[str, int], int, int]]


def _lanes(machine: Sequence[Utterance], vocabulary: set[str]) -> _LaneGroups:
    """The machine rows with words, packed for :func:`_distances`: one
    ``(rows, width, match, mask, first)`` per lane width. Lane ``k`` of a
    group holds row ``rows[k]`` in bits ``k * width`` up, one bit per word;
    ``match`` gives each word of ``vocabulary`` the bits where it occurs,
    ``mask`` every row's word bits and ``first`` every lane's lowest bit.
    """
    groups: dict[int, list[int]] = {}
    for i, utt in enumerate(machine):
        if utt.tokens:
            groups.setdefault(_lane_width(len(utt.tokens)), []).append(i)
    lanes = []
    for width, rows in groups.items():
        match: dict[str, int] = {}
        mask = 0
        for lane, i in enumerate(rows):
            tokens = machine[i].tokens
            mask |= ((1 << len(tokens)) - 1) << lane * width
            for bit, token in enumerate(tokens, lane * width):
                if token in vocabulary:
                    match[token] = match.get(token, 0) | 1 << bit
        first = int.from_bytes(b"\x01".ljust(width // 8, b"\x00") * len(rows), "little")
        lanes.append((rows, width, match, mask, first))
    return lanes


def _distances(lanes: _LaneGroups, tokens: Sequence[str], n: int) -> list[int]:
    """Word edit distance from each of the ``n`` machine rows packed in
    ``lanes`` to ``tokens``, in machine order; a row with no words is
    ``len(tokens)`` away.

    Hyyrö's bit-vector form of Myers' algorithm runs once per word of
    ``tokens`` with every row of a lane group as a pattern at once
    (Hyyrö, Fredriksson and Navarro pack patterns this way). Everything is
    masked to the rows' word bits after ``~``, which sets the bits above, and
    after ``pv``'s shift, so no carry or shift leaves a lane: ``ph`` keeps
    one stray bit above its row, which ``& xv`` and the ``~ … & mask`` it
    feeds both drop. A row's distance is ``len(tokens)`` plus its last
    column's vertical steps, ``pv``'s bits less ``mv``'s, counted by SWAR
    masks in 16-bit lanes and by ``int.bit_count`` in wider ones.
    """
    count = len(tokens)
    distances = [count] * n
    for rows, width, match, mask, first in lanes:
        pv, mv = mask, 0
        for token in tokens:
            eq = match.get(token, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv) & mask
            mh = pv & xh
            ph = ph << 1 | first
            pv = (mh << 1 | ~(xv | ph)) & mask
            mv = ph & xv
        if width == 16:
            # each lane's low byte ends up as 16 + pv's bit count - mv's
            steps = _lane_bits(pv, first) + (first << 4) - _lane_bits(mv, first)
            low_bytes = steps.to_bytes(2 * len(rows), "little")[::2]
            for i, step in zip(rows, low_bytes):
                distances[i] = count - 16 + step
        else:
            size = width // 8
            pv_bytes = pv.to_bytes(size * len(rows), "little")
            mv_bytes = mv.to_bytes(size * len(rows), "little")
            for lane, i in enumerate(rows):
                lane_bytes = slice(lane * size, lane * size + size)
                distances[i] = (
                    count
                    + int.from_bytes(pv_bytes[lane_bytes], "little").bit_count()
                    - int.from_bytes(mv_bytes[lane_bytes], "little").bit_count()
                )
    return distances


def _lane_bits(x: int, first: int) -> int:
    """The bit count of each 16-bit lane of ``x``, in that lane; ``first``
    has each lane's lowest bit set."""
    x -= x >> 1 & first * 0x5555
    x = (x & first * 0x3333) + (x >> 2 & first * 0x3333)
    x = (x + (x >> 4)) & first * 0x0F0F
    return (x + (x >> 8)) & first * 0x00FF


def _dp(
    machine: Sequence[Utterance], expert: Sequence[Utterance], config: AlignConfig
) -> tuple[list[tuple[int, int]], float]:
    """Best monotone matching and its score.

    Maximizes sum of pair scores minus gap_penalty per unmatched utterance;
    :func:`align_by_time` has refused a gap_penalty that would overflow.
    The DP walks one expert column at a time: :func:`_distances` gives the
    column's word distances to every machine row, then each cell runs
    :func:`pair_score`'s float operations inline, in the same order. A
    match wins unless skipping the machine utterance scores strictly more,
    and skipping the expert one wins only if strictly better still.
    Backpointers are packed one byte per cell for :func:`_trace_back`.
    """
    n, m = len(machine), len(expert)
    gap, w_text = config.gap_penalty, config.similarity_weight
    w_time = 1.0 - w_text
    width = m + 1
    moves = bytearray((n + 1) * width)
    lanes = _lanes(machine, {token for utt in expert for token in utt.tokens})
    onsets = [utt.onset for utt in machine]
    offsets = [utt.offset for utt in machine]
    lengths = [utt.offset - utt.onset for utt in machine]
    words = [utt.word_count for utt in machine]
    previous = [-i * gap for i in range(n + 1)]  # column 0
    for j, utt_e in enumerate(expert, 1):
        e_on, e_off, e_words = utt_e.onset, utt_e.offset, utt_e.word_count
        e_len = e_off - e_on
        best = -j * gap  # row 0
        current = [best]
        column_moves = bytearray()
        cells = zip(
            onsets, offsets, lengths, words, _distances(lanes, utt_e.tokens, n),
            previous, previous[1:],
        )
        for on, off, length, count, distance, diagonal, left in cells:
            # pair_score: time_iou's min and max, then text_similarity's max
            intersection = (e_off if e_off < off else off) - (e_on if e_on > on else on)
            longest = e_words if e_words > count else count
            score = w_text * (1.0 - distance / longest if longest else 1.0) + w_time * (
                intersection / (length + e_len - intersection) if intersection > 0.0 else 0.0
            )
            up = best - gap
            best = diagonal + score
            move = 0
            if up > best:
                best = up
                move = 1
            left -= gap
            if left > best:
                best = left
                move = 2
            current.append(best)
            column_moves.append(move)
        moves[width + j :: width] = column_moves
        previous = current
    return _trace_back(moves, n, m), float(previous[n])


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
    n, m, gap = len(machine_utts), len(expert_utts), config.gap_penalty
    if (n + m) * gap > sys.float_info.max:  # the lowest score a path can reach
        raise ValueError(f"gap_penalty {gap} overflows the scores of a {n} x {m} alignment")
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
    records = [
        {
            "kind": "pair",
            "machine_id": pair.machine_utt.id,
            "expert_id": pair.expert_utt.id,
            "time_iou": time_iou(pair.machine_utt, pair.expert_utt),
            "text_similarity": text_similarity(pair.machine_utt, pair.expert_utt),
        }
        for pair in corpus.pairs
    ]
    records += [{"kind": "machine_only", "machine_id": u.id} for u in corpus.machine_only]
    records += [{"kind": "expert_only", "expert_id": u.id} for u in corpus.expert_only]
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n")
