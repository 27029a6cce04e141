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
from typing import Iterator, Sequence

from .errors import TalkmetricsError
from .transcript import Transcript, Utterance, levenshtein

# Only the DP kernel (``_dp``, ``_row_distances``, ``_spans`` and
# ``_pair_scores``) uses numpy, and it imports it inside its functions.
# ``align_by_time`` sends a process's first ``_PLAIN_CELLS`` cells to the
# plain-Python ``_plain_dp`` instead, so a run that aligns nothing by time,
# or only a little, never loads numpy. No other module uses numpy.


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


# Each process aligns its first this many (machine, expert) cells in plain
# Python, at 4.6-6.0 µs per cell against numpy's 0.42-0.98 µs: at most
# 19-25 ms, under a third of the 76 ms (and 11.4 MiB of peak RSS) that
# importing numpy adds to a fresh interpreter. Counting per process, not per
# recording, caps what many small recordings lose to the slower path.
_PLAIN_CELLS = 4096
_plain_cells_left = _PLAIN_CELLS


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


def _plain_dp(
    machine: Sequence[Utterance], expert: Sequence[Utterance], config: AlignConfig
) -> tuple[list[tuple[int, int]], float]:
    """:func:`_dp` in plain Python, one :func:`pair_score` call per cell,
    with the same tie rules and backpointers, so both return the same
    ``(matched, score)``."""
    n, m = len(machine), len(expert)
    gap = config.gap_penalty
    width = m + 1
    moves = bytearray((n + 1) * width)
    previous = [-j * gap for j in range(width)]
    for i in range(1, n + 1):
        utt_m, row = machine[i - 1], i * width
        current = [-i * gap] + [0.0] * m
        for j in range(1, width):
            best = previous[j - 1] + pair_score(utt_m, expert[j - 1], config)
            move = 0
            skip_machine = previous[j] - gap
            if skip_machine > best:
                best = skip_machine
                move = 1
            skip_expert = current[j - 1] - gap
            if skip_expert > best:
                best = skip_expert
                move = 2
            current[j] = best
            moves[row + j] = move
        previous = current
    return _trace_back(moves, n, m), float(previous[m])


# Machine rows per distance block are sized so a block holds about this
# many (machine, expert) cells; the block's uint64 state, and the reward
# temporaries computed from it, stay cache-sized. The kernel and the rewards
# keep to a few kinds of numpy call, and the rewards to float64 alone,
# because each further kind maps more of numpy's library into memory, which
# shows in a run's peak RSS.
_BLOCK_CELLS = 4096
_WORD_BITS = 64
# The DP holds float64 rewards for one band of about this many machine rows
# (8 bytes per expert utterance each) and walks the band's anti-diagonals.
# A recording of n × m cells takes n + bands·(m - 1) diagonal steps of a few
# numpy calls each, so taller bands run faster but hold more memory. Peak
# RSS of `batch` on the unlinked_align bench corpus (recordings of 120-300
# utterances): 31.6 MiB with the scalar recurrence, 31.75 MiB with these
# bands, 32.1 MiB with one band per recording, and 38.3 MiB when the
# kernel and rewards also ran over 64 Ki-cell blocks. At 2,000 × 1,964
# utterances, _dp took 2.4 s with 32-row bands (64 Ki cells) and 1.2-1.5 s
# with 256-row ones.
_BAND_ROWS = 256


def _band_rows(n: int, m: int) -> int:
    """Machine rows per DP band: at most about ``_BAND_ROWS``, split evenly
    over n, and whole blocks of :func:`_row_distances`."""
    block = max(1, _BLOCK_CELLS // max(1, m))
    bands = max(1, -(-n // _BAND_ROWS))
    return -(-n // bands // block) * block if n else block


def _row_distances(
    machine: Sequence[Utterance], expert: Sequence[Utterance]
) -> Iterator[np.ndarray]:
    """Word edit distance from each machine utterance to every expert one.

    Yields one (rows, m) uint64 array per block of consecutive machine rows,
    ``max(1, _BLOCK_CELLS // m)`` rows each (fewer in the last), with
    columns in expert order. Hyyrö's bit-vector form of Myers' algorithm
    runs with each machine utterance as the pattern (one bit per word) and
    every expert utterance as a text, all cells of a block at once. The
    patterns' token ids and bits are laid out in numpy once, so a block's
    match table is one scatter. The state holds one row per text, longest
    first, so the texts still running at word ``k`` are a row prefix; it
    starts as one broadcast row. A text's distance is its word count plus
    the vertical steps of its last column, counted when the text ends.
    Rows with no words or more than 64 take the scalar ``levenshtein``.
    """
    import numpy as np
    texts = [utt.tokens for utt in expert]
    m = len(texts)
    vocab: dict[str, int] = {}
    for tokens in texts:
        for token in tokens:
            vocab.setdefault(token, len(vocab))
    order = sorted(range(m), key=lambda j: -len(texts[j]))
    positions = [0] * m
    for position, j in enumerate(order):
        positions[j] = position
    inverse = np.array(positions, dtype=np.intp)
    ordered = [texts[j] for j in order]
    steps = []  # token ids at word k of every text still running
    running = m
    for k in range(len(ordered[0]) if ordered else 0):
        while len(ordered[running - 1]) <= k:
            running -= 1
        steps.append(np.array([vocab[tokens[k]] for tokens in ordered[:running]], dtype=np.intp))
    # A pattern of n words fills the top n bits, so every row's last word
    # sits on bit 63; the zero bits below it stay inert.
    patterns = [utt.tokens for utt in machine]
    lengths = [min(len(tokens), _WORD_BITS) or 1 for tokens in patterns]
    token_rows: list[int] = []
    token_columns: list[int] = []
    token_shifts: list[int] = []
    ends = [0]  # machine row i's tokens are [ends[i], ends[i + 1])
    for row, (tokens, length) in enumerate(zip(patterns, lengths)):
        for shift, token in enumerate(tokens[:length], _WORD_BITS - length):
            column = vocab.get(token)
            if column is not None:  # a word no text holds matches nothing
                token_rows.append(row)
                token_columns.append(column)
                token_shifts.append(shift)
        ends.append(len(token_rows))
    rows_of = np.array(token_rows, dtype=np.intp)
    columns_of = np.array(token_columns, dtype=np.intp)
    bits_of = np.uint64(1) << np.array(token_shifts, dtype=np.uint64)
    length_of = np.array(lengths, dtype=np.uint64)
    e_words = np.array([len(tokens) for tokens in texts], dtype=np.uint64)
    ordered_words = e_words[order, None]
    block = max(1, _BLOCK_CELLS // max(1, m))
    for first in range(0, len(machine), block):
        last = min(first + block, len(machine))
        held = slice(ends[first], ends[last])  # the block's pattern words
        # the match table: one row per vocabulary word, one column per pattern
        peq = np.zeros((len(vocab), last - first), dtype=np.uint64)
        np.bitwise_or.at(peq, (columns_of[held], rows_of[held] - first), bits_of[held])
        shape = (m, last - first)  # the state: one row per text, one column per pattern
        pv = np.broadcast_to(~np.uint64(0) << (_WORD_BITS - length_of[first:last]), shape)
        mv = np.broadcast_to(np.uint64(0), shape)
        final_pv = np.empty(shape, dtype=np.uint64)
        final_mv = np.empty(shape, dtype=np.uint64)
        running = m
        for ids in steps:
            active = len(ids)
            if active < running:  # texts that ended keep their last column
                final_pv[active:running] = pv[active:running]
                final_mv[active:running] = mv[active:running]
                pv, mv = pv[:active], mv[:active]
                running = active
            eq = peq[ids]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            ph = (ph << 1) | 1
            mh = mh << 1
            pv = mh | ~(xv | ph)
            mv = ph & xv
        final_pv[:running] = pv
        final_mv[:running] = mv
        # D[len][n] = D[0][n] + the last column's vertical steps
        distances = ordered_words + np.bitwise_count(final_pv)
        distances -= np.bitwise_count(final_mv)
        distances = distances[inverse].T
        for row in range(first, last):
            tokens = patterns[row]
            if not tokens:
                distances[row - first] = e_words
            elif len(tokens) > _WORD_BITS:
                distances[row - first] = [levenshtein(tokens, text) for text in texts]
        yield distances


def _spans(utterances: Sequence[Utterance]) -> np.ndarray:
    """Rows of onsets, offsets, lengths and word counts, as float64.

    Word counts are floats so that every comparison and division of a
    reward runs in one dtype, which keeps numpy's integer loops unmapped.
    """
    import numpy as np
    onsets = [utt.onset for utt in utterances]
    spans = np.array(
        [onsets, [utt.offset for utt in utterances], onsets,
         [utt.word_count for utt in utterances]],
        dtype=np.float64,
    )
    spans[2] = spans[1] - spans[0]
    return spans


def _pair_scores(
    machine: np.ndarray,
    expert: np.ndarray,
    distances: np.ndarray,
    w_text: float,
    out: np.ndarray,
) -> None:
    """:func:`pair_score` for a block of cells, written to ``out``.

    ``machine`` holds the block rows' :func:`_spans` as (4, rows, 1)
    columns and ``expert`` every expert utterance's as (4, m). The float operations are
    :func:`time_iou`'s, :func:`text_similarity`'s and the blend's, in the
    same order, with ``np.where`` on the same comparisons.
    """
    import numpy as np
    m_on, m_off, m_len, m_words = machine
    e_on, e_off, e_len, e_words = expert
    low = np.where(e_on > m_on, e_on, m_on)
    intersection = np.where(e_off < m_off, e_off, m_off) - low
    longest = np.where(e_words > m_words, e_words, m_words)
    # a length sum past the float range is inf, as in Python, and silently so
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        union = m_len + e_len - intersection
        iou = intersection / union
        similarity = 1.0 - distances / longest
    iou = np.where(intersection <= 0.0, 0.0, iou)
    similarity = np.where(longest == 0.0, 1.0, similarity)
    np.add(w_text * similarity, (1.0 - w_text) * iou, out=out)


def _dp(
    machine: Sequence[Utterance], expert: Sequence[Utterance], config: AlignConfig
) -> tuple[list[tuple[int, int]], float]:
    """Best monotone matching and its score.

    Maximizes sum of pair scores minus gap_penalty per unmatched utterance;
    :func:`align_by_time` has refused a gap_penalty that would overflow.
    Machine rows are taken in bands (:func:`_band_rows`). A band's rewards
    are :func:`pair_score` evaluated in numpy a distance block at a time
    (:func:`_pair_scores`, fed by :func:`_row_distances`). The recurrence
    then walks the band's anti-diagonals: cell (i, j) reads only diagonals
    d - 1 and d - 2, so each diagonal is a few numpy calls over rolling 1-D
    arrays, and the band's last row seeds the next band. A match wins
    unless skipping the machine utterance scores strictly more, and
    skipping the expert one wins only if strictly better still, as in a
    cell-by-cell loop. Backpointers are packed one byte per cell for
    :func:`_trace_back`.
    """
    import numpy as np
    n, m = len(machine), len(expert)
    gap = config.gap_penalty
    width = m + 1
    machine_spans, expert_spans = _spans(machine), _spans(expert)
    band = _band_rows(n, m)
    rewards = np.empty((min(band, n), width))  # column 0 is never read
    lefts = np.zeros((min(band, n), width), dtype=np.bool_)  # skip-expert cells
    flat_rewards, flat_lefts = rewards.reshape(-1), lefts.reshape(-1)
    moves = bytearray((n + 1) * width)
    # skip-machine comparisons land in the bytes as 0 or 1 through a bool
    # view; after each band, its skip-expert cells are overwritten with 2
    grid = np.frombuffer(moves, dtype=np.bool_)
    # the band's top row of scores; the walk overwrites it with its bottom row
    edge = np.array([-j * gap for j in range(width)], dtype=np.float64)
    diagonals = [np.empty(min(band, n) + 1) for _ in range(3)]  # indexed by band row
    distances = _row_distances(machine, expert)
    for first in range(0, n, band):
        height = min(band, n - first)
        top = 0
        while top < height:  # a band holds whole distance blocks
            words = next(distances)
            rows = slice(first + top, first + top + len(words))
            _pair_scores(
                machine_spans[:, rows, None], expert_spans, words, config.similarity_weight,
                out=rewards[top : top + len(words), 1:],
            )
            top += len(words)
        # Band row r holds cell (first + r, d - r) of diagonal d; in the
        # row-major band tables it sits at (r - 1) * width + d - r, so a
        # diagonal's cells are m apart and one slice indexes all three.
        band_moves = grid[(first + 1) * width :]
        before, previous, current = diagonals
        for d in range(height + m + 1):
            low_row, high_row = max(1, d - m), min(height, d - 1)
            if low_row <= high_row:
                offset = d - width
                cells = slice(low_row * m + offset, high_row * m + offset + 1, m)
                best = current[low_row : high_row + 1]
                np.add(before[low_row - 1 : high_row], flat_rewards[cells], out=best)
                skips = previous[low_row - 1 : high_row + 1] - gap
                up, left = skips[:-1], skips[1:]
                np.copyto(best, up, where=np.greater(up, best, out=band_moves[cells]))
                np.copyto(best, left, where=np.greater(left, best, out=flat_lefts[cells]))
            if d <= m:
                current[0] = edge[d]
            if 0 < d <= height:
                current[d] = -(first + d) * gap
            if d >= height:
                edge[d - height] = current[height]
            before, previous, current = previous, current, before
        band_grid = band_moves[: height * width].view(np.uint8).reshape(height, width)
        np.copyto(band_grid, 2, where=lefts[:height])
    return _trace_back(moves, n, m), float(edge[m])


def align_by_time(
    machine: Transcript, expert: Transcript, config: AlignConfig | None = None
) -> AlignedCorpus:
    """Recover a monotone matching from timing and text alone.

    The roles of the two arguments are positional: the first transcript
    fills the machine side of each pair. After the optimal matching is
    found, pairs with almost no temporal overlap and almost no text in
    common are demoted to residue; they are artifacts of the monotone
    structure, not real correspondences.

    The process's first ``_PLAIN_CELLS`` cells go to :func:`_plain_dp`: a
    recording takes it when its n × m cells fit in what is left of that
    budget, and the numpy kernel :func:`_dp` otherwise. Both give the same
    matching.
    """
    global _plain_cells_left
    config = config or AlignConfig()
    machine_utts, expert_utts = machine.utterances, expert.utterances
    n, m, gap = len(machine_utts), len(expert_utts), config.gap_penalty
    if (n + m) * gap > sys.float_info.max:  # the lowest score a path can reach
        raise ValueError(f"gap_penalty {gap} overflows the scores of a {n} x {m} alignment")
    if n * m <= _plain_cells_left:
        _plain_cells_left -= n * m
        matched, _ = _plain_dp(machine_utts, expert_utts, config)
    else:
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
