"""Pairing machine utterances with expert utterances.

Two routes produce the same structure:

* :func:`align_by_index` follows explicit machine-id links recorded by the
  annotators. Duplicate or out-of-order links are demoted to residue so the
  result is always a monotone matching.
* :func:`align_by_time` recovers a matching from scratch with dynamic
  programming over the two time-ordered utterance lists, scoring candidate
  pairs by a blend of text similarity and temporal overlap.

Either way the result is an :class:`AlignedCorpus`: matched pairs plus the
machine-only and expert-only residue. Downstream agreement statistics treat
pairs and residue differently, so the split is preserved rather than
flattened.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

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
        if not 0.0 <= self.similarity_weight <= 1.0:
            raise ValueError(f"similarity_weight must be in [0, 1]: {self.similarity_weight}")
        if self.gap_penalty < 0.0:
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
    """A recording's matching: pairs plus per-side residue."""

    meta: RecordingMeta
    pairs: tuple[AlignedPair, ...]
    machine_only: tuple[Utterance, ...]
    expert_only: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def n_machine(self) -> int:
        return len(self.pairs) + len(self.machine_only)

    @property
    def n_expert(self) -> int:
        return len(self.pairs) + len(self.expert_only)

    def iter_expert_slots(self) -> Iterator[tuple[Utterance | None, Utterance]]:
        """Every expert utterance with its machine partner (None if residue)."""
        for pair in self.pairs:
            yield pair.machine_utt, pair.expert_utt
        for utt in self.expert_only:
            yield None, utt


def _assemble(
    meta: RecordingMeta,
    machine: Sequence[Utterance],
    expert: Sequence[Utterance],
    matched: Sequence[tuple[int, int]],
) -> AlignedCorpus:
    """Build the corpus from (machine index, expert index) match positions."""
    matched = sorted(matched)
    used_machine = {i for i, _ in matched}
    used_expert = {j for _, j in matched}
    pairs = tuple(AlignedPair(machine_utt=machine[i], expert_utt=expert[j]) for i, j in matched)
    return AlignedCorpus(
        meta=meta,
        pairs=pairs,
        machine_only=tuple(u for i, u in enumerate(machine) if i not in used_machine),
        expert_only=tuple(u for j, u in enumerate(expert) if j not in used_expert),
    )


def _longest_increasing_run(values: Sequence[int]) -> list[int]:
    """Positions of one longest strictly increasing subsequence.

    Patience sorting with parent pointers; ties keep the earliest chain so
    the result is deterministic.
    """
    import bisect

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
    machine_position = {utt.id: i for i, utt in enumerate(machine.utterances)}
    claimed: set[int] = set()
    links: list[tuple[int, int]] = []  # (machine index, expert index), expert order
    for j, utt in enumerate(expert.utterances):
        if utt.linked_id is None:
            continue
        i = machine_position.get(utt.linked_id)
        if i is None or i in claimed:
            continue
        claimed.add(i)
        links.append((i, j))
    links.sort()  # machine order; now keep the largest strictly increasing expert run
    keep = _longest_increasing_run([j for _, j in links])
    matched = [links[position] for position in keep]
    return _assemble(machine.meta, machine.utterances, expert.utterances, matched)


def _dp(
    machine: Sequence[Utterance], expert: Sequence[Utterance], config: AlignConfig
) -> tuple[list[tuple[int, int]], float]:
    """Best monotone matching and its score.

    Maximizes sum of pair scores minus gap_penalty per unmatched utterance.
    Backpointers are packed one byte per cell (0 match, 1 skip machine,
    2 skip expert); score rows roll. Ties prefer matching, then consuming
    machine utterances.
    """
    n, m = len(machine), len(expert)
    gap = config.gap_penalty
    moves = [bytearray(m + 1) for _ in range(n + 1)]
    previous = [-j * gap for j in range(m + 1)]
    row = moves[0]
    for j in range(1, m + 1):
        row[j] = 2
    for i in range(1, n + 1):
        utt_m = machine[i - 1]
        current = [-i * gap] + [0.0] * m
        row = moves[i]
        row[0] = 1
        for j in range(1, m + 1):
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
            row[j] = move
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
    matched, _ = _dp(machine.utterances, expert.utterances, config)
    kept = []
    for i, j in matched:
        utt_m, utt_e = machine.utterances[i], expert.utterances[j]
        if (
            time_iou(utt_m, utt_e) < config.min_iou
            and text_similarity(utt_m, utt_e) < config.min_text_similarity
        ):
            continue
        kept.append((i, j))
    return _assemble(machine.meta, machine.utterances, expert.utterances, kept)


def align(
    machine: Transcript, expert: Transcript, config: AlignConfig | None = None
) -> AlignedCorpus:
    """Index alignment when the expert transcript is linked, else time."""
    if expert.linked:
        return align_by_index(machine, expert)
    return align_by_time(machine, expert, config)


def write_alignment_jsonl(corpus: AlignedCorpus, path: Path | str) -> None:
    """Audit trail: one JSON line per pair, then per residue utterance."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair in corpus.pairs:
            record = {"kind": "pair", **pair.to_dict()}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        for utt in corpus.machine_only:
            handle.write(
                json.dumps({"kind": "machine_only", "machine_id": utt.id}, ensure_ascii=False)
                + "\n"
            )
        for utt in corpus.expert_only:
            handle.write(
                json.dumps({"kind": "expert_only", "expert_id": utt.id}, ensure_ascii=False)
                + "\n"
            )
