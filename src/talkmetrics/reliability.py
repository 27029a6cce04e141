"""Agreement statistics between machine and expert transcripts.

Covers word error rate (over :func:`transcript.levenshtein`), the 2x2
teacher/child cross-classification of aligned pairs and its metrics
(accuracy, support-weighted F1, Cohen's kappa), time-weighted aggregation
across recordings, and the two-way absolute-agreement single-measure
intraclass correlation (ICC) with recordings as units and machine/expert as
the two raters.

Conventions, fixed once here so every report uses the same rules:

* WER of a matched pair is Levenshtein distance over the expert (reference)
  word count. An utterance present on only one side counts as WER 1.0 (all
  of its words wrong).
* Unmatched (residue) utterances are excluded from the confusion matrix but
  included in WER; their counts are carried on the matrix for reporting.
* Per-recording metrics use per-recording counts; "overall" metrics pool
  counts across recordings; the time-weighted mean weights per-recording
  values by recording duration.
* An undefined metric is None, such as accuracy on an empty matrix or a
  role's WER without units; the functions that compute one do not raise.
"""

from __future__ import annotations

import math
import operator
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .align import AlignedCorpus
from .errors import TalkmetricsError
from .features import ratio
from .transcript import ROLES, SpeakerRole, Utterance, levenshtein


class BothAbsent(TalkmetricsError):
    """utterance_wer needs at least one side of the pair."""


class TooFewRows(TalkmetricsError):
    """ICC needs at least two complete recordings."""


class DegenerateRatings(TalkmetricsError):
    """The ICC is undefined: its denominator vanished on unequal ratings
    (only possible for n=2 with mirrored values), or its sums of squares
    left the float range."""


class ZeroVarianceWarning(UserWarning):
    """All ratings identical: ICC is returned as 1.0 by convention."""


def utterance_wer(hyp: Utterance | None, ref: Utterance | None) -> float:
    """Word error rate for one aligned slot.

    Both present: distance / reference word count (falling back to the
    hypothesis count when the reference is empty). A missing side means the
    whole utterance is wrong: 1.0. Never rounds; display code rounds.
    """
    if hyp is None and ref is None:
        raise BothAbsent("utterance_wer called with neither side present")
    if hyp is None or ref is None:
        return 1.0
    return _tokens_wer(hyp.tokens, ref.tokens)


def _tokens_wer(hyp: Sequence[str], ref: Sequence[str]) -> float:
    """WER of two present sides' words, as :func:`utterance_wer` defines it."""
    denominator = len(ref) or len(hyp)
    if denominator == 0:
        return 0.0
    return levenshtein(hyp, ref) / denominator


def wer_units(
    corpus: AlignedCorpus, role: SpeakerRole, wearer_match: bool = True
) -> tuple[float, int]:
    """(sum of per-utterance WERs, unit count) for one recording and role.

    Pairs are selected by expert role; residues enter at WER 1.0 under the
    role of whichever side exists. With ``wearer_match`` (the default), a
    recording whose wearer is not ``role`` contributes nothing: speech is
    scored only against the microphone its speaker wore.
    """
    if wearer_match and corpus.machine.meta.wearer_role is not role:
        return 0.0, 0
    machine, expert = corpus.machine.columns, corpus.expert.columns
    total = 0.0
    n_pairs = n_machine_paired = 0
    for i, j in corpus.matched:
        if expert.role[j] is role:
            total += _tokens_wer(machine.tokens[i], expert.tokens[j])
            n_pairs += 1
        if machine.role[i] is role:
            n_machine_paired += 1
    # the role's unpaired utterances, expert side then machine side
    n_residue = (expert.role.count(role) - n_pairs) + (
        machine.role.count(role) - n_machine_paired
    )
    for _ in range(n_residue):
        total += 1.0  # one addition per utterance, so the float sum is unchanged
    return total, n_pairs + n_residue


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 teacher/child cross-classification counts.

    Rows are the expert (truth), columns the machine, ordered
    (teacher, child). Pairs involving OTHER and unmatched residues are
    excluded from ``counts`` but tallied alongside.
    """

    counts: tuple[tuple[int, int], tuple[int, int]]
    excluded_other: int = 0
    residue_machine: int = 0
    residue_expert: int = 0

    def __post_init__(self) -> None:
        flat = [c for row in self.counts for c in row]
        if len(self.counts) != 2 or any(len(row) != 2 for row in self.counts):
            raise ValueError("counts must be 2x2")
        if any(c < 0 for c in flat):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(c for row in self.counts for c in row)

    @property
    def row_totals(self) -> tuple[int, int]:
        return (self.counts[0][0] + self.counts[0][1], self.counts[1][0] + self.counts[1][1])

    @property
    def col_totals(self) -> tuple[int, int]:
        return (self.counts[0][0] + self.counts[1][0], self.counts[0][1] + self.counts[1][1])

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        a, b = self.counts, other.counts
        return ConfusionMatrix(
            counts=(
                (a[0][0] + b[0][0], a[0][1] + b[0][1]),
                (a[1][0] + b[1][0], a[1][1] + b[1][1]),
            ),
            excluded_other=self.excluded_other + other.excluded_other,
            residue_machine=self.residue_machine + other.residue_machine,
            residue_expert=self.residue_expert + other.residue_expert,
        )


def cross_classify(corpus: AlignedCorpus) -> ConfusionMatrix:
    """Tally matched pairs into the teacher/child confusion matrix.

    Rows are the expert label, columns the machine label. Pairs where
    either side is OTHER are excluded but counted; residue is counted per
    side.
    """
    cells = [[0, 0], [0, 0]]
    excluded = 0
    machine_roles, expert_roles = corpus.machine.columns.role, corpus.expert.columns.role
    for i, j in corpus.matched:
        expert_role = expert_roles[j]
        machine_role = machine_roles[i]
        if expert_role not in ROLES or machine_role not in ROLES:
            excluded += 1
            continue
        cells[ROLES.index(expert_role)][ROLES.index(machine_role)] += 1
    return ConfusionMatrix(
        counts=((cells[0][0], cells[0][1]), (cells[1][0], cells[1][1])),
        excluded_other=excluded,
        residue_machine=len(corpus.machine) - len(corpus.matched),
        residue_expert=len(corpus.expert) - len(corpus.matched),
    )


def accuracy(m: ConfusionMatrix) -> float | None:
    """Trace over total; None on an empty matrix."""
    return ratio(m.counts[0][0] + m.counts[1][1], m.total)


def weighted_f1(m: ConfusionMatrix) -> float | None:
    """Support-weighted mean of per-class F1 scores; None on an empty matrix.

    A class with zero precision+recall gets F1 0; a class with no support
    carries no weight.
    """
    total = m.total
    if total == 0:
        return None
    rows, cols = m.row_totals, m.col_totals
    score = 0.0
    for cls in (0, 1):
        tp = m.counts[cls][cls]
        precision = tp / cols[cls] if cols[cls] else 0.0
        recall = tp / rows[cls] if rows[cls] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        score += rows[cls] / total * f1
    return score


def cohen_kappa(m: ConfusionMatrix) -> float | None:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    Expected agreement p_e comes from the row/column marginals. Returns
    None where kappa is undefined: on an empty matrix, and when the
    marginals are degenerate (p_e = 1).
    """
    total = m.total
    if total == 0:
        return None
    rows, cols = m.row_totals, m.col_totals
    p_observed = (m.counts[0][0] + m.counts[1][1]) / total
    p_expected = (rows[0] * cols[0] + rows[1] * cols[1]) / (total * total)
    return ratio(p_observed - p_expected, 1.0 - p_expected)


def sequential_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.10 and 3.11 compute it: one addition at a
    time, left to right, starting from the int 0 (so no values give ``0``).

    Since 3.12 the built-in ``sum`` compensates float rounding, so report
    values summed with it would differ in the last bits between supported
    interpreters.
    """
    return reduce(operator.add, values, 0)


def time_weighted_mean(
    values: Sequence[float | None], durations: Sequence[float]
) -> float | None:
    """Duration-weighted mean of per-recording metric values.

    None values are skipped together with their weights; None when no
    weight is left. Raises ValueError on sequences of unequal length.
    """
    weighted = 0.0
    weight = 0.0
    for value, duration in zip(values, durations, strict=True):
        if value is None:
            continue
        weighted += value * duration
        weight += duration
    if weight <= 0.0:
        return None
    return weighted / weight


def _pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values`` in numpy's order for a contiguous float64 run,
    so that the ICC keeps numpy's last bits: pairwise summation (Higham
    1993) down to blocks of at most 128 values; a block of 8 or more is
    summed as eight interleaved running sums, combined in pairs, and then
    its leftover values; a shorter one left to right.
    """
    n = len(values)
    if n < 8:
        return reduce(operator.add, values, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(operator.add, values[j + 8 : end : 8], values[j]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(operator.add, values[end:], total)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def drop_incomplete_rows(
    ratings: Sequence[Sequence[float | None]],
) -> tuple[list[tuple[float, float]], int]:
    """``ratings`` as (float, float) rows, without those holding a None or
    NaN cell, and the count dropped. Raises ValueError for a row that is
    not a pair."""
    kept = []
    for row in ratings:
        try:
            a, b = row
        except (TypeError, ValueError):
            raise ValueError(f"ratings must be n x 2, got the row {row!r}") from None
        a, b = (math.nan if x is None else float(x) for x in (a, b))
        if not (math.isnan(a) or math.isnan(b)):
            kept.append((a, b))
    return kept, len(ratings) - len(kept)


def _all_equal(pairs: Sequence[tuple[float, float]]) -> bool:
    """Whether every rating equals the first; the ICC is 1.0 by convention."""
    first = pairs[0][0]
    return all(a == first and b == first for a, b in pairs)


def icc_absolute(ratings: Sequence[Sequence[float]]) -> float:
    """Two-way, absolute-agreement, single-measure intraclass correlation.

    ``ratings`` is an n x 2 matrix: rows are recordings, columns the two
    raters (machine, expert). With mean squares from the two-way ANOVA
    (MSR rows, MSC columns, MSE residual) and k raters:

        ICC = (MSR - MSE) / (MSR + (k-1)*MSE + (k/n)*(MSC - MSE))

    Absolute agreement: a constant offset between the raters lowers the
    value. An all-equal matrix is defined as 1.0 by convention and flagged
    with :class:`ZeroVarianceWarning`. Raises :class:`DegenerateRatings`
    where the value is undefined, or not finite because a sum of squares
    overflowed.

    The sums of squares add their terms in numpy's order (see
    :func:`_pairwise_sum`), so the value is the one numpy's ``mean`` and
    ``sum`` give, to the last bit.
    """
    pairs, dropped = drop_incomplete_rows(ratings)
    if dropped:
        raise ValueError("ratings contain missing cells; drop them pairwise first")
    if not pairs:
        raise ValueError("ratings must be n x 2, got shape (0,)")
    if len(pairs) < 2:
        raise TooFewRows(f"ICC needs at least 2 recordings, got {len(pairs)}")
    if _all_equal(pairs):
        warnings.warn(
            "all ratings identical; ICC defined as 1.0", ZeroVarianceWarning, stacklevel=2
        )
        return 1.0
    return _icc(pairs)


def _icc(pairs: Sequence[tuple[float, float]]) -> float:
    """:func:`icc_absolute` of two or more complete rows that are not all equal."""
    n, k = len(pairs), 2
    if all(a == b for a, b in pairs):
        # exact column agreement: MSE and MSC vanish, so the ratio is
        # exactly 1; computing it through the sums of squares would leave
        # cancellation residue on the order of 1e-16
        return 1.0
    # ``d * d``, not ``d ** 2``: a square past the float range is inf (checked
    # on the value below), where ``**`` raises OverflowError
    cells = [x for pair in pairs for x in pair]
    grand = _pairwise_sum(cells) / (n * k)
    row_deviations = [(0.0 + a + b) / k - grand for a, b in pairs]
    col_deviations = [reduce(operator.add, column) / n - grand for column in zip(*pairs)]
    ss_rows = k * _pairwise_sum([d * d for d in row_deviations])
    ss_cols = n * _pairwise_sum([d * d for d in col_deviations])
    ss_total = _pairwise_sum([(x - grand) * (x - grand) for x in cells])
    ss_error = max(ss_total - ss_rows - ss_cols, 0.0)
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_error / ((n - 1) * (k - 1))
    denominator = msr + (k - 1) * mse + (k / n) * (msc - mse)
    if denominator == 0.0:
        raise DegenerateRatings("ICC denominator is zero on unequal ratings")
    value = (msr - mse) / denominator
    if not math.isfinite(value):
        raise DegenerateRatings("ICC sums of squares leave the float range")
    return value


@dataclass(frozen=True)
class MetricSet:
    """The Table-style metric bundle for one row of a reliability report."""

    f1_weighted: float | None
    accuracy: float | None
    kappa: float | None
    wer_teacher: float | None
    wer_child: float | None


@dataclass(frozen=True)
class RecordingReliability:
    """Per-recording agreement results plus the raw counts needed to pool."""

    recording_id: str
    classroom_id: str
    academic_year: str
    wearer_role: SpeakerRole
    duration_minutes: float
    confusion: ConfusionMatrix
    metrics: MetricSet
    wer_sum_teacher: float
    wer_count_teacher: int
    wer_sum_child: float
    wer_count_child: int


@dataclass(frozen=True)
class IccEntry:
    """One feature's ICC with the sample actually used."""

    value: float | None
    n_used: int
    n_dropped: int
    zero_variance: bool = False


@dataclass(frozen=True)
class ReliabilityReport:
    """Agreement statistics for a set of recordings.

    ``rows`` hold per-recording results in recording-id order; ``overall``
    pools counts across recordings, ``time_weighted`` weights per-recording
    metric values by duration, and ``iccs`` maps feature names, in name
    order, to absolute-agreement ICC entries.
    """

    rows: tuple[RecordingReliability, ...]
    overall: MetricSet
    time_weighted: MetricSet
    iccs: dict[str, IccEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "iccs", dict(sorted(self.iccs.items())))


def metric_set(
    confusion: ConfusionMatrix, teacher: tuple[float, int], child: tuple[float, int]
) -> MetricSet:
    """The metrics of a confusion matrix and of each role's (WER sum, unit
    count); a role without units has no WER."""
    wers = (ratio(total, count) for total, count in (teacher, child))
    return MetricSet(weighted_f1(confusion), accuracy(confusion), cohen_kappa(confusion), *wers)


def build_report(
    rows: Sequence[RecordingReliability],
    feature_pairs: Mapping[str, Sequence[tuple[float | None, float | None]]],
) -> ReliabilityReport:
    """Assemble per-recording rows into overall/time-weighted metrics and ICCs.

    ``feature_pairs`` maps a feature name to (machine, expert) value pairs,
    one per recording; rows with a missing side are dropped pairwise and the
    drop count kept in the report. Each feature's entry is decided from its
    complete rows: fewer than two give no value; all-equal ratings give 1.0
    flagged ``zero_variance``; otherwise the value is :func:`icc_absolute`'s,
    or None where it raises :class:`DegenerateRatings`.
    """
    ordered = tuple(sorted(rows, key=lambda r: r.recording_id))
    overall = metric_set(
        sum((r.confusion for r in ordered), ConfusionMatrix(counts=((0, 0), (0, 0)))),
        (
            sequential_sum(r.wer_sum_teacher for r in ordered),
            sum(r.wer_count_teacher for r in ordered),
        ),
        (
            sequential_sum(r.wer_sum_child for r in ordered),
            sum(r.wer_count_child for r in ordered),
        ),
    )

    durations = [r.duration_minutes for r in ordered]
    by_metric = {f.name: [getattr(r.metrics, f.name) for r in ordered] for f in fields(MetricSet)}
    time_weighted = MetricSet(**{k: time_weighted_mean(v, durations) for k, v in by_metric.items()})

    iccs: dict[str, IccEntry] = {}
    for name, pairs in feature_pairs.items():
        clean, dropped = drop_incomplete_rows(pairs)
        flat = len(clean) >= 2 and _all_equal(clean)
        value = 1.0 if flat else None
        if len(clean) >= 2 and not flat:
            with suppress(DegenerateRatings):
                value = _icc(clean)
        iccs[name] = IccEntry(value, len(clean), dropped, zero_variance=flat)
    return ReliabilityReport(
        rows=ordered, overall=overall, time_weighted=time_weighted, iccs=iccs
    )


def recording_reliability(
    corpus: AlignedCorpus, wearer_match: bool = True
) -> RecordingReliability:
    """Compute one recording's agreement row from its aligned corpus."""
    confusion = cross_classify(corpus)
    wer_t = wer_units(corpus, SpeakerRole.TEACHER, wearer_match)
    wer_c = wer_units(corpus, SpeakerRole.CHILD, wearer_match)
    meta = corpus.machine.meta
    return RecordingReliability(
        recording_id=meta.recording_id,
        classroom_id=meta.classroom_id,
        academic_year=meta.academic_year,
        wearer_role=meta.wearer_role,
        duration_minutes=meta.duration_minutes,
        confusion=confusion,
        metrics=metric_set(confusion, wer_t, wer_c),
        wer_sum_teacher=wer_t[0],
        wer_count_teacher=wer_t[1],
        wer_sum_child=wer_c[0],
        wer_count_child=wer_c[1],
    )
