"""Agreement statistics against independent oracles.

Oracles here recompute each statistic from its definition through a
different route than the implementation: recursive edit distance instead
of the iterative table, exact rational arithmetic for matrix metrics, and
definitional sum-of-squares ANOVA for the intraclass correlation.
"""

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.align import align_by_index
from talkmetrics.codec import decode
from talkmetrics.reliability import (
    BothAbsent,
    ConfusionMatrix,
    DegenerateRatings,
    IccEntry,
    MetricSet,
    RecordingReliability,
    ReliabilityReport,
    TooFewRows,
    ZeroVarianceWarning,
    accuracy,
    build_report,
    cohen_kappa,
    drop_incomplete_rows,
    icc_absolute,
    sequential_sum,
    time_weighted_mean,
    utterance_wer,
    weighted_f1,
    wer_units,
)
from talkmetrics.transcript import SpeakerRole, levenshtein

# --- oracles ---------------------------------------------------------------


def lev_recursive(a, b, memo=None):
    """Edit distance straight from the definition: compare heads, recurse
    on the three moves. With memo=None the recursion is exponential."""
    if memo is not None and (len(a), len(b)) in memo:
        return memo[(len(a), len(b))]
    if not a:
        result = len(b)
    elif not b:
        result = len(a)
    else:
        substitution = lev_recursive(a[1:], b[1:], memo) + (0 if a[0] == b[0] else 1)
        deletion = lev_recursive(a[1:], b, memo) + 1
        insertion = lev_recursive(a, b[1:], memo) + 1
        result = min(substitution, deletion, insertion)
    if memo is not None:
        memo[(len(a), len(b))] = result
    return result


def lev_matrix(a, b):
    """Reference full-matrix edit-distance table, no row rolling."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j - 1] + cost, table[i - 1][j] + 1, table[i][j - 1] + 1
            )
    return table[n][m]


def exact_confusion_metrics(counts):
    """Accuracy, weighted F1, and kappa in exact rational arithmetic."""
    (tt, tc), (ct, cc) = counts
    total = tt + tc + ct + cc
    rows = (tt + tc, ct + cc)
    cols = (tt + ct, tc + cc)
    acc = Fraction(tt + cc, total)
    f1_sum = Fraction(0)
    for cls, tp in ((0, tt), (1, cc)):
        precision = Fraction(tp, cols[cls]) if cols[cls] else Fraction(0)
        recall = Fraction(tp, rows[cls]) if rows[cls] else Fraction(0)
        if precision + recall:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = Fraction(0)
        f1_sum += Fraction(rows[cls], total) * f1
    p_o = acc
    p_e = Fraction(rows[0] * cols[0] + rows[1] * cols[1], total * total)
    kappa = None if p_e == 1 else (p_o - p_e) / (1 - p_e)
    return acc, f1_sum, kappa


def exact_icc(ratings):
    """Two-way absolute-agreement single-measure ICC via definitional
    sum-of-squares ANOVA in exact rational arithmetic."""
    rows = [[Fraction(x) for x in row] for row in ratings]
    n = len(rows)
    k = len(rows[0])
    grand = sum(sum(row) for row in rows) / (n * k)
    row_means = [sum(row) / k for row in rows]
    col_means = [sum(row[j] for row in rows) / n for j in range(k)]
    ss_total = sum((x - grand) ** 2 for row in rows for x in row)
    ss_rows = k * sum((m - grand) ** 2 for m in row_means)
    ss_cols = n * sum((m - grand) ** 2 for m in col_means)
    ss_err = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    denominator = msr + (k - 1) * mse + Fraction(k, n) * (msc - mse)
    if denominator == 0:
        return None
    return (msr - mse) / denominator


# --- levenshtein -----------------------------------------------------------


class TestLevenshtein:
    def test_known_pairs(self):
        assert levenshtein(["sunny"], ["it's", "rainy"]) == 2
        assert levenshtein(["oh", "raisins"], ["oh", "a", "raisin", "is", "in", "there"]) == 5
        assert levenshtein(["a", "b", "c"], ["a", "b", "c"]) == 0
        assert levenshtein([], []) == 0
        assert levenshtein([], ["x", "y"]) == 2
        assert levenshtein(["a", "b"], ("a", "b")) == 0

    def test_matches_exponential_recursion_small(self):
        vocab = ("a", "b", "c")
        lists = [[]]
        for _ in range(3):
            lists += [prefix + [w] for prefix in lists if len(prefix) == _ for w in vocab]
        lists = [tuple(x) for x in lists]
        for a in lists:
            for b in lists:
                assert levenshtein(a, b) == lev_recursive(a, b)

    @given(
        st.lists(st.sampled_from("abc"), max_size=7),
        st.lists(st.sampled_from("abc"), max_size=7),
    )
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(
        st.lists(st.sampled_from("ab"), max_size=5),
        st.lists(st.sampled_from("ab"), max_size=5),
        st.lists(st.sampled_from("ab"), max_size=5),
    )
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.lists(st.sampled_from("abcd"), max_size=8))
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    def test_matches_reference_table_on_random_pairs(self):
        rng = random.Random(11)
        vocab = ["w%d" % i for i in range(6)]
        for _ in range(200):
            a = [rng.choice(vocab) for _ in range(rng.randrange(0, 12))]
            b = [rng.choice(vocab) for _ in range(rng.randrange(0, 12))]
            assert levenshtein(a, b) == lev_matrix(a, b)


# --- WER -------------------------------------------------------------------


class TestUtteranceWer:
    def test_partial_error(self):
        hyp = syn.utt(1, 0, 1, "Oh, raisins.")
        ref = syn.utt(2, 0, 1, "Oh a raisin is in there", source="expert")
        assert utterance_wer(hyp, ref) == pytest.approx(5 / 6)

    def test_exact_match(self):
        hyp = syn.utt(1, 0, 1, "Me too.")
        ref = syn.utt(2, 0, 1, "Me too.", source="expert")
        assert utterance_wer(hyp, ref) == 0.0

    def test_missing_side_counts_every_word_wrong(self):
        ref = syn.utt(1, 0, 1, "one two three", source="expert")
        hyp = syn.utt(2, 0, 1, "one two three")
        assert utterance_wer(None, ref) == 1.0
        assert utterance_wer(hyp, None) == 1.0

    def test_both_absent_rejected(self):
        with pytest.raises(BothAbsent):
            utterance_wer(None, None)

    def test_empty_reference_scored_against_hypothesis(self):
        hyp = syn.utt(1, 0, 1, "one two")
        ref = syn.utt(2, 0, 1, "[laughs]", source="expert")
        assert utterance_wer(hyp, ref) == 1.0  # 2 insertions / 2 hyp words

    def test_both_empty(self):
        hyp = syn.utt(1, 0, 1, "[coughs]")
        ref = syn.utt(2, 0, 1, "", source="expert")
        assert utterance_wer(hyp, ref) == 0.0

    def test_can_exceed_one(self):
        hyp = syn.utt(1, 0, 1, "a b c d e")
        ref = syn.utt(2, 0, 1, "x", source="expert")
        assert utterance_wer(hyp, ref) == 5.0


def _paired_corpus(rows, wearer="teacher"):
    """rows: (machine_text or None, expert_text or None, role) tuples."""
    machine_utts = []
    expert_utts = []
    for i, (machine_text, expert_text, role) in enumerate(rows):
        onset = 3.0 * i
        if machine_text is not None:
            machine_utts.append(syn.utt(i + 1, onset, onset + 2.0, machine_text, role))
        if expert_text is not None:
            linked = str(i + 1) if machine_text is not None else None
            expert_utts.append(
                syn.utt(f"e{i}", onset, onset + 2.0, expert_text, role, "expert", linked)
            )
    meta = syn.make_meta(wearer=wearer)
    machine = syn.transcript(machine_utts, meta)
    expert = syn.transcript(expert_utts, meta, linked=True)
    return align_by_index(machine, expert)


class TestWerUnits:
    def test_all_exact_pairs(self):
        corpus = _paired_corpus([("hi there", "hi there", "teacher")] * 4)
        assert wer_units(corpus, SpeakerRole.TEACHER) == (0.0, 4)

    def test_hand_computed_sum_with_residues(self):
        rows = [
            ("one two", "one two", "teacher"),      # 0
            ("one two", "one three", "teacher"),    # 1/2
            (None, "one two three", "teacher"),     # residue -> 1
            ("one", None, "teacher"),               # residue -> 1
        ]
        corpus = _paired_corpus(rows)
        assert wer_units(corpus, SpeakerRole.TEACHER) == (0.0 + 0.5 + 1.0 + 1.0, 4)

    def test_scripted_tally_on_random_corpus(self):
        rng = random.Random(5)
        rows = []
        for _ in range(20):
            machine_text = " ".join(rng.choice("abcde") for _ in range(rng.randrange(1, 6)))
            expert_text = " ".join(rng.choice("abcde") for _ in range(rng.randrange(1, 6)))
            rows.append((machine_text, expert_text, rng.choice(("teacher", "child"))))
        for _ in range(5):
            rows.append((None, "x y", rng.choice(("teacher", "child"))))
        corpus = _paired_corpus(rows)
        for role in (SpeakerRole.TEACHER, SpeakerRole.CHILD):
            expected_units = []
            for machine_text, expert_text, row_role in rows:
                if row_role != role.value or expert_text is None:
                    continue
                if machine_text is None:
                    expected_units.append(1.0)
                else:
                    a = machine_text.split()
                    b = expert_text.split()
                    expected_units.append(lev_matrix(a, b) / len(b))
            total, count = wer_units(corpus, role, wearer_match=False)
            assert count == len(expected_units)
            assert total == pytest.approx(sum(expected_units))

    def test_wearer_filter(self):
        corpus = _paired_corpus([("a", "b", "child")], wearer="teacher")
        assert wer_units(corpus, SpeakerRole.CHILD, wearer_match=True) == (0.0, 0)
        assert wer_units(corpus, SpeakerRole.CHILD, wearer_match=False) == (1.0, 1)

    def test_machine_only_residue_counts_under_its_own_role(self):
        rows = [("hello", "hello", "teacher"), ("x y", None, "child")]
        corpus = _paired_corpus(rows, wearer="child")
        assert wer_units(corpus, SpeakerRole.CHILD, wearer_match=True) == (1.0, 1)

    def test_empty_selection(self):
        corpus = _paired_corpus([("a", "a", "teacher")])
        assert wer_units(corpus, SpeakerRole.CHILD, wearer_match=False) == (0.0, 0)


# --- confusion metrics -----------------------------------------------------


class TestConfusionMetrics:
    def test_perfect_agreement(self):
        m = ConfusionMatrix(counts=((50, 0), (0, 50)))
        assert accuracy(m) == 1.0
        assert weighted_f1(m) == 1.0
        assert cohen_kappa(m) == 1.0

    def test_chance_agreement(self):
        m = ConfusionMatrix(counts=((25, 25), (25, 25)))
        assert cohen_kappa(m) == 0.0

    def test_worked_example(self):
        m = ConfusionMatrix(counts=((40, 10), (5, 45)))
        assert accuracy(m) == pytest.approx(0.85, abs=1e-12)
        assert cohen_kappa(m) == pytest.approx(0.70, abs=1e-12)
        assert weighted_f1(m) == pytest.approx(0.8496, abs=5e-5)

    def test_matches_exact_arithmetic_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(300):
            counts = (
                (rng.randrange(0, 200), rng.randrange(0, 200)),
                (rng.randrange(0, 200), rng.randrange(0, 200)),
            )
            if sum(counts[0]) + sum(counts[1]) == 0:
                continue
            m = ConfusionMatrix(counts=counts)
            acc, f1, kappa = exact_confusion_metrics(counts)
            assert accuracy(m) == pytest.approx(float(acc), abs=1e-12)
            assert weighted_f1(m) == pytest.approx(float(f1), abs=1e-12)
            if kappa is None:
                assert cohen_kappa(m) is None
            else:
                assert cohen_kappa(m) == pytest.approx(float(kappa), abs=1e-12)

    def test_empty_matrix_gives_none(self):
        m = ConfusionMatrix(counts=((0, 0), (0, 0)))
        for metric in (accuracy, weighted_f1, cohen_kappa):
            assert metric(m) is None

    def test_degenerate_marginals_give_none_kappa(self):
        assert cohen_kappa(ConfusionMatrix(counts=((7, 0), (0, 0)))) is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=((-1, 0), (0, 0)))

    @pytest.mark.parametrize("counts", [((1, 2),), ((1, 2), (3,)), ((1, 2), (3, 4), (5, 6))])
    def test_non_square_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must be 2x2$"):
            ConfusionMatrix(counts=counts)

    @given(
        st.tuples(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
        ).filter(lambda c: sum(c[0]) + sum(c[1]) > 0),
        st.integers(2, 9),
    )
    def test_scale_invariance(self, counts, factor):
        m = ConfusionMatrix(counts=counts)
        scaled = ConfusionMatrix(
            counts=tuple(tuple(x * factor for x in row) for row in counts)
        )
        assert accuracy(scaled) == pytest.approx(accuracy(m), abs=1e-12)
        assert weighted_f1(scaled) == pytest.approx(weighted_f1(m), abs=1e-12)
        kappa, kappa_scaled = cohen_kappa(m), cohen_kappa(scaled)
        if kappa is None:
            assert kappa_scaled is None
        else:
            assert kappa_scaled == pytest.approx(kappa, abs=1e-12)

    @given(
        st.tuples(
            st.tuples(st.integers(0, 60), st.integers(0, 60)),
            st.tuples(st.integers(0, 60), st.integers(0, 60)),
        ).filter(lambda c: sum(c[0]) + sum(c[1]) > 0)
    )
    def test_kappa_is_one_iff_diagonal_and_nondegenerate(self, counts):
        m = ConfusionMatrix(counts=counts)
        kappa = cohen_kappa(m)
        diagonal = counts[0][1] == 0 and counts[1][0] == 0
        nondegenerate = min(m.row_totals) > 0  # diagonal => rows == cols
        if kappa == 1.0:
            assert diagonal and nondegenerate
        if diagonal and nondegenerate:
            assert kappa == 1.0

    def test_addition_pools_counts(self):
        a = ConfusionMatrix(counts=((1, 2), (3, 4)), residue_machine=1)
        b = ConfusionMatrix(counts=((10, 0), (0, 10)), excluded_other=2)
        c = a + b
        assert c.counts == ((11, 2), (3, 14))
        assert c.residue_machine == 1 and c.excluded_other == 2


# --- time-weighted mean ----------------------------------------------------


class TestSequentialSum:
    def test_adds_left_to_right_without_compensation(self):
        # ten additions of 0.1 round down; a compensated sum (the built-in
        # sum since 3.12, math.fsum) gives 1.0
        assert sequential_sum([0.1] * 10) == 0.9999999999999999
        assert math.fsum([0.1] * 10) == 1.0

    def test_no_values_give_the_int_zero(self):
        total = sequential_sum(iter(()))
        assert total == 0 and type(total) is int

    @given(st.lists(st.floats(allow_nan=False) | st.integers(-(2**70), 2**70)))
    def test_equals_one_addition_at_a_time(self, values):
        total = 0
        for value in values:
            total = total + value
        assert repr(sequential_sum(values)) == repr(total)


class TestTimeWeightedMean:
    def test_weighted_average(self):
        assert time_weighted_mean([0.8, 0.9], [10, 30]) == pytest.approx(0.875)

    def test_single_value(self):
        assert time_weighted_mean([0.42], [17.0]) == pytest.approx(0.42)

    def test_none_skipped_with_weight(self):
        assert time_weighted_mean([0.5, None, 1.0], [10, 100, 10]) == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            time_weighted_mean([1.0], [1.0, 2.0])

    def test_all_none_gives_none(self):
        assert time_weighted_mean([None, None], [5.0, 5.0]) is None

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(0.1, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_matches_direct_sums(self, pairs):
        values = [v for v, _ in pairs]
        durations = [d for _, d in pairs]
        expected = sum(v * d for v, d in pairs) / sum(durations)
        assert time_weighted_mean(values, durations) == pytest.approx(expected, rel=1e-12)


# --- ICC -------------------------------------------------------------------


class TestIccAbsolute:
    def test_identical_columns_exactly_one(self):
        ratings = [[1.0, 1.0], [2.0, 2.0], [5.5, 5.5]]
        assert icc_absolute(ratings) == 1.0

    def test_constant_offset_below_one(self):
        ratings = [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]
        assert icc_absolute(ratings) < 1.0

    def test_matches_exact_anova(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randrange(2, 30)
            ratings = [
                [round(rng.uniform(-5, 5), 6), round(rng.uniform(-5, 5), 6)]
                for _ in range(n)
            ]
            expected = exact_icc(ratings)
            if expected is None:
                continue
            assert icc_absolute(ratings) == pytest.approx(float(expected), abs=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            icc_absolute([[1.0, 2.0]])

    def test_all_equal_warns_and_returns_one(self):
        with pytest.warns(ZeroVarianceWarning):
            assert icc_absolute([[3.0, 3.0], [3.0, 3.0]]) == 1.0

    def test_mirrored_two_rows_undefined(self):
        with pytest.raises(DegenerateRatings):
            icc_absolute([[0.0, 1.0], [1.0, 0.0]])

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)),
            min_size=3,
            max_size=12,
        ),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=60)
    # the shift rounds 2.6e-78 away, leaving an all-equal shifted matrix
    @example(rows=[(0, 0), (0, 0), (0, 2.6e-78)], shift=1.0)
    def test_translation_invariance(self, rows, shift):
        base = [list(row) for row in rows]
        shifted = [[x + shift for x in row] for row in base]
        for matrix in (np.asarray(base), np.asarray(shifted)):
            if np.all(matrix == matrix.flat[0]):
                return  # all-equal ratings take the 1.0 convention, not the formula
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ZeroVarianceWarning)
                value = icc_absolute(base)
                moved = icc_absolute(shifted)
        except DegenerateRatings:
            return
        assert moved == pytest.approx(value, abs=1e-7)

    def test_single_column_offset_strictly_decreases(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(3, 20)
            column = [rng.uniform(0, 10) for _ in range(n)]
            if max(column) == min(column):
                continue
            base = [[x, x] for x in column]
            offset = [[x, x + 1.5] for x in column]
            assert icc_absolute(offset) < icc_absolute(base)

    def test_missing_cells_rejected(self):
        with pytest.raises(ValueError):
            icc_absolute([[1.0, float("nan")], [2.0, 3.0]])


def numpy_icc(ratings):
    """:func:`icc_absolute`'s formula through numpy's ``mean`` and ``sum``,
    as the library computed it before it summed in plain Python: the oracle
    for the summation order, to the last bit."""
    matrix = np.asarray(ratings, dtype=float)
    n, k = matrix.shape
    if n < 2:
        raise TooFewRows(f"ICC needs at least 2 recordings, got {n}")
    if (matrix == matrix.flat[0]).all():
        warnings.warn("all ratings identical", ZeroVarianceWarning, stacklevel=2)
        return 1.0
    if np.array_equal(matrix[:, 0], matrix[:, 1]):
        return 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        grand = matrix.mean()
        ss_rows = k * float(((matrix.mean(axis=1) - grand) ** 2).sum())
        ss_cols = n * float(((matrix.mean(axis=0) - grand) ** 2).sum())
        ss_total = float(((matrix - grand) ** 2).sum())
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


def icc_outcome(icc, ratings):
    """(value, warning categories) of ``icc(ratings)``, or (exception type, None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = icc(ratings)
        except (DegenerateRatings, TooFewRows) as exc:
            return type(exc), None
    return value, [w.category for w in caught]


# Pairwise summation changes course below 8 values, at 8-value blocks, and
# past 128 values, where it splits the run in two.
_SUM_SIZES = (2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130, 256, 257, 1004)


@st.composite
def _icc_grids(draw):
    """An n x 2 grid from a seeded generator, so that grids of thousands of
    rows cost Hypothesis a few draws: rows of one magnitude (1e-300 to
    1e300) whose expert side is the machine side plus noise, an offset, an
    independent draw, or a few tied values and signed zeros."""
    n = draw(st.one_of(st.sampled_from(_SUM_SIZES), st.integers(2, 3000)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(("noise", "offset", "independent", "ties")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ties = (0.0, -0.0, scale, 2.0 * scale)
    rows = []
    for _ in range(n):
        if kind == "ties":
            rows.append((rng.choice(ties), rng.choice(ties)))
            continue
        machine = rng.gauss(0.0, scale)
        expert = {
            "noise": lambda: machine + rng.gauss(0.0, 0.3 * scale),
            "offset": lambda: machine + scale,
            "independent": lambda: rng.gauss(0.0, scale),
        }[kind]()
        rows.append((machine, expert))
    return rows


class TestIccMatchesNumpy:
    """The ICC is summed in plain Python, in numpy's order, so it keeps
    every bit numpy's ``mean`` and ``sum`` gave it."""

    @given(_icc_grids())
    @settings(max_examples=200, deadline=None)
    def test_seeded_grids(self, rows):
        assert icc_outcome(icc_absolute, rows) == icc_outcome(numpy_icc, rows)

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), min_size=1, max_size=20
        )
    )
    @settings(max_examples=300, deadline=None)
    @example([(1e308, -1e308), (1.0, 2.0)])  # the squares overflow
    @example([(0.0, 1.0), (1.0, 0.0)])  # the denominator vanishes
    @example([(-0.0, 0.0), (0.0, -0.0)])  # signed zeros are equal ratings
    @example([(math.inf, 1.0), (2.0, 3.0)])
    def test_any_floats(self, rows):
        assert icc_outcome(icc_absolute, rows) == icc_outcome(numpy_icc, rows)

    def test_numpy_array_input(self):
        rows = np.array([[1.0, 2.0], [2.0, 3.5], [3.0, 3.0]])
        assert icc_absolute(rows) == numpy_icc(rows)

    @pytest.mark.parametrize(
        "ratings, detail",
        [
            ([], "shape (0,)"),
            ([1.0, 2.0], "the row 1.0"),
            ([[1.0, 2.0, 3.0]], "the row [1.0, 2.0, 3.0]"),
        ],
    )
    def test_not_n_by_2(self, ratings, detail):
        with pytest.raises(ValueError, match=re.escape(f"ratings must be n x 2, got {detail}")):
            icc_absolute(ratings)


class TestDropIncompleteRows:
    def test_drops_pairwise(self):
        kept, dropped = drop_incomplete_rows([(1.0, 2.0), (None, 3.0), (4.0, None)])
        assert kept == [(1.0, 2.0)]
        assert dropped == 2

    def test_keeps_complete(self):
        kept, dropped = drop_incomplete_rows([(1.0, 2.0), (3, 4.0)])
        assert kept == [(1.0, 2.0), (3.0, 4.0)] and dropped == 0
        assert all(type(cell) is float for row in kept for cell in row)

    def test_empty(self):
        kept, dropped = drop_incomplete_rows([])
        assert kept == [] and dropped == 0

    def test_drops_nan_rows(self):
        nan = float("nan")
        rows = [(nan, 1.0), (1.0, 2.0), (3.0, nan), (nan, nan)]
        kept, dropped = drop_incomplete_rows(rows)
        assert kept == [(1.0, 2.0)] and dropped == 3

    def test_rows_must_be_pairs(self):
        with pytest.raises(ValueError):
            drop_incomplete_rows([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])


# --- report assembly -------------------------------------------------------


def _row(recording_id, counts, duration, wer_t=(1.0, 2), wer_c=(0.5, 1)):
    m = ConfusionMatrix(counts=counts)
    return RecordingReliability(
        recording_id=recording_id,
        classroom_id="roomA",
        academic_year="2023-2024",
        wearer_role=SpeakerRole.TEACHER,
        duration_minutes=duration,
        confusion=m,
        metrics=MetricSet(
            f1_weighted=weighted_f1(m),
            accuracy=accuracy(m),
            kappa=cohen_kappa(m),
            wer_teacher=wer_t[0] / wer_t[1] if wer_t[1] else None,
            wer_child=wer_c[0] / wer_c[1] if wer_c[1] else None,
        ),
        wer_sum_teacher=wer_t[0],
        wer_count_teacher=wer_t[1],
        wer_sum_child=wer_c[0],
        wer_count_child=wer_c[1],
    )


class TestBuildReport:
    def test_overall_pools_counts_not_means(self):
        rows = [
            _row("r1", ((10, 0), (0, 10)), duration=10.0),
            _row("r2", ((0, 5), (5, 0)), duration=30.0),
        ]
        report = build_report(rows, {})
        pooled = ConfusionMatrix(counts=((10, 5), (5, 10)))
        assert report.overall.accuracy == pytest.approx(accuracy(pooled))
        # time-weighted instead averages the per-recording values
        expected = (1.0 * 10 + 0.0 * 30) / 40
        assert report.time_weighted.accuracy == pytest.approx(expected)

    def test_overall_wer_pools_units(self):
        rows = [
            _row("r1", ((5, 0), (0, 5)), 10.0, wer_t=(2.0, 4), wer_c=(0.0, 0)),
            _row("r2", ((5, 0), (0, 5)), 10.0, wer_t=(1.0, 1), wer_c=(3.0, 6)),
        ]
        report = build_report(rows, {})
        assert report.overall.wer_teacher == pytest.approx(3.0 / 5)
        assert report.overall.wer_child == pytest.approx(0.5)
        # r1 contributes no child units, so its None is skipped with weight
        assert report.time_weighted.wer_child == pytest.approx(0.5)

    def test_rows_sorted_by_recording_id(self):
        rows = [_row("b", ((1, 0), (0, 1)), 1.0), _row("a", ((1, 0), (0, 1)), 1.0)]
        report = build_report(rows, {})
        assert [r.recording_id for r in report.rows] == ["a", "b"]

    def test_undefined_metrics_are_none(self):
        rows = [
            _row("r1", ((0, 0), (0, 0)), 10.0, wer_t=(0.0, 0), wer_c=(0.0, 0)),
            _row("r2", ((0, 0), (0, 0)), 30.0, wer_t=(0.0, 0), wer_c=(0.0, 0)),
        ]
        report = build_report(rows, {})
        none = MetricSet(None, None, None, None, None)
        assert report.overall == none
        assert report.time_weighted == none

    def test_icc_entries_track_drops_and_flags(self):
        rows = [_row(f"r{i}", ((1, 0), (0, 1)), 1.0) for i in range(4)]
        pairs = {
            "steady": [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)],
            "gappy": [(1.0, None), (2.0, 2.1), (3.0, 2.9), (None, 4.0)],
            "flat": [(2.0, 2.0), (2.0, 2.0), (2.0, 2.0), (2.0, 2.0)],
            "thin": [(1.0, None), (None, 1.0), (2.0, 2.0), (None, None)],
        }
        report = build_report(rows, pairs)
        assert report.iccs["steady"].value == 1.0
        assert report.iccs["gappy"].n_used == 2 and report.iccs["gappy"].n_dropped == 2
        assert report.iccs["flat"].zero_variance and report.iccs["flat"].value == 1.0
        assert report.iccs["thin"].value is None and report.iccs["thin"].n_used == 1

    def test_round_trip(self):
        rows = [_row("r1", ((3, 1), (0, 4)), 12.5)]
        report = build_report(rows, {"f": [(1.0, 2.0), (2.0, 2.5)]})
        import json

        clone = decode(ReliabilityReport, json.loads(json.dumps(syn.encoded(report))))
        assert clone == report



def captured_icc_entry(pairs):
    """A reference ICC entry decided by capturing warnings: drop rows with a
    None or NaN cell in Python, then run :func:`icc_absolute` under a
    warnings capture and flag the entry if it warned."""
    kept = [
        (float(a), float(b))
        for a, b in pairs
        if a is not None and b is not None and not (math.isnan(a) or math.isnan(b))
    ]
    dropped = len(pairs) - len(kept)
    if len(kept) < 2:
        return IccEntry(value=None, n_used=len(kept), n_dropped=dropped)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a float warning is recorded, never raised
        try:
            value = icc_absolute(kept)
        except DegenerateRatings:
            return IccEntry(value=None, n_used=len(kept), n_dropped=dropped)
    flagged = any(issubclass(w.category, ZeroVarianceWarning) for w in caught)
    return IccEntry(value=value, n_used=len(kept), n_dropped=dropped, zero_variance=flagged)


_cells = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),  # repeats, for all-equal and tied ratings
)
_pair_lists = st.one_of(
    st.lists(st.tuples(_cells, _cells), max_size=8),
    st.lists(
        st.tuples(st.sampled_from([1.0, 2.5, None]), st.sampled_from([1.0, 2.5])), max_size=6
    ),
    # the mirrored two-row case, where the ICC denominator can vanish
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(lambda t: [t, t[::-1]]),
)


class TestIccEntries:
    @given(_pair_lists)
    @settings(max_examples=300)
    @example([(0.0, 1.0), (1.0, 0.0)])
    @example([(3.0, 3.0), (3.0, 3.0), (None, 4.0)])
    @example([(1e308, -1e308), (1.0, 2.0)])
    def test_matches_captured_warning_reference(self, pairs):
        assert build_report([], {"f": pairs}).iccs["f"] == captured_icc_entry(pairs)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300)
    # the sums of squares overflow
    @example([(1e300, -1e300), (-1e300, 1e300), (1e200, 3e200)])
    @example([(1.7e308, -1.7e308), (1.0, 2.0)])
    def test_finite_ratings_give_a_finite_value_or_none(self, pairs):
        value = build_report([], {"f": pairs}).iccs["f"].value
        assert value is None or math.isfinite(value)
