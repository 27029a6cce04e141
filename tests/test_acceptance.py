"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for a one-line verdict per
criterion. Oracles are independent of the implementations they check:
definitional recursion for edit distance, exact rational ANOVA for the
intraclass correlation, exact rational formulas for the confusion metrics,
a quadratic scan for responses, and exhaustive matching enumeration for
the aligner.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import synthetic as syn
from talkmetrics.align import AlignConfig, _dp, align_by_index, pair_score
from talkmetrics.batch import PipelineResult, RunConfig, discover, emit_report, run_pipeline
from talkmetrics.codec import decode
from talkmetrics.features import FeatureSummary, detect_responses, response_proportion
from talkmetrics.reliability import (
    ConfusionMatrix,
    DegenerateRatings,
    IccEntry,
    MetricSet,
    RecordingReliability,
    ReliabilityReport,
    accuracy,
    cohen_kappa,
    icc_absolute,
    utterance_wer,
    weighted_f1,
)
from talkmetrics.transcript import SpeakerRole, levenshtein

# --- criterion 1: the worked ten-row fixture ---------------------------------


def test_criterion_01_fixture_word_counts_distances_wers():
    started = time.perf_counter()
    machine, expert = syn.build_weather_pair()
    corpus = align_by_index(machine, expert)
    word_counts = [pair.expert_utt.word_count for pair in corpus.pairs]
    distances = [
        levenshtein(pair.machine_utt.tokens, pair.expert_utt.tokens)
        for pair in corpus.pairs
    ]
    wers = [utterance_wer(pair.machine_utt, pair.expert_utt) for pair in corpus.pairs]
    elapsed = time.perf_counter() - started

    assert word_counts == list(syn.WEATHER_EXPERT_WORD_COUNTS)
    assert distances == list(syn.WEATHER_DISTANCES)
    expected_wers = (0, 0, 1, 0, 0, 0, 0, 0, 0.83, 0)
    for got, want in zip(wers, expected_wers):
        assert got == pytest.approx(want, abs=0.005)
    assert elapsed < 1.0, f"fixture took {elapsed:.3f}s"
    print("ACCEPTANCE 1 PASS: fixture word counts, distances and WERs")


# --- criterion 2: pooled proportions and the utterance ratio -----------------


def test_criterion_02_pooled_proportions_and_ratio(tmp_path):
    published_scale = [
        (40, 122, 0.33),
        (351, 1195, 0.29),
        (50, 142, 0.35),
        (526, 1578, 0.33),
        (160, 481, 0.33),
        (356, 1590, 0.22),
        (222, 565, 0.39),
        (502, 1823, 0.28),
    ]
    for responded, total, expected in published_scale:
        assert response_proportion(responded, total) == pytest.approx(
            expected, abs=0.005
        ), f"{responded}/{total}"

    # drive the aggregation path with per-recording counts summing to
    # 2071 teacher and 1317 child utterances
    for index, (teachers, children) in enumerate([(1035, 658), (1036, 659)]):
        rows = []
        clock = 0.0
        for role, count in (("teacher", teachers), ("child", children)):
            for _ in range(count):
                rows.append(
                    {"start": clock, "end": clock + 0.8, "text": "w", "speaker": role}
                )
                clock += 1.0
        syn.write_recording(
            tmp_path, f"rec{index}", rows, duration_minutes=clock / 60.0 + 1.0
        )
    result = run_pipeline(discover(root_dir=tmp_path), RunConfig())
    ratio = result.aggregate["machine"].teacher_child_utterance_ratio
    assert ratio == pytest.approx(1.57, abs=0.005)
    print("ACCEPTANCE 2 PASS: pooled proportions and utterance ratio")


# --- criterion 3: edit distance against definitional recursion ---------------


def lev_uncached(a, b):
    """The textbook exponential recursion, no caching anywhere."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    head = 0 if a[0] == b[0] else 1
    return min(
        lev_uncached(a[1:], b[1:]) + head,
        lev_uncached(a[1:], b) + 1,
        lev_uncached(a, b[1:]) + 1,
    )


@lru_cache(maxsize=None)
def lev_definitional(a, b):
    """Same recursion with memoization, for the exhaustive sweep."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    head = 0 if a[0] == b[0] else 1
    return min(
        lev_definitional(a[1:], b[1:]) + head,
        lev_definitional(a[1:], b) + 1,
        lev_definitional(a, b[1:]) + 1,
    )


def reference_dp(a, b):
    """Independent full-matrix table, no row reuse or early exits."""
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


def test_criterion_03_levenshtein_oracle_equivalence():
    vocab = ("a", "b", "c")
    lists = [()]
    frontier = [()]
    for _ in range(5):
        frontier = [prefix + (word,) for prefix in frontier for word in vocab]
        lists.extend(frontier)
    assert len(lists) == 364

    # the full cross product, against the memoized definitional recursion
    for a in lists:
        for b in lists:
            assert levenshtein(a, b) == lev_definitional(a, b)

    # the raw exponential recursion on every short pair plus a sample of
    # longer ones, confirming memoization changed nothing
    short = [x for x in lists if len(x) <= 3]
    for a in short:
        for b in short:
            assert levenshtein(a, b) == lev_uncached(a, b)
    rng = random.Random(303)
    long_lists = [x for x in lists if len(x) >= 4]
    for _ in range(150):
        a = rng.choice(long_lists)
        b = rng.choice(long_lists)
        assert levenshtein(a, b) == lev_uncached(a, b)

    # random longer pairs against an independent reference table
    words = [f"w{i}" for i in range(8)]
    for _ in range(1000):
        a = [rng.choice(words) for _ in range(rng.randrange(0, 30))]
        b = [rng.choice(words) for _ in range(rng.randrange(0, 30))]
        assert levenshtein(a, b) == reference_dp(a, b)
    print("ACCEPTANCE 3 PASS: edit distance matches definitional recursion")


# --- criterion 4: intraclass correlation against exact ANOVA -----------------


def exact_icc(rows):
    """Two-way absolute-agreement single-measure coefficient from the
    definitional sums of squares, in exact rational arithmetic."""
    n = len(rows)
    k = 2
    cells = [[Fraction(x) for x in row] for row in rows]
    grand = sum(sum(row) for row in cells) / (n * k)
    row_means = [sum(row) / k for row in cells]
    col_means = [sum(row[j] for row in cells) / n for j in range(k)]
    ss_total = sum((x - grand) ** 2 for row in cells for x in row)
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


def test_criterion_04_icc_oracle_equivalence():
    rng = random.Random(404)
    compared = 0
    for _ in range(100):
        n = rng.randrange(2, 51)
        rows = [[rng.uniform(-10, 10), rng.uniform(-10, 10)] for _ in range(n)]
        expected = exact_icc(rows)
        if expected is None:
            continue
        try:
            got = icc_absolute(rows)
        except DegenerateRatings:
            assert expected is None
            continue
        assert got == pytest.approx(float(expected), abs=1e-9)
        compared += 1
    assert compared >= 95

    for _ in range(20):
        n = rng.randrange(2, 20)
        column = [rng.uniform(0, 5) for _ in range(n)]
        if max(column) == min(column):
            column[0] += 1.0
        identical = [[x, x] for x in column]
        assert icc_absolute(identical) == 1.0
        shifted = [[x, x + 0.75] for x in column]
        assert icc_absolute(shifted) < icc_absolute(identical)
    print("ACCEPTANCE 4 PASS: intraclass correlation matches exact ANOVA")


# --- criterion 5: confusion metrics against exact formulas -------------------


def test_criterion_05_confusion_metric_formulas():
    rng = random.Random(505)
    checked = 0
    while checked < 200:
        counts = (
            (rng.randrange(0, 500), rng.randrange(0, 500)),
            (rng.randrange(0, 500), rng.randrange(0, 500)),
        )
        (tt, tc), (ct, cc) = counts
        total = tt + tc + ct + cc
        if total == 0:
            continue
        checked += 1
        matrix = ConfusionMatrix(counts=counts)
        rows = (tt + tc, ct + cc)
        cols = (tt + ct, tc + cc)
        acc = Fraction(tt + cc, total)
        f1_sum = Fraction(0)
        for cls, tp in ((0, tt), (1, cc)):
            precision = Fraction(tp, cols[cls]) if cols[cls] else Fraction(0)
            recall = Fraction(tp, rows[cls]) if rows[cls] else Fraction(0)
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else Fraction(0)
            )
            f1_sum += Fraction(rows[cls], total) * f1
        p_e = Fraction(rows[0] * cols[0] + rows[1] * cols[1], total * total)
        assert accuracy(matrix) == pytest.approx(float(acc), abs=1e-12)
        assert weighted_f1(matrix) == pytest.approx(float(f1_sum), abs=1e-12)
        if p_e == 1:
            assert cohen_kappa(matrix) is None
        else:
            kappa = (acc - p_e) / (1 - p_e)
            assert cohen_kappa(matrix) == pytest.approx(float(kappa), abs=1e-12)

    perfect = ConfusionMatrix(counts=((50, 0), (0, 50)))
    assert accuracy(perfect) == 1.0
    assert weighted_f1(perfect) == 1.0
    assert cohen_kappa(perfect) == 1.0
    chance = ConfusionMatrix(counts=((25, 25), (25, 25)))
    assert cohen_kappa(chance) == 0.0
    print("ACCEPTANCE 5 PASS: confusion metrics match exact formulas")


# --- criterion 6: response links against a quadratic scan --------------------


def test_criterion_06_response_links_oracle_and_shift():
    rng = random.Random(606)
    for _ in range(100):
        transcript = syn.random_transcript(rng, rng.randrange(0, 201))
        got = sorted(
            (link.target_utt_id, link.response_utt_id, link.latency)
            for link in detect_responses(transcript)
        )
        want = sorted(
            (target.id, response.id, response.onset - target.offset)
            for target in transcript.utterances
            for response in transcript.utterances
            if response.role is not target.role
            and response.onset > target.onset
            and response.onset <= target.offset + 2.5
        )
        assert got == want

    # dyadic timestamps make the arithmetic exact, so shifting the whole
    # recording must leave links and latencies bit-identical
    for _ in range(30):
        n = rng.randrange(2, 60)
        rows = []
        clock = 0
        for i in range(n):
            clock += rng.randrange(0, 192)
            length = rng.randrange(16, 192)
            rows.append(
                (clock / 64.0, (clock + length) / 64.0, rng.choice(("teacher", "child", "other")))
            )
            clock += length
        shift = rng.randrange(1, 1000)
        minutes = (rows[-1][1] + shift) / 60.0 + 1.0
        meta = syn.make_meta(duration_minutes=minutes)
        base = syn.transcript(
            [syn.utt(i, s, e, "w", r) for i, (s, e, r) in enumerate(rows)], meta
        )
        moved = syn.transcript(
            [syn.utt(i, s + shift, e + shift, "w", r) for i, (s, e, r) in enumerate(rows)],
            meta,
        )
        assert [
            (l.target_utt_id, l.response_utt_id, l.latency)
            for l in detect_responses(base)
        ] == [
            (l.target_utt_id, l.response_utt_id, l.latency)
            for l in detect_responses(moved)
        ]
    print("ACCEPTANCE 6 PASS: response links match quadratic oracle, shift-stable")


# --- criterion 7: aligner against exhaustive matching enumeration ------------


def best_matching_score(machine, expert, config):
    n, m = len(machine), len(expert)
    scores = [
        [pair_score(machine[i], expert[j], config) for j in range(m)] for i in range(n)
    ]
    best = -(n + m) * config.gap_penalty
    for k in range(1, min(n, m) + 1):
        base = -(n + m - 2 * k) * config.gap_penalty
        for left in itertools.combinations(range(n), k):
            for right in itertools.combinations(range(m), k):
                total = base
                for i, j in zip(left, right):
                    total += scores[i][j]
                if total > best:
                    best = total
    return best


def test_criterion_07_alignment_optimality():
    rng = random.Random(707)
    config = AlignConfig()
    for trial in range(50):
        n = rng.randrange(0, 9)
        m = rng.randrange(0, 9)
        machine = list(syn.random_transcript(rng, n, duration_minutes=3.0).utterances)
        expert = list(
            syn.random_transcript(rng, m, duration_minutes=3.0, source="expert").utterances
        )
        _, got = _dp(machine, expert, config)
        want = best_matching_score(machine, expert, config)
        assert got == pytest.approx(want, abs=1e-9), f"instance {trial}: {got} != {want}"
    print("ACCEPTANCE 7 PASS: aligner score equals exhaustive matching maximum")


# --- criterion 8: scale, speed, and worker-count determinism -----------------


SCALE_TEXTS = [
    "how is the weather",
    "it is sunny today",
    "can you tell me more",
    "i think so too",
    "what do you see here",
    "the big red block",
    "yes",
    "that one goes on top",
    "now we count them all",
    "one two three four five",
]


def _write_scale_corpus(root: Path) -> int:
    """A million-utterance corpus: mostly machine-only recordings, plus a
    few with linked expert tables so agreement statistics run too."""
    root.mkdir(parents=True)
    total = 0
    n_plain, plain_size = 50, 19_800
    n_linked, linked_size = 2, 5_000
    for r in range(n_plain + n_linked):
        size = plain_size if r < n_plain else linked_size
        rec = f"rec{r:03d}"
        machine_lines = []
        expert_lines = ["start\tend\tspeaker\ttext\tmachine_id"]
        clock = 0.0
        for i in range(size):
            text = SCALE_TEXTS[(i + r) % len(SCALE_TEXTS)]
            role = "teacher" if (i + r) % 3 else "child"
            start = round(clock, 2)
            end = round(clock + 1.0, 2)
            machine_lines.append(
                f'{{"start": {start}, "end": {end}, "text": "{text}", "speaker": "{role}"}}'
            )
            if r >= n_plain:
                expert_lines.append(f"{start}\t{end}\t{role}\t{text}\t{i + 1}")
            clock += 1.2
        (root / f"{rec}.machine.jsonl").write_text(
            "\n".join(machine_lines) + "\n", encoding="utf-8"
        )
        if r >= n_plain:
            (root / f"{rec}.expert.tsv").write_text(
                "\n".join(expert_lines) + "\n", encoding="utf-8"
            )
        (root / f"{rec}.meta.json").write_text(
            json.dumps(
                {
                    "recording_id": rec,
                    "wearer_role": "teacher",
                    "classroom_id": "roomA",
                    "academic_year": "2023-2024",
                    "duration_minutes": clock / 60.0 + 1.0,
                }
            ),
            encoding="utf-8",
        )
        total += size
    return total


def _timed_batch(root: Path, out: Path, workers: int) -> float:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "talkmetrics.cli",
            "batch",
            "--root",
            str(root),
            "--out",
            str(out),
            "--workers",
            str(workers),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    return elapsed


def test_criterion_08_scale_speed_and_determinism(tmp_path_factory):
    import resource

    base = tmp_path_factory.mktemp("scale")
    root = base / "corpus"
    total = _write_scale_corpus(root)
    assert total >= 1_000_000

    out_serial = base / "serial"
    out_parallel = base / "parallel"
    elapsed_serial = _timed_batch(root, out_serial, workers=1)
    elapsed_parallel = _timed_batch(root, out_parallel, workers=3)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert elapsed_serial < 60.0, f"serial run took {elapsed_serial:.1f}s"
    assert elapsed_parallel < 60.0, f"parallel run took {elapsed_parallel:.1f}s"
    assert peak_kb < 2 * 1024 * 1024, f"peak rss {peak_kb / 1024:.0f} MiB"

    serial_files = sorted(p.relative_to(out_serial) for p in out_serial.rglob("*"))
    parallel_files = sorted(p.relative_to(out_parallel) for p in out_parallel.rglob("*"))
    assert serial_files == parallel_files
    for rel in serial_files:
        assert (out_serial / rel).read_bytes() == (out_parallel / rel).read_bytes(), rel
    print(
        f"ACCEPTANCE 8 PASS: {total} utterances, {elapsed_serial:.1f}s serial /"
        f" {elapsed_parallel:.1f}s parallel, peak {peak_kb / 1024:.0f} MiB,"
        " byte-identical outputs"
    )


# --- criterion 9: report formats accept externally supplied results ----------


def external_results_payload() -> dict:
    """A results file whose metric values were supplied from outside.

    Corpus-scale agreement numbers need data this repository does not
    ship, so rendering must work on values it never computed.
    """
    def feature_row(role: str, source: str) -> FeatureSummary:
        return FeatureSummary(
            recording_id="ext-001",
            source=source,
            role=SpeakerRole(role),
            n_utterances=1200,
            n_questions=360,
            n_non_questions=840,
            mlu_overall=4.9,
            mlu_question=5.4,
            mlu_non_question=4.7,
            words_per_minute=32.1,
            n_responded_questions=119,
            n_responded_non_questions=232,
            prop_responded_questions=119 / 360,
            prop_responded_non_questions=232 / 840,
            pct_questions=0.3,
            n_responses_given=410,
            lexical_diversity_per_minute=21.4,
            lexical_diversity_pooled=9.8,
        )

    def row(recording_id: str, f1: float, acc: float, kappa: float) -> RecordingReliability:
        return RecordingReliability(
            recording_id=recording_id,
            classroom_id="ext-room",
            academic_year="2021-2022",
            wearer_role=SpeakerRole.TEACHER,
            duration_minutes=210.0,
            confusion=ConfusionMatrix(counts=((4200, 700), (680, 3300))),
            metrics=MetricSet(
                f1_weighted=f1, accuracy=acc, kappa=kappa,
                wer_teacher=0.113, wer_child=0.244,
            ),
            wer_sum_teacher=452.0,
            wer_count_teacher=4000,
            wer_sum_child=976.0,
            wer_count_child=4000,
        )

    headline = MetricSet(
        f1_weighted=0.845, accuracy=0.846, kappa=0.672,
        wer_teacher=0.119, wer_child=0.238,
    )
    report = ReliabilityReport(
        rows=(
            row("ext-001", 0.861, 0.862, 0.70),
            row("ext-002", 0.828, 0.829, 0.64),
        ),
        overall=headline,
        time_weighted=MetricSet(
            f1_weighted=0.842, accuracy=0.843, kappa=0.668,
            wer_teacher=0.121, wer_child=0.241,
        ),
        iccs={
            "teacher_questions_per_minute": IccEntry(0.97, 110, 0),
            "teacher_non_questions_per_minute": IccEntry(0.93, 110, 0),
            "teacher_responses_per_minute": IccEntry(0.81, 110, 0),
            "teacher_response_proportion": IccEntry(0.76, 108, 2),
            "teacher_mlu_overall": IccEntry(0.65, 110, 0),
            "child_lexical_diversity_per_minute": IccEntry(0.31, 104, 6),
        },
    )
    role_stats = {
        "teacher": {
            "n_recordings": 110,
            "n_utterances": 2071,
            "n_questions": 640,
            "n_non_questions": 1431,
            "n_responded_questions": 212,
            "n_responded_non_questions": 402,
            "n_responses_given": 690,
            "total_words": 10150,
            "mlu_pooled": 4.9,
            "words_per_minute_pooled": 31.0,
            "prop_responded_questions_pooled": 212 / 640,
            "prop_responded_non_questions_pooled": 402 / 1431,
            "pct_questions_pooled": 640 / 2071,
            "pct_questions_mean": 0.31,
            "mean_lexical_diversity_per_minute": 20.3,
        },
        "child": {
            "n_recordings": 110,
            "n_utterances": 1317,
            "n_questions": 230,
            "n_non_questions": 1087,
            "n_responded_questions": 80,
            "n_responded_non_questions": 300,
            "n_responses_given": 512,
            "total_words": 3950,
            "mlu_pooled": 3.0,
            "words_per_minute_pooled": 12.0,
            "prop_responded_questions_pooled": 80 / 230,
            "prop_responded_non_questions_pooled": 300 / 1087,
            "pct_questions_pooled": 230 / 1317,
            "pct_questions_mean": 0.17,
            "mean_lexical_diversity_per_minute": 11.2,
        },
    }
    result = PipelineResult(
        config=RunConfig().semantic_dict(),
        corpus={
            "n_recordings": 110,
            "n_failed": 0,
            "hours": 388.0,
            "n_machine_utterances": 815000,
            "n_expert_utterances": 9000,
        },
        features=(
            feature_row("teacher", "machine"),
            feature_row("child", "machine"),
            feature_row("teacher", "expert"),
            feature_row("child", "expert"),
        ),
        reliability=report,
        aggregate={
            "machine": {**role_stats, "teacher_child_utterance_ratio": 2071 / 1317}
        },
        errors=(),
    )
    return syn.encoded(result)


def test_criterion_09_reports_render_external_results(tmp_path):
    payload = external_results_payload()
    result = decode(PipelineResult, json.loads(json.dumps(payload)))
    out = tmp_path / "rendered"
    written = emit_report(result, out, format="csv")
    assert sorted(p.name for p in written) == [
        "aggregate_features.csv",
        "features.csv",
        "icc.csv",
        "reliability_per_recording.csv",
        "results.json",
    ]
    reliability_csv = (out / "reliability_per_recording.csv").read_text()
    overall_line = reliability_csv.splitlines()[-1]
    assert overall_line.startswith("Overall,")
    assert "0.845" in overall_line and "0.846" in overall_line and "0.672" in overall_line
    assert "0.119" in overall_line and "0.238" in overall_line
    icc_csv = (out / "icc.csv").read_text()
    assert "teacher_questions_per_minute,0.97,110,0,false" in icc_csv
    aggregate_csv = (out / "aggregate_features.csv").read_text()
    assert "1.573" in aggregate_csv  # teacher/child utterance ratio
    json_only = emit_report(result, tmp_path / "json_out", format="json")
    assert [p.name for p in json_only] == ["results.json"]
    print("ACCEPTANCE 9 PASS: report formats render externally supplied results")
