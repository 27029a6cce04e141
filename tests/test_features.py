"""Language-feature extraction, checked against straight-from-definition
reference computations (a full O(n^2) pair scan for responses, scripted
tallies for the summary battery).
"""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.codec import decode, field_values
from talkmetrics.features import (
    FEATURE_COLUMNS,
    ICC_FEATURES,
    MIN_LD_WINDOW,
    FeatureSummary,
    detect_responses,
    ratio,
    response_proportion,
    summarize,
)
from talkmetrics.transcript import (
    MAX_DURATION_MINUTES,
    MIN_DURATION_MINUTES,
    ROLES,
    Source,
    SpeakerRole,
    is_question,
)

TEACHER, CHILD = SpeakerRole.TEACHER, SpeakerRole.CHILD


def summary_of(utterances, duration_minutes=5.0, role=TEACHER, **kwargs):
    """The summary of ``role`` in a transcript of ``utterances``."""
    transcript = syn.transcript(utterances, syn.make_meta(duration_minutes=duration_minutes))
    return summarize(transcript, role, detect_responses(transcript), **kwargs)


# --- MLU ---------------------------------------------------------------------


class TestMlu:
    def test_simple_mean(self):
        utts = [syn.utt(1, 0, 1, "one two three"), syn.utt(2, 2, 3, "one two three four five")]
        assert summary_of(utts).mlu_overall == 4.0

    def test_empty_is_none(self):
        assert summary_of([]).mlu_overall is None

    def test_wordless_utterances_skipped(self):
        utts = [syn.utt(1, 0, 1, "one two"), syn.utt(2, 2, 3, "[laughs]")]
        summary = summary_of(utts)
        assert summary.mlu_overall == 2.0
        assert summary.n_utterances == 1

    def test_all_wordless_is_none(self):
        assert summary_of([syn.utt(1, 0, 1, "[coughs]")]).mlu_overall is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("teacher", "child", "other")),
                st.integers(0, 3) | st.integers(64, 300),
            ),
            max_size=40,
        ),
        st.sampled_from(SpeakerRole),
    )
    @settings(max_examples=150, deadline=None)
    def test_rounded_product_is_the_word_count(self, rows, role):
        # the corpus pooling reads each row's word total this way
        utts = [
            syn.utt(i, i, i + 0.5, " ".join(["word"] * words) or "[laughs]", label)
            for i, (label, words) in enumerate(rows)
        ]
        transcript = syn.transcript(utts, syn.make_meta(duration_minutes=1.0))
        summary = summarize(transcript, role, detect_responses(transcript))
        total = summary.n_utterances and round(summary.mlu_overall * summary.n_utterances)
        assert total == syn.word_count(transcript, role)


class TestWordsPerMinute:
    def test_rate(self):
        utts = [syn.utt(1, 0, 1, "one two three"), syn.utt(2, 2, 3, "four five six seven eight")]
        assert summary_of(utts, duration_minutes=2.0).words_per_minute == 4.0
        assert summary_of(utts, duration_minutes=2.0, role=CHILD).words_per_minute == 0.0


# --- responses ---------------------------------------------------------------


def oracle_links(transcript, window):
    """Quadratic scan over every ordered pair, straight from the rule."""
    found = []
    for target in transcript.utterances:
        for response in transcript.utterances:
            if (
                response.role is not target.role
                and response.onset > target.onset
                and response.onset <= target.offset + window
            ):
                found.append(
                    (target.id, response.id, response.onset - target.offset)
                )
    return found


class TestDetectResponses:
    def test_reply_within_window(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 5.0, 10.0, "any questions?", "teacher"),
                syn.utt(2, 12.0, 13.0, "yes", "child"),
            ]
        )
        links = detect_responses(transcript)
        assert len(links) == 1
        assert links[0].target_utt_id == "1"
        assert links[0].response_utt_id == "2"
        assert links[0].latency == 2.0

    def test_reply_past_window_ignored(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 5.0, 10.0, "any questions?", "teacher"),
                syn.utt(2, 12.6, 13.0, "yes", "child"),
            ]
        )
        assert detect_responses(transcript) == ()

    def test_window_boundary_inclusive(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 5.0, 10.0, "x", "teacher"),
                syn.utt(2, 12.5, 13.0, "y", "child"),
            ]
        )
        assert len(detect_responses(transcript)) == 1

    def test_overlapping_reply_has_negative_latency(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 5.0, 10.0, "x", "teacher"),
                syn.utt(2, 8.0, 11.0, "y", "child"),
            ]
        )
        links = detect_responses(transcript)
        assert len(links) == 1
        assert links[0].latency == -2.0

    def test_simultaneous_onset_is_not_a_response(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 5.0, 10.0, "x", "teacher"),
                syn.utt(2, 5.0, 7.0, "y", "child"),
            ]
        )
        assert detect_responses(transcript) == ()

    def test_same_role_never_linked(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 0.0, 1.0, "x", "teacher"),
                syn.utt(2, 1.5, 2.0, "y", "teacher"),
            ]
        )
        assert detect_responses(transcript) == ()

    def test_single_role_transcript_has_no_links(self):
        rng = random.Random(2)
        transcript = syn.random_transcript(rng, 40, roles=("child",))
        assert detect_responses(transcript) == ()

    def test_other_speakers_participate(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 0.0, 1.0, "x", "teacher"),
                syn.utt(2, 1.5, 2.0, "y", "other"),
            ]
        )
        assert len(detect_responses(transcript)) == 1

    def test_one_target_many_responses(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 0.0, 4.0, "q", "teacher"),
                syn.utt(2, 1.0, 2.0, "a", "child"),
                syn.utt(3, 2.0, 3.0, "b", "other"),
            ]
        )
        links = detect_responses(transcript)
        targets = [link.target_utt_id for link in links]
        assert targets.count("1") == 2

    def test_custom_window(self):
        transcript = syn.transcript(
            [
                syn.utt(1, 0.0, 1.0, "q", "teacher"),
                syn.utt(2, 5.0, 6.0, "a", "child"),
            ]
        )
        assert detect_responses(transcript, window=2.5) == ()
        assert len(detect_responses(transcript, window=4.0)) == 1

    def test_matches_quadratic_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            transcript = syn.random_transcript(rng, rng.randrange(0, 60))
            got = [
                (link.target_utt_id, link.response_utt_id, link.latency)
                for link in detect_responses(transcript)
            ]
            assert sorted(got) == sorted(oracle_links(transcript, 2.5))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_global_shift_preserves_links(self, seed, shift):
        # dyadic onsets make every comparison exact, so the link set and
        # latencies must survive a whole-recording time shift unchanged
        rng = random.Random(seed)
        n = rng.randrange(2, 30)
        rows = []
        clock = 0
        for i in range(n):
            clock += rng.randrange(0, 256)  # 64ths of a second
            length = rng.randrange(16, 256)
            rows.append((clock / 64.0, (clock + length) / 64.0, rng.choice(("teacher", "child", "other"))))
            clock += length
        minutes = max((rows[-1][1] + shift) / 60.0 + 1.0, 1.0)
        meta = syn.make_meta(duration_minutes=minutes)
        base = syn.transcript(
            [syn.utt(i, s, e, "w", r) for i, (s, e, r) in enumerate(rows)], meta
        )
        moved = syn.transcript(
            [syn.utt(i, s + shift, e + shift, "w", r) for i, (s, e, r) in enumerate(rows)],
            meta,
        )
        base_links = [
            (l.target_utt_id, l.response_utt_id, l.latency) for l in detect_responses(base)
        ]
        moved_links = [
            (l.target_utt_id, l.response_utt_id, l.latency) for l in detect_responses(moved)
        ]
        assert base_links == moved_links


class TestRatio:
    def test_quotient(self):
        assert ratio(3, 4) == 0.75
        assert ratio(0, 5) == 0.0
        assert ratio(1.5, 0.5) == 3.0

    def test_nothing_to_divide_by_is_none(self):
        assert ratio(0, 0) is None
        assert ratio(5, 0) is None
        assert ratio(1.5, 0.0) is None


class TestResponseProportion:
    def test_fractions(self):
        assert response_proportion(40, 122) == pytest.approx(0.33, abs=0.005)
        assert response_proportion(356, 1590) == pytest.approx(0.22, abs=0.005)

    def test_zero_total_is_none(self):
        assert response_proportion(0, 0) is None


# --- lexical diversity -------------------------------------------------------


class TestLexicalDiversity:
    def test_repeated_tokens_counted_once(self):
        summary = summary_of([syn.utt(1, 0, 2, "the cat the cat")], duration_minutes=1.0)
        assert summary.lexical_diversity_per_minute == 2.0

    def test_silent_windows_drag_the_mean(self):
        # four types in the first minute, nothing in the second
        summary = summary_of([syn.utt(1, 0, 2, "one two three four")], duration_minutes=2.0)
        assert summary.lexical_diversity_per_minute == 2.0

    def test_onset_buckets_split_types(self):
        utts = [syn.utt(1, 0, 2, "alpha beta"), syn.utt(2, 61, 62, "alpha gamma")]
        assert summary_of(utts, duration_minutes=2.0).lexical_diversity_per_minute == 2.0

    def test_boundary_onset_goes_to_later_window(self):
        # "word" at 60.0 s counts in the second window: one type in each;
        # in the first window it would leave the second empty (mean 0.5)
        utts = [syn.utt(1, 0.0, 1.0, "word"), syn.utt(2, 60.0, 61.0, "word")]
        assert summary_of(utts, duration_minutes=2.0).lexical_diversity_per_minute == 1.0

    def test_late_utterance_extends_partition(self):
        # a one-minute recording, an onset at 70 s: windows [0, 60) and [60, 120)
        summary = summary_of([syn.utt(1, 70.0, 71.0, "early late")], duration_minutes=1.0)
        assert summary.lexical_diversity_per_minute == 1.0

    def test_other_roles_ignored(self):
        utts = [syn.utt(1, 0, 1, "teacher words"), syn.utt(2, 2, 3, "child says more", "child")]
        summary = summary_of(utts, duration_minutes=1.0, role=CHILD)
        assert summary.lexical_diversity_per_minute == 3.0
        assert summary.lexical_diversity_pooled == 3.0
        assert summary.n_utterances == 1

    def test_pooled_rate(self):
        utts = [syn.utt(1, 0, 2, "a b c"), syn.utt(2, 61, 62, "a d")]
        assert summary_of(utts, duration_minutes=2.0).lexical_diversity_pooled == 2.0

    def test_custom_window_width(self):
        utts = [syn.utt(1, 0, 1, "a b"), syn.utt(2, 31, 32, "c")]
        summary = summary_of(utts, duration_minutes=1.0, ld_window=30.0)
        assert summary.lexical_diversity_per_minute == 1.5
        # the window width moves only the per-window mean
        assert summary.lexical_diversity_pooled == 3.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            summary_of([syn.utt(1, 0, 1, "a")], ld_window=0.0)

    @pytest.mark.parametrize("window", [1e-320, float("nan"), 0.5])
    def test_sub_second_window_rejected(self, window):
        # the words of RunConfig and --ld-window, not an overflow on the first onset
        with pytest.raises(ValueError, match=f"^ld_window must be at least 1 second: {window}$"):
            summary_of([syn.utt(1, 0, 1, "a")], ld_window=window)

    def test_wordless_utterance_extends_partition(self):
        # "[laughs]" has no words, but its onset at 170 s still makes three
        # windows of a one-minute recording
        utts = [syn.utt(1, 0.0, 1.0, "a b"), syn.utt(2, 170.0, 171.0, "[laughs]")]
        assert summary_of(utts, duration_minutes=1.0).lexical_diversity_per_minute == 2 / 3

    def test_far_onset_holds_only_its_window(self):
        # one utterance a year into a five-minute recording: the mean still
        # counts every window up to it, but only the non-empty one is held
        onset = 3e7
        meta = syn.make_meta(duration_minutes=5.0)
        text = syn.transcript([syn.utt(1, onset, onset + 1.0, "one two three")], meta)
        tracemalloc.start()
        try:
            summary = summarize(text, TEACHER, links=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        n_windows = max(math.ceil(300.0 / 60.0), 1, int(onset // 60.0) + 1)
        assert summary.lexical_diversity_per_minute == 3 / n_windows
        assert summary.lexical_diversity_pooled == 3 / 5.0

    @pytest.mark.parametrize("seed", range(20))
    def test_same_values_as_one_set_per_window(self, seed):
        """Equal, bit for bit, to a list holding every window's set."""
        rng = random.Random(seed)
        # onsets run past the half-minute duration, so late windows are added
        text = syn.random_transcript(rng, rng.randrange(0, 40), duration_minutes=0.5)
        meta, columns = text.meta, text.columns
        for ld_window, role in itertools.product((7.0, 30.0, 60.0), (TEACHER, CHILD)):
            windows = [set() for _ in range(max(math.ceil(meta.duration_seconds / ld_window), 1))]
            for onset, utt_role, tokens in zip(columns.onset, columns.role, columns.tokens):
                if utt_role is role:
                    slot = int(onset // ld_window)
                    windows += [set() for _ in range(slot + 1 - len(windows))]
                    windows[slot].update(tokens)
            summary = summarize(text, role, detect_responses(text), ld_window=ld_window)
            assert summary.lexical_diversity_per_minute == sum(map(len, windows)) / len(windows)
            assert summary.lexical_diversity_pooled == (
                len(set().union(*windows)) / meta.duration_minutes
            )


# --- summary battery ---------------------------------------------------------


class TestSummarize:
    def test_child_side_of_fixture(self, weather_machine):
        summary = summarize(weather_machine, SpeakerRole.CHILD, detect_responses(weather_machine))
        assert summary.n_utterances == 5
        assert summary.n_questions == 0
        assert summary.n_non_questions == 5
        assert summary.mlu_overall == pytest.approx(11 / 5)
        assert summary.mlu_question is None
        assert summary.mlu_non_question == pytest.approx(11 / 5)
        assert summary.words_per_minute == pytest.approx(11.0)
        assert summary.n_responded_questions == 0
        assert summary.n_responded_non_questions == 3
        assert summary.prop_responded_questions is None
        assert summary.prop_responded_non_questions == pytest.approx(0.6)
        assert summary.pct_questions == 0.0
        assert summary.n_responses_given == 4
        assert summary.lexical_diversity_per_minute == 10.0
        assert summary.lexical_diversity_pooled == 10.0
        assert summary.source is Source.MACHINE

    def test_teacher_side_of_fixture(self, weather_machine):
        summary = summarize(weather_machine, SpeakerRole.TEACHER, detect_responses(weather_machine))
        assert summary.n_utterances == 5
        assert summary.n_questions == 3
        assert summary.mlu_question == pytest.approx(20 / 3)
        assert summary.mlu_non_question == pytest.approx(2.0)
        assert summary.mlu_overall == pytest.approx(24 / 5)
        assert summary.prop_responded_questions == 1.0
        assert summary.prop_responded_non_questions == 0.5
        assert summary.pct_questions == pytest.approx(0.6)
        assert summary.n_responses_given == 3
        assert summary.lexical_diversity_per_minute == 17.0

    def test_expert_side_differs(self, weather_expert):
        summary = summarize(weather_expert, SpeakerRole.CHILD, detect_responses(weather_expert))
        assert summary.source is Source.EXPERT
        # "Oh a raisin is in there" has six words against the machine's two
        assert summary.mlu_overall == pytest.approx(15 / 5)

    def test_empty_transcript(self):
        transcript = syn.transcript([])
        summary = summarize(transcript, SpeakerRole.TEACHER, detect_responses(transcript))
        assert summary.n_utterances == 0
        assert summary.mlu_overall is None
        assert summary.prop_responded_questions is None
        assert summary.pct_questions is None
        assert summary.words_per_minute == 0.0
        assert summary.n_responses_given == 0

    def test_counts_partition(self):
        rng = random.Random(3)
        transcript = syn.random_transcript(rng, 80)
        for role in (SpeakerRole.TEACHER, SpeakerRole.CHILD):
            summary = summarize(transcript, role, detect_responses(transcript))
            assert summary.n_questions + summary.n_non_questions == summary.n_utterances

    def test_mlu_recovers_word_total(self):
        rng = random.Random(4)
        transcript = syn.random_transcript(rng, 60)
        summary = summarize(transcript, SpeakerRole.TEACHER, detect_responses(transcript))
        spoken = [
            u for u in transcript.utterances
            if u.role is SpeakerRole.TEACHER and u.word_count > 0
        ]
        total = sum(u.word_count for u in spoken)
        if summary.mlu_overall is not None:
            assert summary.mlu_overall * summary.n_utterances == pytest.approx(
                total, rel=1e-12
            )

    def test_scripted_reference_tally(self):
        rng = random.Random(77)
        transcript = syn.random_transcript(rng, 200, duration_minutes=12.0)
        links = oracle_links(transcript, 2.5)
        responded = {t for t, _, _ in links}
        responders = {r for _, r, _ in links}
        for role in (SpeakerRole.TEACHER, SpeakerRole.CHILD):
            spoken = [u for u in transcript.utterances if u.role is role and u.word_count > 0]
            questions = [u for u in spoken if is_question(u.raw_text)]
            summary = summarize(transcript, role, detect_responses(transcript))
            assert summary.n_utterances == len(spoken)
            assert summary.n_questions == len(questions)
            assert summary.n_responded_questions == sum(
                1 for u in questions if u.id in responded
            )
            assert summary.n_responses_given == sum(
                1 for u in spoken if u.id in responders
            )
            words = sum(u.word_count for u in spoken)
            assert summary.words_per_minute == pytest.approx(words / 12.0)
            types = set()
            for u in transcript.utterances:
                if u.role is role:
                    types.update(u.tokens)
            assert summary.lexical_diversity_pooled == pytest.approx(len(types) / 12.0)

    def test_deterministic(self, weather_machine):
        first, second = (
            summarize(weather_machine, SpeakerRole.CHILD, detect_responses(weather_machine))
            for _ in range(2)
        )
        assert first == second

    def test_round_trip(self, weather_machine):
        summary = summarize(weather_machine, SpeakerRole.TEACHER, detect_responses(weather_machine))
        import json

        clone = decode(FeatureSummary, json.loads(json.dumps(syn.encoded(summary))))
        assert clone == summary

    def test_column_list_matches_fields(self):
        from dataclasses import fields

        assert tuple(f.name for f in fields(FeatureSummary)) == FEATURE_COLUMNS


# --- rate grid for between-rater comparison ----------------------------------


def icc_values(summary, duration_minutes):
    """Each ICC feature's value for one summary."""
    return {name: value(summary, duration_minutes) for name, value in ICC_FEATURES.items()}


class TestIccFeatures:
    def test_counts_become_rates(self, weather_machine):
        summary = summarize(weather_machine, SpeakerRole.TEACHER, detect_responses(weather_machine))
        values = icc_values(summary, duration_minutes=2.0)
        assert values["questions_per_minute"] == pytest.approx(1.5)
        assert values["non_questions_per_minute"] == pytest.approx(1.0)
        assert values["responses_per_minute"] == pytest.approx(1.5)
        assert values["response_proportion"] == pytest.approx(4 / 5)
        assert values["mlu_overall"] == summary.mlu_overall

    def test_covers_declared_features(self, weather_machine):
        summary = summarize(weather_machine, SpeakerRole.CHILD, detect_responses(weather_machine))
        assert list(icc_values(summary, duration_minutes=1.0)) == [
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
        ]


# --- every feature value is finite ---------------------------------------------

finite_times = st.floats(min_value=0.0, allow_infinity=False)
# every positive float: the bounds, Hypothesis's own mix, and a draw uniform
# in the exponent, which reaches the subnormals
positive_floats = (
    st.sampled_from((MIN_DURATION_MINUTES, MAX_DURATION_MINUTES))
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023))
)


@settings(max_examples=200, deadline=None)
@given(
    duration=positive_floats,
    ld_window=st.sampled_from((MIN_LD_WINDOW, 60.0))
    | st.floats(min_value=MIN_LD_WINDOW, allow_infinity=False),
    rows=st.lists(
        st.tuples(
            finite_times,
            finite_times,
            st.sampled_from((*syn.TEXT_POOL, "", "[noise]")),
            st.sampled_from(("teacher", "child", "other")),
        ),
        max_size=12,
    ),
)
@example(duration=1e-320, ld_window=60.0, rows=[(0.0, 1.0, "It's sunny outside.", "teacher")])
def test_feature_values_finite_for_every_accepted_duration(duration, ld_window, rows):
    # any positive float is drawn; the metadata's own bounds decide which
    # durations a run can ever see. Each summary also keeps the count
    # invariants its proportions rely on, so each proportion is a share.
    try:
        meta = syn.make_meta(duration_minutes=duration)
    except ValueError:
        reject()
    utterances = [
        syn.utt(i, min(a, b), max(a, b), text, role) for i, (a, b, text, role) in enumerate(rows)
    ]
    transcript = syn.transcript(utterances, meta)
    links = detect_responses(transcript)
    for role in ROLES:
        summary = summarize(transcript, role, links, ld_window=ld_window)
        icc = icc_values(summary, duration)
        values = [*field_values(summary), *icc.values()]
        floats = [value for value in values if isinstance(value, float)]
        assert all(map(math.isfinite, floats)), (summary, floats)
        assert summary.n_responded_questions <= summary.n_questions, summary
        assert summary.n_responded_non_questions <= summary.n_non_questions, summary
        assert summary.n_questions + summary.n_non_questions == summary.n_utterances, summary
        assert summary.n_responses_given <= summary.n_utterances, summary
        proportions = (
            summary.prop_responded_questions,
            summary.prop_responded_non_questions,
            summary.pct_questions,
            icc["response_proportion"],
        )
        assert all(p is None or 0.0 <= p <= 1.0 for p in proportions), (summary, proportions)
