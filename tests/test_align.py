"""Alignment behavior, including a brute-force oracle for the scored
matching: enumerate every monotone pairing of two small transcripts and
check the dynamic program finds the maximum-score one.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
import talkmetrics.align as align_module
from talkmetrics.align import (
    AlignConfig,
    NotLinked,
    _dp,
    _plain_dp,
    align,
    align_by_index,
    align_by_time,
    pair_score,
    text_similarity,
    time_iou,
    write_alignment_jsonl,
)
from talkmetrics.reliability import cross_classify

# --- pair scores -----------------------------------------------------------


class TestTimeIou:
    def test_identical(self):
        a = syn.utt(1, 0.0, 2.0, "x")
        assert time_iou(a, a) == 1.0

    def test_half_overlap(self):
        a = syn.utt(1, 0.0, 2.0, "x")
        b = syn.utt(2, 1.0, 3.0, "x")
        assert time_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        a = syn.utt(1, 0.0, 1.0, "x")
        b = syn.utt(2, 2.0, 3.0, "x")
        assert time_iou(a, b) == 0.0

    def test_touching_endpoints(self):
        a = syn.utt(1, 0.0, 1.0, "x")
        b = syn.utt(2, 1.0, 2.0, "x")
        assert time_iou(a, b) == 0.0

    def test_zero_length_both(self):
        a = syn.utt(1, 1.0, 1.0, "x")
        b = syn.utt(2, 1.0, 1.0, "x")
        assert time_iou(a, b) == 0.0

    def test_containment(self):
        outer = syn.utt(1, 0.0, 4.0, "x")
        inner = syn.utt(2, 1.0, 2.0, "x")
        assert time_iou(outer, inner) == pytest.approx(0.25)

    @given(
        st.floats(0, 50, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
        st.floats(0, 50, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
    def test_bounded_and_symmetric(self, s1, d1, s2, d2):
        a = syn.utt(1, s1, s1 + d1, "x")
        b = syn.utt(2, s2, s2 + d2, "x")
        assert 0.0 <= time_iou(a, b) <= 1.0
        assert time_iou(a, b) == time_iou(b, a)


class TestTextSimilarity:
    def test_identical(self):
        a = syn.utt(1, 0, 1, "hello there")
        b = syn.utt(2, 0, 1, "Hello there!")
        assert text_similarity(a, b) == 1.0

    def test_disjoint_words(self):
        a = syn.utt(1, 0, 1, "a b")
        b = syn.utt(2, 0, 1, "c d")
        assert text_similarity(a, b) == 0.0

    def test_partial(self):
        a = syn.utt(1, 0, 1, "the cat sat")
        b = syn.utt(2, 0, 1, "the cat ran")
        assert text_similarity(a, b) == pytest.approx(2.0 / 3.0)

    def test_both_empty(self):
        a = syn.utt(1, 0, 1, "[laughs]")
        b = syn.utt(2, 0, 1, "")
        assert text_similarity(a, b) == 1.0

    def test_one_empty(self):
        a = syn.utt(1, 0, 1, "[laughs]")
        b = syn.utt(2, 0, 1, "hello")
        assert text_similarity(a, b) == 0.0

    @given(
        st.lists(st.sampled_from("abc"), max_size=6),
        st.lists(st.sampled_from("abc"), max_size=6),
    )
    def test_bounded_and_symmetric(self, wa, wb):
        a = syn.utt(1, 0, 1, " ".join(wa))
        b = syn.utt(2, 0, 1, " ".join(wb))
        assert 0.0 <= text_similarity(a, b) <= 1.0
        assert text_similarity(a, b) == text_similarity(b, a)


# the time range an utterance may take, its ends, and subnormals
EXTREME_TIMES = st.floats(0.0, sys.float_info.max) | st.sampled_from(
    [0.0, 5e-324, sys.float_info.min, 1.0, sys.float_info.max / 2, sys.float_info.max]
)
TEXTS = st.lists(st.sampled_from(["a", "b", "cc", "[laughs]", "?"]), max_size=70).map(" ".join)


@settings(max_examples=300)
@given(st.lists(EXTREME_TIMES, min_size=4, max_size=4), TEXTS, TEXTS)
def test_scores_stay_in_unit_interval(times, text_a, text_b):
    # no clamp keeps them there: an overlap's union is at least its
    # intersection, and a word edit distance at most the longer word count
    a = syn.utt(1, *sorted(times[:2]), text_a)
    b = syn.utt(2, *sorted(times[2:]), text_b, source="expert")
    assert 0.0 <= time_iou(a, b) <= 1.0
    assert 0.0 <= text_similarity(a, b) <= 1.0


# --- identifier alignment --------------------------------------------------


class TestAlignByIndex:
    def test_weather_fixture_pairs_every_row(self, weather_corpus):
        assert len(weather_corpus.pairs) == 10
        assert weather_corpus.machine_only == ()
        assert weather_corpus.expert_only == ()
        for pair in weather_corpus.pairs:
            assert pair.expert_utt.linked_id == pair.machine_utt.id

    def test_unlinked_expert_rows_become_residue(self):
        machine = syn.transcript([syn.utt(1, 0, 1, "a"), syn.utt(2, 2, 3, "b")])
        expert = syn.transcript(
            [
                syn.utt("e1", 0, 1, "a", source="expert", linked_id="1"),
                syn.utt("e2", 2, 3, "b", source="expert", linked_id=None),
            ],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        assert len(corpus.pairs) == 1
        assert [u.id for u in corpus.expert_only] == ["e2"]
        assert [u.id for u in corpus.machine_only] == ["2"]

    def test_duplicate_claims_keep_first(self):
        machine = syn.transcript([syn.utt(1, 0, 1, "a")])
        expert = syn.transcript(
            [
                syn.utt("e1", 0, 1, "a", source="expert", linked_id="1"),
                syn.utt("e2", 2, 3, "b", source="expert", linked_id="1"),
            ],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        assert len(corpus.pairs) == 1
        assert corpus.pairs[0].expert_utt.id == "e1"
        assert [u.id for u in corpus.expert_only] == ["e2"]

    def test_dangling_reference_becomes_residue(self):
        machine = syn.transcript([syn.utt(1, 0, 1, "a")])
        expert = syn.transcript(
            [syn.utt("e1", 0, 1, "a", source="expert", linked_id="99")],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        assert corpus.pairs == ()
        assert [u.id for u in corpus.expert_only] == ["e1"]
        assert [u.id for u in corpus.machine_only] == ["1"]

    def test_crossing_links_reduced_to_increasing_subsequence(self):
        machine = syn.transcript(
            [syn.utt(i, 2.0 * i, 2.0 * i + 1, "w") for i in range(1, 5)]
        )
        # expert rows in order claim machine ids 2, 1, 3, 4: the 1 crosses
        claims = ["2", "1", "3", "4"]
        expert = syn.transcript(
            [
                syn.utt(f"e{i}", 2.0 * i, 2.0 * i + 1, "w", source="expert", linked_id=c)
                for i, c in enumerate(claims)
            ],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        kept = [p.machine_utt.id for p in corpus.pairs]
        assert kept == ["2", "3", "4"]
        assert [u.id for u in corpus.expert_only] == ["e1"]
        assert [u.id for u in corpus.machine_only] == ["1"]

    def test_requires_linked_transcript(self):
        machine = syn.transcript([syn.utt(1, 0, 1, "a")])
        expert = syn.transcript(
            [syn.utt("e1", 0, 1, "a", source="expert")], linked=False
        )
        with pytest.raises(NotLinked):
            align_by_index(machine, expert)

    def test_pair_scores_populated(self):
        machine = syn.transcript([syn.utt(1, 0, 2, "hello there")])
        expert = syn.transcript(
            [syn.utt("e1", 0, 2, "hello there", source="expert", linked_id="1")],
            linked=True,
        )
        pair = align_by_index(machine, expert).pairs[0]
        assert time_iou(pair.machine_utt, pair.expert_utt) == 1.0
        assert text_similarity(pair.machine_utt, pair.expert_utt) == 1.0


# --- time alignment --------------------------------------------------------


def brute_force_best_score(machine, expert, config):
    """Score of the best monotone matching, found by enumerating every
    ordered pairing of k machine rows with k expert rows."""
    n, m = len(machine), len(expert)
    scores = [[pair_score(utt_m, utt_e, config) for utt_e in expert] for utt_m in machine]
    best = -(n + m) * config.gap_penalty
    for k in range(1, min(n, m) + 1):
        for machine_ids in itertools.combinations(range(n), k):
            for expert_ids in itertools.combinations(range(m), k):
                score = -(n + m - 2 * k) * config.gap_penalty
                for i, j in zip(machine_ids, expert_ids):
                    score += scores[i][j]
                best = max(best, score)
    return best


class TestAlignByTime:
    def test_identical_timestamps_pair_everything(self):
        rows = [(3.0 * i, 3.0 * i + 2.0, f"word{i}") for i in range(20)]
        machine = syn.transcript(
            [syn.utt(i, s, e, t) for i, (s, e, t) in enumerate(rows)]
        )
        expert = syn.transcript(
            [syn.utt(f"e{i}", s, e, t, source="expert") for i, (s, e, t) in enumerate(rows)]
        )
        corpus = align_by_time(machine, expert)
        assert len(corpus.pairs) == 20
        for pair in corpus.pairs:
            assert time_iou(pair.machine_utt, pair.expert_utt) == 1.0
            assert text_similarity(pair.machine_utt, pair.expert_utt) == 1.0

    def test_small_uniform_shift_keeps_matching(self):
        rows = [(4.0 * i, 4.0 * i + 2.5, f"word{i} extra") for i in range(20)]
        machine = syn.transcript(
            [syn.utt(i, s, e, t) for i, (s, e, t) in enumerate(rows)]
        )
        expert = syn.transcript(
            [
                syn.utt(f"e{i}", s + 0.3, e + 0.3, t, source="expert")
                for i, (s, e, t) in enumerate(rows)
            ]
        )
        corpus = align_by_time(machine, expert)
        assert len(corpus.pairs) == 20
        assert [p.expert_utt.id for p in corpus.pairs] == [
            f"e{i}" for i in range(20)
        ]

    def test_inserted_utterance_left_unmatched(self):
        rows = [(5.0 * i, 5.0 * i + 2.0, f"word{i}") for i in range(5)]
        machine = syn.transcript(
            [syn.utt(i, s, e, t) for i, (s, e, t) in enumerate(rows)]
        )
        extra = syn.utt("extra", 2.4, 4.6, "totally different words", source="expert")
        expert = syn.transcript(
            [syn.utt(f"e{i}", s, e, t, source="expert") for i, (s, e, t) in enumerate(rows)]
            + [extra]
        )
        corpus = align_by_time(machine, expert)
        assert len(corpus.pairs) == 5
        assert [u.id for u in corpus.expert_only] == ["extra"]

    def test_low_overlap_low_similarity_pair_demoted(self):
        machine = syn.transcript([syn.utt(1, 0.0, 1.0, "completely unrelated")])
        expert = syn.transcript(
            [syn.utt("e1", 0.98, 2.0, "nothing shared here", source="expert")]
        )
        corpus = align_by_time(machine, expert)
        assert corpus.pairs == ()
        assert len(corpus.machine_only) == 1 and len(corpus.expert_only) == 1

    def test_low_overlap_but_same_text_kept(self):
        machine = syn.transcript([syn.utt(1, 0.0, 1.0, "same words here")])
        expert = syn.transcript(
            [syn.utt("e1", 0.95, 2.0, "same words here", source="expert")]
        )
        corpus = align_by_time(machine, expert)
        assert len(corpus.pairs) == 1

    @pytest.mark.parametrize("path", [_dp, _plain_dp], ids=["numpy", "plain"])
    def test_matches_brute_force_on_small_instances(self, path):
        rng = random.Random(31)
        config = AlignConfig()
        for trial in range(30):
            n = rng.randrange(0, 9)
            m = rng.randrange(0, 9)
            machine = syn.random_transcript(rng, n, duration_minutes=2.0)
            expert = syn.random_transcript(rng, m, duration_minutes=2.0, source="expert")
            _, score = path(list(machine.utterances), list(expert.utterances), config)
            best = brute_force_best_score(
                list(machine.utterances), list(expert.utterances), config
            )
            assert score == pytest.approx(best, abs=1e-9), f"trial {trial}"

    def test_partition_invariant(self):
        rng = random.Random(7)
        for _ in range(20):
            machine = syn.random_transcript(rng, rng.randrange(0, 15))
            expert = syn.random_transcript(rng, rng.randrange(0, 15), source="expert")
            corpus = align_by_time(machine, expert)
            machine_ids = [p.machine_utt.id for p in corpus.pairs] + [
                u.id for u in corpus.machine_only
            ]
            expert_ids = [p.expert_utt.id for p in corpus.pairs] + [
                u.id for u in corpus.expert_only
            ]
            assert sorted(machine_ids) == sorted(u.id for u in machine.utterances)
            assert sorted(expert_ids) == sorted(u.id for u in expert.utterances)

    def test_monotone_invariant(self):
        rng = random.Random(13)
        for _ in range(20):
            machine = syn.random_transcript(rng, rng.randrange(2, 15))
            expert = syn.random_transcript(rng, rng.randrange(2, 15), source="expert")
            corpus = align_by_time(machine, expert)
            machine_order = {u.id: i for i, u in enumerate(machine.utterances)}
            expert_order = {u.id: i for i, u in enumerate(expert.utterances)}
            previous = (-1, -1)
            for pair in corpus.pairs:
                position = (
                    machine_order[pair.machine_utt.id],
                    expert_order[pair.expert_utt.id],
                )
                assert position[0] > previous[0] and position[1] > previous[1]
                previous = position

    def test_symmetric_under_swap(self):
        rng = random.Random(17)
        for _ in range(20):
            machine = syn.random_transcript(rng, rng.randrange(0, 12))
            expert = syn.random_transcript(rng, rng.randrange(0, 12), source="expert")
            forward = align_by_time(machine, expert)
            backward = align_by_time(expert, machine)
            forward_pairs = {
                (p.machine_utt.id, p.expert_utt.id) for p in forward.pairs
            }
            backward_pairs = {
                (p.expert_utt.id, p.machine_utt.id) for p in backward.pairs
            }
            assert forward_pairs == backward_pairs

    def test_empty_sides(self):
        machine = syn.transcript([])
        expert = syn.transcript([syn.utt("e1", 0, 1, "x", source="expert")])
        corpus = align_by_time(machine, expert)
        assert corpus.pairs == () and len(corpus.expert_only) == 1
        corpus = align_by_time(machine, syn.transcript([]))
        assert corpus.pairs == () and corpus.expert_only == ()


class TestAlignConfig:
    @pytest.mark.parametrize(
        "name", ["similarity_weight", "min_iou", "min_text_similarity"]
    )
    @pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, 7])
    def test_threshold_outside_unit_interval_rejected(self, name, value):
        # a NaN threshold would compare false everywhere and turn demotion off
        with pytest.raises(ValueError, match=f"{name} must be in \\[0, 1\\]"):
            AlignConfig(**{name: value})

    def test_unit_interval_bounds_accepted(self):
        AlignConfig(similarity_weight=1.0, min_iou=0.0, min_text_similarity=0.0)
        AlignConfig(similarity_weight=0.0, min_iou=1.0, min_text_similarity=1.0)


def timed_pair(n, m):
    """n machine and m expert utterances of the same text, the i-th of each
    side at the same time."""
    machine = syn.transcript([syn.utt(i, 2.0 * i, 2.0 * i + 1, "a b") for i in range(n)])
    expert = syn.transcript(
        [syn.utt(f"e{j}", 2.0 * j, 2.0 * j + 1, "a b", source="expert") for j in range(m)]
    )
    return machine, expert


class TestGapPenaltyRange:
    @pytest.mark.parametrize("budget", [0, align_module._PLAIN_CELLS], ids=["numpy", "plain"])
    def test_overflowing_penalty_names_the_size(self, monkeypatch, budget):
        # the check runs before either path is chosen, and spends no budget;
        # 4 * 1e308 is past the float range: the all-skip path's score
        monkeypatch.setattr(align_module, "_plain_cells_left", budget)
        with pytest.raises(ValueError, match=r"^gap_penalty 1e\+308 .* 2 x 2 alignment$"):
            align_by_time(*timed_pair(2, 2), AlignConfig(gap_penalty=1e308))
        assert align_module._plain_cells_left == budget

    def test_largest_penalty_in_range_still_aligns(self):
        corpus = align_by_time(*timed_pair(1, 1), AlignConfig(gap_penalty=8e307))
        assert [(p.machine_utt.id, p.expert_utt.id) for p in corpus.pairs] == [("0", "e0")]


def test_a_recording_takes_the_plain_path_while_its_cells_fit_the_budget(monkeypatch):
    calls = []
    for name in ("_dp", "_plain_dp"):
        path = getattr(align_module, name)
        monkeypatch.setattr(
            align_module, name,
            lambda *args, path=path, name=name: calls.append(name) or path(*args),
        )
    monkeypatch.setattr(align_module, "_plain_cells_left", 10)
    corpora = [align_by_time(*timed_pair(n, m)) for n, m in [(3, 3), (2, 3), (3, 3), (1, 1)]]
    # 9 cells fit in 10; 6 in the 1 left do not, nor do 9; 1 fits
    assert calls == ["_plain_dp", "_dp", "_dp", "_plain_dp"]
    assert align_module._plain_cells_left == 0
    assert [corpus.matched for corpus in corpora] == [
        ((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 1)), ((0, 0), (1, 1), (2, 2)), ((0, 0),)
    ]


class TestAlignDispatch:
    def test_linked_expert_uses_identifiers(self, weather_machine, weather_expert):
        corpus = align(weather_machine, weather_expert)
        assert len(corpus.pairs) == 10

    def test_unlinked_expert_falls_back_to_time(self, weather_machine, weather_expert):
        unlinked = syn.transcript(
            [
                syn.utt(u.id, u.onset, u.offset, u.raw_text, u.role.value, "expert")
                for u in weather_expert.utterances
            ],
            meta=weather_expert.meta,
            linked=False,
        )
        corpus = align(weather_machine, unlinked)
        assert len(corpus.pairs) == 10


# --- speaker cross-classification -------------------------------------------


class TestCrossClassify:
    def test_weather_fixture_diagonal(self, weather_corpus):
        matrix = cross_classify(weather_corpus)
        assert matrix.counts == ((5, 0), (0, 5))
        assert matrix.excluded_other == 0
        assert matrix.residue_machine == 0 and matrix.residue_expert == 0

    def test_tallies_match_script(self):
        rng = random.Random(41)
        rows = []
        for i in range(60):
            rows.append(
                (
                    rng.choice(("teacher", "child", "other")),
                    rng.choice(("teacher", "child", "other")),
                )
            )
        machine = syn.transcript(
            [syn.utt(i + 1, 3.0 * i, 3.0 * i + 2, "w", machine_role) for i, (machine_role, _) in enumerate(rows)]
        )
        expert = syn.transcript(
            [
                syn.utt(f"e{i}", 3.0 * i, 3.0 * i + 2, "w", expert_role, "expert", str(i + 1))
                for i, (_, expert_role) in enumerate(rows)
            ],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        matrix = cross_classify(corpus)
        expected = [[0, 0], [0, 0]]
        excluded = 0
        order = ("teacher", "child")
        for machine_role, expert_role in rows:
            if machine_role == "other" or expert_role == "other":
                excluded += 1
                continue
            expected[order.index(expert_role)][order.index(machine_role)] += 1
        assert matrix.counts == tuple(tuple(r) for r in expected)
        assert matrix.excluded_other == excluded

    def test_residues_counted_not_classified(self):
        machine = syn.transcript(
            [syn.utt(1, 0, 1, "a", "teacher"), syn.utt(2, 2, 3, "b", "child")]
        )
        expert = syn.transcript(
            [
                syn.utt("e1", 0, 1, "a", "teacher", "expert", "1"),
                syn.utt("e2", 4, 5, "c", "child", "expert", None),
            ],
            linked=True,
        )
        corpus = align_by_index(machine, expert)
        matrix = cross_classify(corpus)
        assert matrix.counts == ((1, 0), (0, 0))
        assert matrix.residue_machine == 1 and matrix.residue_expert == 1


# --- audit serialization -----------------------------------------------------


class TestWriteAlignment:
    def test_jsonl_lines_cover_partition(self, weather_corpus, tmp_path):
        import json

        path = tmp_path / "audit.jsonl"
        write_alignment_jsonl(weather_corpus, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds.count("pair") == 10
        pair = next(line for line in lines if line["kind"] == "pair")
        assert set(pair) == {
            "kind",
            "machine_id",
            "expert_id",
            "time_iou",
            "text_similarity",
        }

    def test_residue_lines(self, tmp_path):
        import json

        machine = syn.transcript([syn.utt(1, 0, 1, "a")])
        expert = syn.transcript(
            [syn.utt("e1", 5, 6, "entirely different text", source="expert")]
        )
        corpus = align_by_time(machine, expert)
        path = tmp_path / "audit.jsonl"
        write_alignment_jsonl(corpus, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["kind"] for line in lines} == {"machine_only", "expert_only"}
