"""Text normalization, tokenization, question detection, and the core
domain types."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.transcript import ROLES, SpeakerRole, is_question, tokens_of


class TestNormalize:
    def test_question_mark_removed(self):
        assert " ".join(tokens_of("How is the weather?")) == "how is the weather"

    def test_empty(self):
        assert " ".join(tokens_of("")) == ""

    def test_contractions_stay_one_word(self):
        assert (
            " ".join(tokens_of("It's sunny? I don't know if it's sunny."))
            == "it's sunny i don't know if it's sunny"
        )

    def test_curly_apostrophes_normalized(self):
        assert " ".join(tokens_of("It’s fine")) == "it's fine"

    def test_hyphenated_words_join(self):
        assert " ".join(tokens_of("a well-known merry-go-round")) == "a wellknown merrygoround"

    def test_punctuation_to_space(self):
        assert " ".join(tokens_of("Yeah, you too.")) == "yeah you too"

    def test_edge_apostrophes_dropped(self):
        assert " ".join(tokens_of("'hello' said the cat")) == "hello said the cat"

    def test_bracketed_annotations_stripped(self):
        assert " ".join(tokens_of("[laughs] go on <noise> now")) == "go on now"

    def test_whitespace_collapsed(self):
        assert " ".join(tokens_of("  a \t b \n c ")) == "a b c"

    @given(st.text(max_size=120))
    def test_idempotent(self, text):
        once = " ".join(tokens_of(text))
        assert " ".join(tokens_of(once)) == once

    @given(st.text(max_size=120))
    def test_zero_words_iff_empty_normalization(self, text):
        assert (len(tokens_of(text)) == 0) == (" ".join(tokens_of(text)) == "")


class TestTokenize:
    def test_counts(self):
        assert len(tokens_of("oh a raisin is in there")) == 6
        assert tokens_of("sunny") == ("sunny",)
        assert tokens_of("") == ()

    def test_expected_word_counts_on_fixture(self):
        for (_, expert_text, _), count in zip(
            syn.WEATHER_ROWS, syn.WEATHER_EXPERT_WORD_COUNTS
        ):
            assert len(tokens_of(expert_text)) == count, expert_text


class TestIsQuestion:
    def test_trailing_mark(self):
        assert is_question("How is the weather?")

    def test_no_mark(self):
        assert not is_question("Sunny")

    def test_mid_utterance_mark(self):
        assert is_question("It is? I think it's sunny as well.")

    def test_checked_before_normalization(self):
        # normalization strips '?', so the flag must come from raw text
        raw = "Really?"
        assert "?" not in " ".join(tokens_of(raw))
        assert is_question(raw)


class TestUtterance:
    def test_tokens_derived(self):
        u = syn.utt(1, 0.0, 1.0, "How is the weather?")
        assert u.tokens == ("how", "is", "the", "weather")
        assert u.word_count == 4
        assert is_question(u.raw_text)

    def test_offset_before_onset_rejected(self):
        with pytest.raises(ValueError):
            syn.utt(1, 2.0, 1.0, "hi")

    @pytest.mark.parametrize(
        "onset, offset",
        [(-300.0, 1.0), (-1.0, -0.5), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
         (0.0, math.inf), (-math.inf, math.inf), (math.inf, math.inf)],
    )
    def test_times_outside_the_parsers_rule_rejected(self, onset, offset):
        with pytest.raises(ValueError, match="0 <= onset <= offset < inf"):
            syn.utt(1, onset, offset, "hi")

    def test_zero_length_allowed(self):
        u = syn.utt(1, 1.0, 1.0, "hi")
        assert u.offset == u.onset == 1.0

    def test_empty_normalization_gives_zero_words(self):
        assert syn.utt(1, 0.0, 1.0, "[coughs]").word_count == 0

    def test_immutable(self):
        u = syn.utt(1, 0.0, 1.0, "hi")
        with pytest.raises(AttributeError):
            u.onset = 5.0


class TestTranscript:
    def test_sorted_by_onset_then_offset_then_id(self):
        utts = [
            syn.utt("b", 1.0, 3.0, "x"),
            syn.utt("a", 1.0, 3.0, "y"),
            syn.utt("c", 0.5, 2.0, "z"),
            syn.utt("d", 1.0, 2.0, "w"),
        ]
        t = syn.transcript(utts)
        assert [u.id for u in t.utterances] == ["c", "d", "a", "b"]

    def test_sort_is_deterministic(self):
        import random

        rng = random.Random(7)
        utts = [syn.utt(i, float(i % 5), float(i % 5) + 1.0, "hi") for i in range(30)]
        shuffled = list(utts)
        rng.shuffle(shuffled)
        assert syn.transcript(utts).utterances == syn.transcript(shuffled).utterances

    def test_role_and_word_counts(self):
        t = syn.transcript(
            [
                syn.utt(1, 0, 1, "one two", "teacher"),
                syn.utt(2, 2, 3, "three", "child"),
                syn.utt(3, 4, 5, "four five six", "teacher"),
            ]
        )
        assert [u.role for u in t.utterances].count(SpeakerRole.TEACHER) == 2
        assert syn.word_count(t, SpeakerRole.TEACHER) == 5
        assert syn.word_count(t) == 6
        assert len(t) == 3

    def test_meta_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            syn.make_meta(duration_minutes=0.0)

    def test_iter_roles_excludes_other(self):
        assert ROLES == (SpeakerRole.TEACHER, SpeakerRole.CHILD)


class TestSpeakerRole:
    def test_labels(self):
        assert SpeakerRole.from_label("Teacher") is SpeakerRole.TEACHER
        assert SpeakerRole.from_label(" child ") is SpeakerRole.CHILD
        assert SpeakerRole.from_label("OTHER") is SpeakerRole.OTHER

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            SpeakerRole.from_label("adult")
