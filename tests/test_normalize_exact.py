"""``tokens_of``, and its words joined by single spaces, against the plain
regex chain they shortcut: the ASCII ``str.translate`` path must give
exactly what the chain gives, for every input."""

import re

from hypothesis import example, given
from hypothesis import strategies as st

from talkmetrics.transcript import Source, SpeakerRole, Utterance, tokens_of


def reference_normalize(raw_text):
    """The normalization chain, one regex substitution per step."""
    text = re.sub(r"\[[^\]]*\]", " ", raw_text)
    text = re.sub(r"<[^>]*>", " ", text)
    text = text.lower()
    text = re.sub(r"[‘’ʼ`´]", "'", text)
    text = re.sub(r"(?<=\w)-(?=\w)", "", text)
    text = re.sub(r"[^\w\s']", " ", text)
    text = re.sub(r"(?<!\w)'|'(?!\w)", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def assert_exact(text):
    expected = reference_normalize(text)
    assert " ".join(tokens_of(text)) == expected, repr(text)
    assert tokens_of(text) == tuple(expected.split()), repr(text)


ASCII = [chr(code) for code in range(128)]


def test_every_one_and_two_character_ascii_string():
    for first in ASCII:
        assert_exact(first)
        for second in ASCII:
            assert_exact(first + second)


def test_every_three_character_string_of_step_characters():
    """Characters whose handling depends on their neighbours."""
    alphabet = "aZ0_-'`’ [<>]\x1c.İ"
    for first in alphabet:
        for second in alphabet:
            for third in alphabet:
                assert_exact(first + second + third)


# Pieces that exercise each step: backticks and curly quotes, the
# whitespace controls \x1c-\x1f, underscores and digits, annotation
# markers, hyphens, and letters whose lower() is longer than themselves.
PIECES = (
    "`", "'", "‘", "’", "ʼ", "´", "\x1c", "\x1d", "\x1e", "\x1f", "_", "0", "7",
    "[", "]", "[laughs]", "<", ">", "<noise>", "-", "--", "İ", "ß", "é", "Ω",
    "a", "Z", "it's", "Don't", "well-known", " ", "\t", "\n", "?", ".", ",", "!",
    "\x00", "\x7f", "\xa0", " ",
)

texts = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)


@given(texts)
@example("[é] hi")  # the annotation holds the only non-ASCII character
@example("a-`b")
@example("it`s")
@example("''it''s''")
def test_pieces_match_the_regex_chain(text):
    assert_exact(text)


@given(st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=40))
def test_ascii_text_matches_the_regex_chain(text):
    assert_exact(text)


@given(st.text(max_size=40))
def test_any_text_matches_the_regex_chain(text):
    assert_exact(text)


@given(texts)
def test_utterance_tokens(text):
    utterance = Utterance("1", 0.0, 1.0, text, SpeakerRole.TEACHER, Source.MACHINE)
    assert utterance.tokens == tuple(reference_normalize(text).split())

