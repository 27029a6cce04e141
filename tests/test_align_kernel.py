"""The time-alignment DP at realistic size, against the scalar reference.

``reference_dp`` is the straightforward form of the DP: one
:func:`pair_score` call per cell. The library's ``_dp`` computes word
distances with a bit-parallel kernel and must return exactly the same
``(matched, score)``, compared with ``==``, not approximately.
"""

import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.align import _BAND_ROWS, _BLOCK_CELLS, AlignConfig, _band_rows, _dp, pair_score

WORDS = ("the", "cat", "sat", "on", "mat", "how", "is", "weather", "sunny", "dog")


def reference_dp(machine, expert, config):
    """Best monotone matching and its score, one ``pair_score`` per cell.

    Backpointers: 0 match, 1 skip machine, 2 skip expert. Ties prefer
    matching, then consuming machine utterances.
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
    matched = []
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


def jittered_pair(rng, n):
    """n machine utterances and an expert copy with jittered times, word
    substitutions, dropped rows and inserted rows."""
    machine, expert = [], []
    clock = 0.0
    for i in range(n):
        words = [rng.choice(WORDS) for _ in range(rng.randrange(1, 12))]
        onset = clock + rng.uniform(0.0, 1.0)
        offset = onset + rng.uniform(0.3, 3.0)
        clock = offset
        machine.append(syn.utt(i, onset, offset, " ".join(words)))
        if rng.random() < 0.04:
            continue
        if rng.random() < 0.3:
            words[rng.randrange(len(words))] = rng.choice(WORDS)
        e_on = max(0.0, onset + rng.uniform(-0.3, 0.3))
        e_off = max(e_on, offset + rng.uniform(-0.3, 0.3))
        expert.append(syn.utt(f"e{i}", e_on, e_off, " ".join(words), source="expert"))
        if rng.random() < 0.03:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 6)))
            expert.append(syn.utt(f"x{i}", e_off, e_off + 0.5, text, source="expert"))
    return machine, expert


def edge_utterances(rng, n, source):
    """Utterances mixing empty, 64-, 65- and 130-word texts, zero-length
    and identical intervals, and repeated texts."""
    texts = ["", "the cat", "the cat", " ".join(WORDS[i % 10] for i in range(64))]
    texts += [" ".join(rng.choice(WORDS) for _ in range(k)) for k in (63, 64, 65, 130)]
    spans = [(1.0, 1.0), (0.0, 2.0), (0.0, 2.0), (5.0, 5.0)]
    utts = []
    clock = 0.0
    for i in range(n):
        if rng.random() < 0.5:
            text = rng.choice(texts)
        else:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 8)))
        if rng.random() < 0.3:
            onset, offset = rng.choice(spans)
        else:
            onset = clock + rng.uniform(-0.5, 1.0)
            onset = max(0.0, onset)
            offset = onset + rng.choice([0.0, rng.uniform(0.1, 3.0)])
            clock = offset
        utts.append(syn.utt(i, onset, offset, text, source=source))
    return utts


def test_realistic_jittered_pair_equals_reference():
    machine, expert = jittered_pair(random.Random(400), 400)
    assert len(machine) == 400 and 380 <= len(expert) <= 420
    config = AlignConfig()
    assert _dp(machine, expert, config) == reference_dp(machine, expert, config)


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gap", [0.0, 0.05])
def test_edge_instances_equal_reference(weight, gap):
    rng = random.Random(int(weight * 10) * 7 + int(gap * 100))
    config = AlignConfig(similarity_weight=weight, gap_penalty=gap)
    for _ in range(25):
        machine = edge_utterances(rng, rng.randrange(0, 25), "machine")
        expert = edge_utterances(rng, rng.randrange(0, 25), "expert")
        assert _dp(machine, expert, config) == reference_dp(machine, expert, config)


def test_long_utterances_cross_row_blocks():
    """With 12 expert utterances a block holds 341 machine rows, so 800 rows
    span three blocks, each mixing vector-path and scalar-path rows."""
    rng = random.Random(9)
    machine = edge_utterances(rng, 800, "machine")
    expert = edge_utterances(rng, 12, "expert")
    config = AlignConfig()
    assert _dp(machine, expert, config) == reference_dp(machine, expert, config)


def plain_utterances(rng, count, source):
    """count utterances of 0-6 words in time order, some overlapping."""
    utts = []
    clock = 0.0
    for i in range(count):
        onset = max(0.0, clock + rng.uniform(-0.5, 1.0))
        offset = onset + rng.uniform(0.0, 2.5)
        clock = offset
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 7)))
        utts.append(syn.utt(f"{source[0]}{i}", onset, offset, text, source=source))
    return utts


def assert_same_as_reference(machine, expert, config):
    """Equal matchings and scores, down to the sign of a zero score."""
    matched, score = _dp(machine, expert, config)
    want_matched, want_score = reference_dp(machine, expert, config)
    assert (matched, score) == (want_matched, want_score)
    assert math.copysign(1.0, score) == math.copysign(1.0, want_score)


def assert_equals_reference(n, m, config=AlignConfig(), seed=0):
    rng = random.Random(seed * 7919 + n * 31 + m)
    machine = plain_utterances(rng, n, "machine")
    expert = plain_utterances(rng, m, "expert")
    assert_same_as_reference(machine, expert, config)


@pytest.mark.parametrize("n", [_BAND_ROWS - 1, _BAND_ROWS, _BAND_ROWS + 1, 2 * _BAND_ROWS + 1])
@pytest.mark.parametrize("m", [64, 97])
def test_rows_around_the_band_height(n, m):
    """A band is whole distance blocks: 64 rows each against 64 expert
    utterances, 42 against 97. Past one band, rows split evenly."""
    assert_equals_reference(n, m)


@pytest.mark.parametrize(
    "n, m",
    [
        (0, 0), (0, 7), (7, 0), (1, 1), (1, 300), (300, 1),
        (2000, 3), (3, 2000),
        (2 * _band_rows(1, 3) + 1, 3),  # n >> m: three bands of whole blocks
        (40, _BLOCK_CELLS + 1),  # m >> n: one row per distance block
    ],
)
def test_thin_and_lopsided_shapes(n, m):
    assert_equals_reference(n, m)


@pytest.mark.parametrize("weight", [0, 1, 0.0, 1.0])
@pytest.mark.parametrize("gap", [0, 0.05, 1])
def test_weights_at_the_ends(weight, gap):
    config = AlignConfig(similarity_weight=weight, gap_penalty=gap)
    for seed in range(4):
        assert_equals_reference(40, 35, config, seed)


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_every_cell_ties(weight):
    """Identical utterances and no gap penalty: every match scores the same
    and skips cost nothing, so most cells tie and the tie-break decides."""
    config = AlignConfig(similarity_weight=weight, gap_penalty=0.0)
    machine = [syn.utt(i, 1.0, 2.0, "the cat sat") for i in range(60)]
    expert = [syn.utt(f"e{j}", 1.0, 2.0, "the cat sat", source="expert") for j in range(45)]
    assert_same_as_reference(machine, expert, config)


def test_negative_zero_onsets():
    config = AlignConfig(gap_penalty=0.0)
    rng = random.Random(5)
    machine, expert = [], []
    for i in range(30):
        onset = rng.choice([-0.0, 0.0])
        offset = rng.choice([-0.0, 0.0, 1.0])
        machine.append(syn.utt(i, onset, offset, rng.choice(["", "the", "cat"])))
        onset = rng.choice([-0.0, 0.0, 0.5])
        expert.append(syn.utt(f"e{i}", onset, onset, rng.choice(["", "the"]), source="expert"))
    assert_same_as_reference(machine, expert, config)
    assert_same_as_reference(machine[:0], expert, config)  # a score of -0.0


# with the extremes of the time range: lengths summing past the float range
# give an infinite union in both, and no overflow warning
TIMES = st.sampled_from(
    [-0.0, 0.0, 0.5, 1.0, 1.5, 3.0, 5e-324, sys.float_info.max / 2, sys.float_info.max]
)
SIDES = st.lists(
    st.tuples(TIMES, TIMES, st.lists(st.sampled_from(WORDS[:4]), max_size=4)), max_size=9
)


@settings(max_examples=200, deadline=None)
@given(
    machine=SIDES,
    expert=SIDES,
    weight=st.sampled_from([0, 0.25, 0.5, 1, 1.0]),
    gap=st.sampled_from([0, 0.0, 0.05, 0.5, 1]),
)
def test_small_instances_equal_reference(machine, expert, weight, gap):
    config = AlignConfig(similarity_weight=weight, gap_penalty=gap)
    machine = [
        syn.utt(i, min(a, b), max(a, b), " ".join(words))
        for i, (a, b, words) in enumerate(machine)
    ]
    expert = [
        syn.utt(f"e{j}", min(a, b), max(a, b), " ".join(words), source="expert")
        for j, (a, b, words) in enumerate(expert)
    ]
    assert_same_as_reference(machine, expert, config)


def test_memory_is_one_byte_per_cell_and_a_fixed_budget():
    """Backpointers take one byte per cell; everything else fits a fixed
    8 MiB, which no n × m table of floats (18 MB here) would."""
    machine, expert = jittered_pair(random.Random(1500), 1500)
    n, m = len(machine), len(expert)
    tracemalloc.start()
    try:
        _dp(machine, expert, AlignConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * (m + 1) + 8 * 2**20
