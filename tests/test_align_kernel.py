"""The time-alignment DP against a cell-by-cell reference, and the word
edit distance kernel against a full-table one.

``plain_dp``, the reference, is the straightforward form of the DP: one
:func:`pair_score` call per cell. The kernel ``_dp`` computes word distances
bit-parallel, many machine rows to a Python integer, and inlines the pair
score; it must return exactly the same ``(matched, score)``, compared with
``==``, not approximately, so that every report keeps its bytes.

``pair_score`` reaches the bit-parallel kernel too, through ``levenshtein``,
so ``plain_dp`` checks the DP's arithmetic and tie rules, not its distances.
Those are checked against ``table_dp``, the textbook table of every prefix
pair, which shares no code with the package.
"""

import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.align import AlignConfig, _dp, _trace_back, pair_score
from talkmetrics.transcript import lane_distances, levenshtein, pack_lanes

SRC = Path(__file__).resolve().parents[1] / "src"

WORDS = ("the", "cat", "sat", "on", "mat", "how", "is", "weather", "sunny", "dog")


def table_dp(a, b):
    """Word edit distance from the full (len(a) + 1) x (len(b) + 1) table."""
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def plain_dp(machine, expert, config):
    """:func:`_dp` cell by cell, one :func:`pair_score` call per cell, with
    the same tie rules and backpointers."""
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
    assert _dp(machine, expert, config) == plain_dp(machine, expert, config)


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gap", [0.0, 0.05])
def test_edge_instances_equal_reference(weight, gap):
    rng = random.Random(int(weight * 10) * 7 + int(gap * 100))
    config = AlignConfig(similarity_weight=weight, gap_penalty=gap)
    for _ in range(25):
        machine = edge_utterances(rng, rng.randrange(0, 25), "machine")
        expert = edge_utterances(rng, rng.randrange(0, 25), "expert")
        assert _dp(machine, expert, config) == plain_dp(machine, expert, config)


def test_many_rows_share_each_lane_group():
    """800 machine rows of 0-130 words fill 16-, 64-, 128- and 192-bit lane
    groups of dozens to hundreds of rows each, interleaved in machine order."""
    rng = random.Random(9)
    machine = edge_utterances(rng, 800, "machine")
    expert = edge_utterances(rng, 12, "expert")
    config = AlignConfig()
    assert _dp(machine, expert, config) == plain_dp(machine, expert, config)


# word counts at the edges of the lane widths: 15 words fill a 16-bit lane
# up to its spare bit, 16 take a 64-bit lane, 64 a 128-bit one and 128 a
# 192-bit one
LANE_EDGES = (0, 15, 16, 63, 64, 127, 128, 200)


def lane_edge_utterances(rng, count, lengths, source):
    """count utterances, 2 s apart, whose word counts cycle through
    ``lengths``; a row repeats one word (the longest carries) or mixes
    three."""
    utts = []
    for i in range(count):
        words = rng.choice((WORDS[:1], WORDS[:3]))
        text = " ".join(rng.choice(words) for _ in range(lengths[i % len(lengths)]))
        utts.append(syn.utt(f"{source[0]}{i}", 2.0 * i, 2.0 * i + rng.uniform(0.0, 3.0), text,
                            source=source))
    return utts


@pytest.mark.parametrize("machine_lengths", [(0,), (15,), (200,), LANE_EDGES])
@pytest.mark.parametrize("expert_lengths", [(0,), (0, 3), (5,) + LANE_EDGES])
def test_rows_at_the_lane_width_edges(machine_lengths, expert_lengths):
    """Machine rows of each edge word count share a lane group, in mixed
    machine order, or all rows fill one group, or no row has a word and no
    group exists; expert rows may be empty."""
    rng = random.Random(len(machine_lengths) * 10 + len(expert_lengths))
    lengths = [machine_lengths[i % len(machine_lengths)] for i in range(24)]
    rng.shuffle(lengths)
    machine = lane_edge_utterances(rng, 24, lengths, "machine")
    expert = lane_edge_utterances(rng, 12, expert_lengths, "expert")
    lanes = pack_lanes(
        [utt.tokens for utt in machine], {token for utt in expert for token in utt.tokens}
    )
    for utt_e in expert:
        assert lane_distances(lanes, utt_e.tokens, len(machine)) == [
            table_dp(utt_m.tokens, utt_e.tokens) for utt_m in machine
        ]
    assert_same_as_reference(machine, expert, AlignConfig())


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
    want_matched, want_score = plain_dp(machine, expert, config)
    assert (matched, score) == (want_matched, want_score)
    assert math.copysign(1.0, score) == math.copysign(1.0, want_score)


def assert_equals_reference(n, m, config=AlignConfig(), seed=0):
    rng = random.Random(seed * 7919 + n * 31 + m)
    machine = plain_utterances(rng, n, "machine")
    expert = plain_utterances(rng, m, "expert")
    assert_same_as_reference(machine, expert, config)


@pytest.mark.parametrize(
    "n, m",
    [
        (0, 0), (0, 7), (7, 0), (1, 1), (1, 300), (300, 1),
        (2000, 3), (3, 2000), (300, 2), (2, 300),
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
# rows of 0-200 words: short ones, empty ones, and the lane widths' edges
LENGTHS = st.one_of(
    st.integers(0, 4), st.sampled_from(LANE_EDGES), st.integers(5, 200)
)
TEXTS = LENGTHS.flatmap(
    lambda k: st.lists(st.sampled_from(WORDS[:4]), min_size=k, max_size=k)
)


@settings(max_examples=150, deadline=None)
@given(machine=st.lists(TEXTS, max_size=12), expert=TEXTS)
def test_distances_equal_table_dp(machine, expert):
    rows = [tuple(words) for words in machine]
    tokens = tuple(expert)
    assert lane_distances(pack_lanes(rows, set(tokens)), tokens, len(rows)) == [
        table_dp(row, tokens) for row in rows
    ]


@settings(max_examples=150, deadline=None)
@example(a=[], b=[], as_tuple=False)
@example(a=[], b=["the"] * 128, as_tuple=False)
@example(a=["the", "cat"] * 64, b=[], as_tuple=True)
@example(a=["cat"] * 15, b=["cat"] * 16, as_tuple=False)
@example(a=["the"] * 63, b=["the", "cat"] * 32, as_tuple=True)
@example(a=["cat"] * 127, b=["the"] * 128, as_tuple=False)
@example(a=["the", "on"] * 64, b=["the", "on"] * 64, as_tuple=True)
@given(a=TEXTS, b=TEXTS, as_tuple=st.booleans())
def test_levenshtein_equals_table_dp_on_long_rows(a, b, as_tuple):
    """``levenshtein`` packs ``a`` as one row of the lane kernel, so rows of
    15 and 16, 63 and 64, 127 and 128 words try each lane width's edge; a
    list against a tuple of the same words is still 0 apart."""
    if as_tuple:
        b = tuple(b)
    want = table_dp(a, b)
    assert levenshtein(a, b) == want
    assert levenshtein(b, a) == want


SIDES = st.lists(st.tuples(TIMES, TIMES, TEXTS), max_size=9)


@settings(max_examples=200, deadline=None)
@given(
    machine=SIDES,
    expert=SIDES,
    weight=st.sampled_from([0, 0.25, 0.5, 1, 1.0]),
    gap=st.sampled_from([0, 0.0, 0.05, 0.5, 1, 1e300]),
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


# Runs ``_dp`` on the pickled (machine, expert) pair read from stdin and prints
# how far the process's peak resident set rose above its resident set just
# before the call, in KiB. A fresh interpreter keeps every other test's
# allocations out of the reading, and the current resident set, not the peak
# so far, is the base, so no earlier transient peak can hide growth. The peak
# is ``VmHWM``, the high-water mark of this process image alone: ``ru_maxrss``
# keeps the launching process's peak across ``exec``.
MEMORY_SCRIPT = """
import pickle, sys
from talkmetrics.align import AlignConfig, _dp

def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) for line in lines if line.startswith(key + ":"))

machine, expert = pickle.load(sys.stdin.buffer)
_dp(machine[:2], expert[:2], AlignConfig())
resident = status("VmRSS")
_dp(machine, expert, AlignConfig())
print(status("VmHWM") - resident)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_memory_is_one_byte_per_cell_and_a_fixed_budget():
    """Backpointers take one byte per cell; everything else fits a fixed
    8 MiB, which no n × m table of floats (18 MB here) would."""
    machine, expert = jittered_pair(random.Random(1500), 1500)
    n, m = len(machine), len(expert)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        input=pickle.dumps((machine, expert)),
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert int(proc.stdout) * 1024 < (n + 1) * (m + 1) + 8 * 2**20
