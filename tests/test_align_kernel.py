"""The time-alignment DP at realistic size, against the scalar reference.

``reference_dp`` is the straightforward form of the DP: one
:func:`pair_score` call per cell. The library's ``_dp`` computes word
distances with a bit-parallel kernel and must return exactly the same
``(matched, score)``, compared with ``==``, not approximately.
"""

import random

import pytest

import synthetic as syn
from talkmetrics.align import AlignConfig, _dp, pair_score

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
