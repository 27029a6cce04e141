"""Independent computations the benchmark checks the program against.

Nothing here imports talkmetrics. Each function works on the generator's
``Row`` values (or plain numbers) and follows the definitions in the
project README, written out directly rather than copied from the program:

* word edit distance: the full Wagner-Fischer table;
* response links: a sort-and-sweep with binary search, where the program
  scans pairs;
* the language features of one role, including lexical diversity;
* the two-way absolute-agreement ICC from its ANOVA mean squares;
* alignment: the score of a given matching, and the best score over all
  monotone matchings by a full-table DP.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

RESPONSE_WINDOW = 2.5
LD_WINDOW = 60.0
SIMILARITY_WEIGHT = 0.5
GAP_PENALTY = 0.05
MIN_IOU = 0.10
MIN_TEXT_SIMILARITY = 0.2
PAIRED_ROLES = ("teacher", "child")


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Unit-cost insert/delete/substitute distance between token lists."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def interval_iou(a_on: float, a_off: float, b_on: float, b_off: float) -> float:
    overlap = min(a_off, b_off) - max(a_on, b_on)
    if overlap <= 0:
        return 0.0
    union = (a_off - a_on) + (b_off - b_on) - overlap
    return overlap / union if union > 0 else 0.0


def similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """1 - edit distance / longer length; 1.0 for two empty lists."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return max(0.0, 1.0 - edit_distance(a, b) / longest)


def pair_score(m, e) -> float:
    """Reward for matching machine row ``m`` with expert row ``e``."""
    return SIMILARITY_WEIGHT * similarity(m.tokens, e.tokens) + (
        1.0 - SIMILARITY_WEIGHT
    ) * interval_iou(m.onset, m.offset, e.onset, e.offset)


def matching_score(machine: Sequence, expert: Sequence, pairs: Sequence[tuple[int, int]]) -> float:
    """Sum of pair rewards minus the gap penalty for every unmatched row."""
    unmatched = len(machine) + len(expert) - 2 * len(pairs)
    return math.fsum(pair_score(machine[i], expert[j]) for i, j in pairs) - GAP_PENALTY * unmatched


def best_matching_score(machine: Sequence, expert: Sequence) -> float:
    """Highest ``matching_score`` over all monotone matchings (full table)."""
    n, m = len(machine), len(expert)
    best = [[0.0] * (m + 1) for _ in range(n + 1)]
    for j in range(m + 1):
        best[0][j] = -GAP_PENALTY * j
    for i in range(1, n + 1):
        best[i][0] = -GAP_PENALTY * i
        for j in range(1, m + 1):
            best[i][j] = max(
                best[i - 1][j - 1] + pair_score(machine[i - 1], expert[j - 1]),
                best[i - 1][j] - GAP_PENALTY,
                best[i][j - 1] - GAP_PENALTY,
            )
    return best[n][m]


def demoted(m, e) -> bool:
    """True when the program's post-DP filter must drop the pair."""
    return (
        interval_iou(m.onset, m.offset, e.onset, e.offset) < MIN_IOU
        and similarity(m.tokens, e.tokens) < MIN_TEXT_SIMILARITY
    )


def response_flags(rows: Sequence, window: float = RESPONSE_WINDOW) -> tuple[list[bool], list[bool]]:
    """(answered, answers) per row.

    A row is answered when a row of another role starts strictly after it
    starts and no later than ``window`` seconds after it ends; it answers
    when it is such a row for some earlier row. ``answered`` counts onsets
    per role in the window by binary search; ``answers`` sweeps rows in
    onset order, keeping per role the latest ``offset + window`` seen
    among strictly earlier onsets.
    """
    roles = sorted({row.role for row in rows})
    onsets = {role: sorted(row.onset for row in rows if row.role == role) for role in roles}
    answered = []
    for row in rows:
        deadline = row.offset + window
        answered.append(
            any(
                bisect_right(onsets[role], deadline) > bisect_right(onsets[role], row.onset)
                for role in roles
                if role != row.role
            )
        )
    order = sorted(range(len(rows)), key=lambda k: rows[k].onset)
    reach = {role: -math.inf for role in roles}
    answers = [False] * len(rows)
    start = 0
    while start < len(order):
        stop = start
        onset = rows[order[start]].onset
        while stop < len(order) and rows[order[stop]].onset == onset:
            stop += 1
        group = order[start:stop]
        for k in group:
            answers[k] = any(reach[role] >= onset for role in roles if role != rows[k].role)
        for k in group:
            role = rows[k].role
            reach[role] = max(reach[role], rows[k].offset + window)
        start = stop
    return answered, answers


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def role_features(
    rows: Sequence, role: str, minutes: float, flags: tuple[list[bool], list[bool]]
) -> dict:
    """The feature battery of one role, from the generated rows.

    Counts cover word-bearing rows only; response flags come from all rows.
    """
    answered, answers = flags
    spoken = [k for k, row in enumerate(rows) if row.role == role and row.tokens]
    questions = [k for k in spoken if rows[k].question]
    statements = [k for k in spoken if not rows[k].question]

    def words(ks: list[int]) -> int:
        return sum(len(rows[k].tokens) for k in ks)

    total_words = sum(len(row.tokens) for row in rows if row.role == role)
    seconds = minutes * 60.0
    n_windows = max(math.ceil(seconds / LD_WINDOW), 1)
    buckets: dict[int, set[str]] = {}
    pooled: set[str] = set()
    for row in rows:
        if row.role == role:
            buckets.setdefault(int(row.onset // LD_WINDOW), set()).update(row.tokens)
            pooled.update(row.tokens)
    n_windows = max(n_windows, max(buckets, default=-1) + 1)
    n_rq = sum(answered[k] for k in questions)
    n_rs = sum(answered[k] for k in statements)
    return {
        "n_utterances": len(spoken),
        "n_questions": len(questions),
        "n_non_questions": len(statements),
        "total_words": total_words,
        "spoken_words": words(spoken),
        "mlu_overall": _ratio(words(spoken), len(spoken)),
        "mlu_question": _ratio(words(questions), len(questions)),
        "mlu_non_question": _ratio(words(statements), len(statements)),
        "words_per_minute": total_words / minutes,
        "n_responded_questions": n_rq,
        "n_responded_non_questions": n_rs,
        "pct_questions": _ratio(len(questions), len(spoken)),
        "n_responses_given": sum(answers[k] for k in spoken),
        "lexical_diversity_per_minute": sum(len(b) for b in buckets.values()) / n_windows,
        "lexical_diversity_pooled": len(pooled) / minutes,
    }


def icc_inputs(features: dict, minutes: float) -> dict[str, float | None]:
    """Per-recording values of the ICC grid, as the README defines them."""
    return {
        "questions_per_minute": features["n_questions"] / minutes,
        "non_questions_per_minute": features["n_non_questions"] / minutes,
        "responses_per_minute": features["n_responses_given"] / minutes,
        "response_proportion": _ratio(
            features["n_responded_questions"] + features["n_responded_non_questions"],
            features["n_utterances"],
        ),
        "mlu_overall": features["mlu_overall"],
        "mlu_question": features["mlu_question"],
        "mlu_non_question": features["mlu_non_question"],
        "words_per_minute": features["words_per_minute"],
        "pct_questions": features["pct_questions"],
        "lexical_diversity_per_minute": features["lexical_diversity_per_minute"],
        "lexical_diversity_pooled": features["lexical_diversity_pooled"],
    }


def icc_anova(pairs: Sequence[tuple[float, float]]) -> float:
    """ICC(A,1) of an n x 2 table from the two-way ANOVA mean squares.

    All-equal tables are 1.0 by convention.
    """
    n, k = len(pairs), 2
    cells = [value for pair in pairs for value in pair]
    if all(value == cells[0] for value in cells):
        return 1.0
    grand = math.fsum(cells) / (n * k)
    row_means = [(a + b) / 2 for a, b in pairs]
    col_means = [math.fsum(p[c] for p in pairs) / n for c in range(k)]
    ss_rows = k * math.fsum((r - grand) ** 2 for r in row_means)
    ss_cols = n * math.fsum((c - grand) ** 2 for c in col_means)
    ss_total = math.fsum((v - grand) ** 2 for v in cells)
    ss_error = max(ss_total - ss_rows - ss_cols, 0.0)
    ms_rows = ss_rows / (n - 1)
    ms_cols = ss_cols / (k - 1)
    ms_error = ss_error / ((n - 1) * (k - 1))
    return (ms_rows - ms_error) / (ms_rows + (k - 1) * ms_error + k / n * (ms_cols - ms_error))


def confusion(machine: Sequence, expert: Sequence, pairs: Sequence[tuple[int, int]]) -> dict:
    """Expert-by-machine teacher/child counts over matched pairs, plus the
    pairs that involve ``other`` and the residue on each side."""
    counts = [[0, 0], [0, 0]]
    excluded = 0
    for i, j in pairs:
        m_role, e_role = machine[i].role, expert[j].role
        if m_role in PAIRED_ROLES and e_role in PAIRED_ROLES:
            counts[PAIRED_ROLES.index(e_role)][PAIRED_ROLES.index(m_role)] += 1
        else:
            excluded += 1
    return {
        "counts": counts,
        "excluded_other": excluded,
        "residue_machine": len(machine) - len(pairs),
        "residue_expert": len(expert) - len(pairs),
    }


def wer_units(
    machine: Sequence, expert: Sequence, pairs: Sequence[tuple[int, int]], role: str,
    wearer: str, distances: dict[tuple[int, int], int] | None = None,
) -> tuple[float, int]:
    """(sum of utterance WERs, count) for ``role``, scored only on the
    wearer's own microphone. A matched pair scores distance over the expert
    word count; an unmatched row scores 1. ``distances`` may supply known
    edit distances per pair."""
    if role != wearer:
        return 0.0, 0
    values = []
    matched_m = {i for i, _ in pairs}
    matched_e = {j for _, j in pairs}
    for i, j in pairs:
        if expert[j].role != role:
            continue
        ref, hyp = expert[j].tokens, machine[i].tokens
        d = distances[(i, j)] if distances is not None else edit_distance(hyp, ref)
        denominator = len(ref) or len(hyp)
        values.append(d / denominator if denominator else 0.0)
    values += [1.0 for j, row in enumerate(expert) if j not in matched_e and row.role == role]
    values += [1.0 for i, row in enumerate(machine) if i not in matched_m and row.role == role]
    return math.fsum(values), len(values)


def confusion_metrics(counts: Sequence[Sequence[int]]) -> tuple[float | None, float | None, float | None]:
    """(support-weighted F1, accuracy, Cohen's kappa) of a 2x2 table whose
    rows are truth; None where undefined."""
    total = sum(map(sum, counts))
    if total == 0:
        return None, None, None
    rows = [sum(counts[c]) for c in range(2)]
    cols = [counts[0][c] + counts[1][c] for c in range(2)]
    f1 = 0.0
    for c in range(2):
        precision = counts[c][c] / cols[c] if cols[c] else 0.0
        recall = counts[c][c] / rows[c] if rows[c] else 0.0
        if precision + recall:
            f1 += rows[c] / total * 2 * precision * recall / (precision + recall)
    observed = (counts[0][0] + counts[1][1]) / total
    expected = (rows[0] * cols[0] + rows[1] * cols[1]) / total**2
    kappa = None if expected == 1.0 else (observed - expected) / (1.0 - expected)
    return f1, observed, kappa
