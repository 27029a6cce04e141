"""Self-tests for the benchmark's own checkers.

``run()`` checks the independent scorers, the response sweep, the feature
battery and the ICC ANOVA against values worked out by hand on tiny
inputs. ``corruption_caught()`` damages a correct ``results.json`` in
memory (one flipped count, one WER sum off by one) and confirms that the
checks reject each copy. Both run at the start of every benchmark run;
``python3 bench/selftest.py`` runs the hand-computed part alone.
"""

from __future__ import annotations

import copy
import sys

import checks
import oracles
from corpus import Row


def _row(onset: float, offset: float, role: str, words: str = "", question: bool = False) -> Row:
    tokens = tuple(words.split())
    return Row(onset, offset, role, tokens, question, words)


def run() -> list[str]:
    """Failure messages; empty when every hand-computed value matches."""
    failures: list[str] = []

    def same(got, want, label: str) -> None:
        if not checks.close(got, want, 1e-12) if isinstance(want, float) else got != want:
            failures.append(f"selftest {label}: got {got!r}, want {want!r}")

    # word edit distance
    same(oracles.edit_distance("a b c".split(), "a x c".split()), 1, "edit substitute")
    same(oracles.edit_distance("a b".split(), []), 2, "edit delete all")
    same(oracles.edit_distance(list("kitten"), list("sitting")), 3, "edit kitten")
    same(oracles.edit_distance("a b a b".split(), "b a b a".split()), 2, "edit shift")

    # interval overlap and text similarity
    same(oracles.interval_iou(0.0, 2.0, 1.0, 3.0), 1 / 3, "iou half overlap")
    same(oracles.interval_iou(0.0, 1.0, 1.0, 2.0), 0.0, "iou touching")
    same(oracles.similarity("a b".split(), "a c".split()), 0.5, "similarity")
    same(oracles.similarity([], []), 1.0, "similarity empty")

    # response sweep: r1 answers r0 (starts 1 s after r0 ends), r2 answers
    # r1 (overlap), r3 is too late for r2, r4/r5 start together so neither
    # answers the other
    rows = [
        _row(0.0, 1.0, "teacher", "how are you", True),
        _row(2.0, 3.0, "child", "fine"),
        _row(2.5, 4.0, "teacher", "good good"),
        _row(10.0, 11.0, "child", "bye"),
        _row(20.0, 21.0, "teacher", "now"),
        _row(20.0, 21.0, "child", "yes"),
    ]
    flags = oracles.response_flags(rows)
    same(flags, ([True, True, False, False, False, False],
                 [False, True, True, False, False, False]), "response sweep")

    # feature battery of the teacher in a two-minute recording
    feats = oracles.role_features(rows, "teacher", 2.0, flags)
    same((feats["n_utterances"], feats["n_questions"], feats["total_words"]), (3, 1, 6),
         "teacher counts")
    same((feats["n_responded_questions"], feats["n_responded_non_questions"],
          feats["n_responses_given"]), (1, 0, 1), "teacher responses")
    same(feats["mlu_non_question"], 1.5, "teacher mlu_non_question")
    # window [0,60) holds {how, are, you, good, now}, [60,120) nothing
    same(feats["lexical_diversity_per_minute"], 2.5, "teacher lexical diversity")
    same(feats["words_per_minute"], 3.0, "teacher words per minute")

    # ICC(A,1): MSR 8, MSC 1.5, MSE 0 -> 8 / (8 + 2/3 * 1.5) = 8/9
    same(oracles.icc_anova([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]), 8 / 9, "icc offset")
    # MSR 1.5, MSC 0, MSE 0.5 -> 1 / (2 - 1/3) = 0.6
    same(oracles.icc_anova([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]), 0.6, "icc noise")
    same(oracles.icc_anova([(2.0, 2.0), (2.0, 2.0)]), 1.0, "icc constant")

    # alignment scoring: a perfect pair scores 1, each gap costs 0.05
    machine = [_row(0.0, 1.0, "teacher", "a b"), _row(5.0, 6.0, "child", "c")]
    expert = [_row(0.0, 1.0, "teacher", "a b")]
    same(oracles.matching_score(machine, expert, [(0, 0)]), 0.95, "matching score")
    same(oracles.matching_score(machine, expert, []), -0.15, "empty matching score")
    same(oracles.best_matching_score(machine, expert), 0.95, "best matching")

    # confusion metrics and WER units
    same(oracles.confusion_metrics([[2, 0], [0, 2]]), (1.0, 1.0, 1.0), "perfect confusion")
    same(oracles.confusion_metrics([[1, 1], [1, 1]]), (0.5, 0.5, 0.0), "chance confusion")
    expert_wer = [_row(0.0, 1.0, "teacher", "a x"), _row(7.0, 8.0, "teacher", "z")]
    same(oracles.wer_units(machine, expert_wer, [(0, 0)], "teacher", "teacher"), (1.5, 2),
         "wer units")
    same(oracles.wer_units(machine, expert_wer, [(0, 0)], "teacher", "child"), (0.0, 0),
         "wer units off-wearer")
    return failures


def corruption_caught(results: dict, errors: list, expected: checks.Expected) -> list[str]:
    """Failure messages when a damaged copy of a correct result passes."""
    failures: list[str] = []
    failed = {error["recording_id"] for error in errors}
    report = results["reliability"]
    if not report or not report["rows"]:
        return ["selftest: no reliability rows to corrupt"]

    flipped = {**results, "reliability": copy.deepcopy(report)}
    flipped["reliability"]["rows"][0]["confusion"]["counts"][0][1] += 1
    if not checks.check_reliability(flipped, expected, failed):
        failures.append("selftest: a flipped confusion count passed the checks")

    shifted = {**results, "reliability": copy.deepcopy(report)}
    row = next(r for r in shifted["reliability"]["rows"]
               if r["wer_count_teacher"] or r["wer_count_child"])
    role = "teacher" if row["wer_count_teacher"] else "child"
    row[f"wer_sum_{role}"] += 1.0
    if not checks.check_reliability(shifted, expected, failed):
        failures.append("selftest: a WER sum off by one passed the checks")

    feature = dict(results["features"][0])
    feature["n_questions"] += 1
    key = (feature["recording_id"], feature["source"], feature["role"])
    minutes = expected.recordings[key[0]].duration_minutes
    if not checks.check_feature_row(key, feature, expected.features[key], minutes):
        failures.append("selftest: a flipped feature count passed the checks")
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
