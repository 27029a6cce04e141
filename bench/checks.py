"""Output checks: the program's reports against the generator's bookkeeping
and the independent computations in ``oracles.py``.

Every check returns a list of failure messages; an empty list means the
output is correct. No check compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import oracles

COUNT_FIELDS = (
    "n_utterances",
    "n_questions",
    "n_non_questions",
    "n_responded_questions",
    "n_responded_non_questions",
    "n_responses_given",
)
ROLES = oracles.PAIRED_ROLES


def close(a: float | None, b: float | None, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Expected:
    """Everything a correct run must report, derived once per corpus.

    ``alignments`` maps each unlinked recording to the matching the program
    is expected to report after demotion; linked recordings use their
    planted links.
    """

    def __init__(self, recordings: list, alignments: dict[str, list[tuple[int, int]]]) -> None:
        self.recordings = {rec.rid: rec for rec in recordings}
        self.bom = {rec.rid for rec in recordings if rec.bom}
        self.features: dict[tuple[str, str, str], dict] = {}
        self.reliability: dict[str, dict] = {}
        self.icc_inputs: dict[str, dict[str, dict]] = {}
        for rec in recordings:
            sides = [("machine", rec.machine)] + ([("expert", rec.expert)] if rec.expert else [])
            for source, rows in sides:
                flags = oracles.response_flags(rows)
                grid = {}
                for role in ROLES:
                    feats = oracles.role_features(rows, role, rec.duration_minutes, flags)
                    self.features[(rec.rid, source, role)] = feats
                    for name, value in oracles.icc_inputs(feats, rec.duration_minutes).items():
                        grid[f"{role}_{name}"] = value
                self.icc_inputs.setdefault(rec.rid, {})[source] = grid
            if rec.expert is None:
                continue
            if rec.kind == "linked":
                pairs = [(i, j) for i, j, _ in rec.planted]
                distances = {(i, j): subs for i, j, subs in rec.planted}
            else:
                pairs = alignments[rec.rid]
                distances = None
            row = {"confusion": oracles.confusion(rec.machine, rec.expert, pairs)}
            for role in ROLES:
                row[role] = oracles.wer_units(
                    rec.machine, rec.expert, pairs, role, rec.wearer, distances
                )
            self.reliability[rec.rid] = row


def check_results(results: dict, errors: list, expected: Expected) -> list[str]:
    """Check a parsed ``results.json`` (and ``errors.json``) in full."""
    failures: list[str] = []
    expect = _collector(failures)
    recs = expected.recordings

    # every entry exactly once: as a result, and as an error only when its
    # expert table carries a byte-order mark
    failed = {}
    for error in errors:
        rid = error.get("recording_id")
        expect(rid not in failed, f"{rid}: listed twice in errors.json")
        expect(rid in expected.bom and error.get("stage") == "expert",
               f"{rid}: unexpected error {error}")
        failed[rid] = error
    corpus = results["corpus"]
    expect(corpus["n_recordings"] == len(recs), f"n_recordings {corpus['n_recordings']}")
    expect(corpus["n_failed"] == len(failed), f"n_failed {corpus['n_failed']} vs {len(failed)}")
    expect(corpus["n_machine_utterances"] == sum(len(r.machine) for r in recs.values()),
           "n_machine_utterances")
    n_expert = sum(len(r.expert) for r in recs.values() if r.expert and r.rid not in failed)
    expect(corpus["n_expert_utterances"] == n_expert, "n_expert_utterances")

    # per-recording feature rows
    rows_by_key: dict[tuple, dict] = {}
    for row in results["features"]:
        key = (row["recording_id"], row["source"], row["role"])
        expect(key not in rows_by_key, f"{key}: duplicate feature row")
        rows_by_key[key] = row
    wanted = {key for key in expected.features if not (key[1] == "expert" and key[0] in failed)}
    expect(set(rows_by_key) == wanted,
           f"feature rows differ: {sorted(set(rows_by_key) ^ wanted)[:4]}")
    for key in wanted & set(rows_by_key):
        failures += check_feature_row(key, rows_by_key[key], expected.features[key],
                                      recs[key[0]].duration_minutes)

    # pooled aggregates are the sums of the per-recording rows
    for source, pooled in results["aggregate"].items():
        for role in ROLES:
            mine = [row for key, row in rows_by_key.items() if key[1:] == (source, role)]
            stats = pooled[role]
            expect(stats["n_recordings"] == len(mine), f"aggregate {source}/{role} n_recordings")
            for name in COUNT_FIELDS:
                expect(stats[name] == sum(row[name] for row in mine),
                       f"aggregate {source}/{role} {name}")
            words = sum(expected.features[(row["recording_id"], source, role)]["total_words"]
                        for row in mine)
            expect(stats["total_words"] == words, f"aggregate {source}/{role} total_words")

    failures += check_reliability(results, expected, set(failed))
    return failures


def check_feature_row(key: tuple, row: dict, want: dict, minutes: float) -> list[str]:
    """One (recording, source, role) feature row against its expectation."""
    failures: list[str] = []
    expect = _collector(failures)
    for name in COUNT_FIELDS:
        expect(row[name] == want[name], f"{key} {name}: {row[name]} != {want[name]}")
    n = row["n_utterances"]
    expect(close((row["mlu_overall"] or 0.0) * n, want["spoken_words"]),
           f"{key} mlu_overall x n_utterances != {want['spoken_words']}")
    expect(close(row["words_per_minute"], want["total_words"] / minutes),
           f"{key} words_per_minute {row['words_per_minute']}")
    for name in ("mlu_question", "mlu_non_question", "pct_questions",
                 "lexical_diversity_per_minute", "lexical_diversity_pooled"):
        expect(close(row[name], want[name]), f"{key} {name}: {row[name]} != {want[name]}")
    return failures


def check_reliability(results: dict, expected: Expected, failed: set[str]) -> list[str]:
    """Per-recording agreement rows, their pooled summaries, and the ICC grid."""
    failures: list[str] = []
    expect = _collector(failures)
    report = results["reliability"]
    wanted = sorted(rid for rid in expected.reliability if rid not in failed)
    got = [row["recording_id"] for row in report["rows"]] if report else []
    expect(got == wanted, f"reliability rows: {len(got)} vs {len(wanted)} expected")
    if not report or got != wanted:
        return failures
    for row in report["rows"]:
        rid = row["recording_id"]
        want = expected.reliability[rid]
        conf = row["confusion"]
        for name, value in want["confusion"].items():
            expect(conf[name] == value, f"{rid} confusion {name}: {conf[name]} != {value}")
        for role in ROLES:
            total, count = want[role]
            expect(row[f"wer_count_{role}"] == count, f"{rid} wer_count_{role}")
            expect(close(row[f"wer_sum_{role}"], total),
                   f"{rid} wer_sum_{role}: {row[f'wer_sum_{role}']} != {total}")
            expect(close(row["metrics"][f"wer_{role}"], total / count if count else None),
                   f"{rid} wer_{role}")
        f1, acc, kappa = oracles.confusion_metrics(want["confusion"]["counts"])
        for name, value in (("f1_weighted", f1), ("accuracy", acc), ("kappa", kappa)):
            expect(close(row["metrics"][name], value), f"{rid} {name}")

    # pooled and time-weighted rows from the per-recording rows
    rows = report["rows"]
    pooled = [[sum(r["confusion"]["counts"][a][b] for r in rows) for b in (0, 1)] for a in (0, 1)]
    f1, acc, kappa = oracles.confusion_metrics(pooled)
    overall = report["overall"]
    for name, value in (("f1_weighted", f1), ("accuracy", acc), ("kappa", kappa)):
        expect(close(overall[name], value), f"overall {name}")
    for role in ROLES:
        count = sum(r[f"wer_count_{role}"] for r in rows)
        total = math.fsum(r[f"wer_sum_{role}"] for r in rows)
        expect(close(overall[f"wer_{role}"], total / count if count else None),
               f"overall wer_{role}")
    for name in ("f1_weighted", "accuracy", "kappa", "wer_teacher", "wer_child"):
        used = [(r["metrics"][name], r["duration_minutes"]) for r in rows
                if r["metrics"][name] is not None]
        weight = math.fsum(d for _, d in used)
        value = math.fsum(v * d for v, d in used) / weight if weight > 0 else None
        expect(close(report["time_weighted"][name], value), f"time_weighted {name}")

    # the ICC grid against the benchmark's own ANOVA
    grids = [expected.icc_inputs[rid] for rid in wanted]
    names = sorted(grids[0]["machine"]) if grids else []
    expect(sorted(report["iccs"]) == names, "icc feature names")
    for name in names:
        entry = report["iccs"].get(name)
        if entry is None:
            continue
        raw = [(g["machine"][name], g["expert"][name]) for g in grids]
        pairs = [(a, b) for a, b in raw if a is not None and b is not None]
        expect(entry["n_used"] == len(pairs) and entry["n_dropped"] == len(raw) - len(pairs),
               f"icc {name} n_used/n_dropped")
        want = oracles.icc_anova(pairs) if len(pairs) >= 2 else None
        expect(close(entry["value"], want), f"icc {name}: {entry['value']} != {want}")
        flat = [v for pair in pairs for v in pair]
        constant = len(pairs) >= 2 and all(v == flat[0] for v in flat)
        expect(entry["zero_variance"] == constant, f"icc {name} zero_variance")
    return failures


def check_tables(out: Path, results: dict) -> list[str]:
    """The CSV tables carry the same rows and counts as results.json."""
    failures: list[str] = []
    expect = _collector(failures)
    with open(out / "features.csv", encoding="utf-8", newline="") as handle:
        table = list(csv.DictReader(handle))
    expect(len(table) == len(results["features"]), "features.csv row count")
    for line, row in zip(table, results["features"]):
        for name in ("recording_id", "source", "role"):
            expect(line[name] == str(row[name]), f"features.csv {name} {line[name]}")
        for name in COUNT_FIELDS:
            expect(line[name] == str(row[name]), f"features.csv {row['recording_id']} {name}")
    report = results["reliability"]
    with open(out / "reliability_per_recording.csv", encoding="utf-8", newline="") as handle:
        n_lines = sum(1 for _ in csv.reader(handle)) - 1
    expect(n_lines == (len(report["rows"]) + 2 if report else 0),
           "reliability_per_recording.csv row count")
    with open(out / "icc.csv", encoding="utf-8", newline="") as handle:
        n_lines = sum(1 for _ in csv.reader(handle)) - 1
    expect(n_lines == (len(report["iccs"]) if report else 0), "icc.csv row count")
    return failures


def load_outputs(out: Path) -> tuple[dict, list]:
    with open(out / "results.json", encoding="utf-8") as handle:
        results = json.load(handle)
    errors_path = out / "errors.json"
    errors = json.loads(errors_path.read_text(encoding="utf-8")) if errors_path.exists() else []
    return results, errors


def check_alignments(recordings: list, root: Path) -> tuple[list[str], dict]:
    """Re-run the program's time alignment on every unlinked recording, with
    demotion disabled, and check the matching it returns.

    * pairs strictly increase on both sides; pairs and residue partition
      each transcript;
    * its score, by the benchmark's own scorer, is at least the planted
      matching's score;
    * on the smallest unlinked recording it equals the benchmark's exact
      optimum within 1e-9.

    Returns the failures and, per recording, the matching the program must
    report after its default demotion, applied here by the oracle's rule.
    """
    from talkmetrics.align import AlignConfig, align_by_time
    from talkmetrics.ingest import load_meta, parse_expert, parse_machine

    failures: list[str] = []
    expect = _collector(failures)
    no_demotion = AlignConfig(min_iou=0.0, min_text_similarity=0.0)
    unlinked = [rec for rec in recordings if rec.kind == "unlinked" and not rec.bom]
    smallest = min(unlinked, key=lambda rec: len(rec.machine) * len(rec.expert), default=None)
    alignments = {}
    for rec in unlinked:
        meta = load_meta(root / f"{rec.rid}.meta.json")
        machine = parse_machine(root / f"{rec.rid}.machine.jsonl", meta)
        expert = parse_expert(root / f"{rec.rid}.expert.tsv", meta)
        corpus = align_by_time(machine, expert, no_demotion)
        m_index = {u.id: k for k, u in enumerate(machine.utterances)}
        e_index = {u.id: k for k, u in enumerate(expert.utterances)}
        pairs = [(m_index[p.machine_utt.id], e_index[p.expert_utt.id]) for p in corpus.pairs]
        expect(all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pairs, pairs[1:])),
               f"{rec.rid}: pairs not strictly increasing")
        m_rest = sorted(m_index[u.id] for u in corpus.machine_only)
        e_rest = sorted(e_index[u.id] for u in corpus.expert_only)
        expect(sorted([i for i, _ in pairs] + m_rest) == list(range(len(rec.machine))),
               f"{rec.rid}: machine side not partitioned")
        expect(sorted([j for _, j in pairs] + e_rest) == list(range(len(rec.expert))),
               f"{rec.rid}: expert side not partitioned")
        score = oracles.matching_score(rec.machine, rec.expert, pairs)
        planted = oracles.matching_score(rec.machine, rec.expert, [(i, j) for i, j, _ in rec.planted])
        expect(score >= planted - 1e-9, f"{rec.rid}: score {score} below planted {planted}")
        if rec is smallest:
            best = oracles.best_matching_score(rec.machine, rec.expert)
            expect(abs(score - best) <= 1e-9, f"{rec.rid}: score {score} != optimum {best}")
        alignments[rec.rid] = [
            (i, j) for i, j in pairs if not oracles.demoted(rec.machine[i], rec.expert[j])
        ]
    return failures, alignments


def _collector(failures: list[str]):
    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
    return expect
