"""Damaged input never breaks a run: Hypothesis corrupts bytes, fields and
headers, or deletes files, in a three-recording corpus (one linked expert
table, one unlinked, one recording without an expert side) read by
directory convention or through a manifest, which may be damaged too.
``batch`` must still finish with every recording accounted for, the same
outputs for any worker count, and a ``features`` run that agrees with it;
``ingest-check`` and ``align`` must account for every recording exactly
once too. A manifest that ``discover`` rejects must stop every verb with
exit 3 before it writes anything."""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic as syn
from talkmetrics.batch import ManifestError, discover
from talkmetrics.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, main

RECORDINGS = ("linked", "plain", "unlinked")
EXPERT_SIDE = ("linked", "unlinked")

json_values = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6)
    | st.lists(st.integers(), max_size=2)
)
cell_text = st.text(max_size=6)


def write_corpus(root: Path) -> list[Path]:
    """The three recordings, and a manifest naming every file of theirs next
    to ``root``; returns every file a mutation may touch."""
    syn.write_weather_recording(root, "linked")
    syn.write_weather_recording(root, "unlinked", linked=False)
    rows = [
        {"start": 2.0 * i, "end": 2.0 * i + 1.5, "text": text, "speaker": role}
        for i, (text, _, role) in enumerate(syn.WEATHER_ROWS)
    ]
    syn.write_recording(root, "plain", rows, duration_minutes=1.0)
    entries = [
        {
            "recording_id": rid,
            "machine_path": f"{root.name}/{rid}.machine.jsonl",
            "meta_path": f"{root.name}/{rid}.meta.json",
        }
        | ({"expert_path": f"{root.name}/{rid}.expert.tsv"} if rid in EXPERT_SIDE else {})
        for rid in RECORDINGS
    ]
    (root.parent / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    return sorted(path for path in root.iterdir() if path.is_file())


def parsed(path: Path) -> list | None:
    """The TSV rows (header and at least one row) or the JSON objects of one
    line each in ``path``; None once earlier damage broke that shape."""
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
        if path.name.endswith(".tsv"):
            return [line.split("\t") for line in lines] if len(lines) > 1 else None
        records = [json.loads(line) for line in lines]
    except ValueError:
        return None
    shaped = records and all(isinstance(r, dict) and r for r in records)
    return records if shaped else None


def mutate(path: Path, data: st.DataObject) -> None:
    """One corruption of ``path``: raw bytes, one field's value, one key or
    column name, or the whole file deleted."""
    kinds = ("bytes", "field", "header", "delete")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "delete":
        path.unlink()
        return
    raw = path.read_bytes()
    rows = records = parsed(path)
    if kind == "bytes" or rows is None:
        start = data.draw(st.integers(0, len(raw)), label="start")
        stop = data.draw(st.integers(start, min(len(raw), start + 8)), label="stop")
        path.write_bytes(raw[:start] + data.draw(st.binary(max_size=6), label="bytes") + raw[stop:])
        return
    if path.name.endswith(".tsv"):
        if kind == "header":
            j = data.draw(st.integers(0, len(rows[0])), label="column")
            action = data.draw(st.sampled_from(("rename", "drop", "duplicate")), label="action")
            if action == "drop" and j < len(rows[0]):
                del rows[0][j]
            elif action == "duplicate" and j < len(rows[0]):
                rows[0].insert(j, rows[0][j])
            else:
                rows[0][j:j + 1] = [data.draw(cell_text, label="name")]
        else:
            i = data.draw(st.integers(1, len(rows) - 1), label="row")
            j = data.draw(st.integers(0, len(rows[i])), label="cell")
            rows[i][j:j + 1] = [data.draw(cell_text, label="value")]
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        return
    record = data.draw(st.sampled_from(records), label="record")
    key = data.draw(st.sampled_from(sorted(record)), label="key")
    value = record.pop(key)
    if kind == "header":
        record[data.draw(st.text(max_size=6), label="new key")] = value
    elif data.draw(st.booleans(), label="set"):
        record[key] = data.draw(json_values, label="value")
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


MANIFEST_KEYS = ("recording_id", "machine_path", "meta_path", "expert_path")


def mutate_manifest(path: Path, data: st.DataObject) -> None:
    """One corruption of the manifest: an entry replaced by a non-object,
    one field set to any JSON value, or one path pointed at a missing file."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    i = data.draw(st.integers(0, len(entries) - 1), label="entry")
    kind = data.draw(st.sampled_from(("replace", "field", "missing")), label="manifest kind")
    if kind == "replace":
        entries[i] = data.draw(json_values, label="entry value")
    elif not isinstance(entries[i], dict):
        pass  # an earlier mutation replaced this entry
    elif kind == "field":
        key = data.draw(st.sampled_from(MANIFEST_KEYS), label="manifest key")
        entries[i][key] = data.draw(json_values, label="manifest value")
    else:
        key = data.draw(st.sampled_from(MANIFEST_KEYS[1:]), label="path key")
        entries[i][key] = f"data/missing.{key}"
    path.write_text(json.dumps(entries), encoding="utf-8")


def run(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_batch_survives_corruption(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        root = tmp / "data"
        candidates = write_corpus(root)
        n_mutations = data.draw(st.integers(1, 3), label="mutations")
        for _ in range(n_mutations):
            existing = [path for path in candidates if path.exists()]
            mutate(data.draw(st.sampled_from(existing), label="file"), data)

        # a manifest names every file, and every entry with a non-empty
        # expert_path has an expert side; discovery sees only machine files
        # that exist, and an expert table only if it exists
        by_manifest = data.draw(st.booleans(), label="manifest")
        corpus = ("--root", str(root))
        if by_manifest:
            manifest = tmp / "manifest.json"
            for _ in range(data.draw(st.integers(0, 2), label="manifest mutations")):
                mutate_manifest(manifest, data)
            corpus = ("--manifest", str(manifest))
            try:
                discover(manifest_path=manifest)
            except ManifestError as exc:
                assert_rejected(tmp, corpus, str(exc))
                return
            entries = json.loads(manifest.read_text(encoding="utf-8"))
            expected = {entry["recording_id"] for entry in entries}
            assert len(expected) == len(entries)
            with_expert = {entry["recording_id"] for entry in entries if entry.get("expert_path")}
        else:
            expected = {rid for rid in RECORDINGS if (root / f"{rid}.machine.jsonl").exists()}
            with_expert = {
                rid for rid in expected & set(EXPERT_SIDE) if (root / f"{rid}.expert.tsv").exists()
            }
        if not expected:
            assert run("batch", *corpus, "--out", str(tmp / "out"))[0] == EXIT_FATAL
            return

        outs = {}
        for verb, workers in (("batch", "1"), ("batch", "2"), ("features", "1")):
            out = tmp / f"{verb}-{workers}"
            code = run(verb, *corpus, "--out", str(out), "--workers", workers)[0]
            assert code in (EXIT_OK, EXIT_PARTIAL)
            outs[verb, workers] = code, files(out)

        code, batch = outs["batch", "1"]
        assert outs["batch", "2"] == (code, batch)
        features_code, features = outs["features", "1"]
        assert features_code == code
        assert features.get("errors.json") == batch.get("errors.json")
        assert features["features.csv"] == batch["features.csv"]

        errors = json.loads(batch.get("errors.json", b"[]"))
        assert (code == EXIT_PARTIAL) == bool(errors)
        failed = [error["recording_id"] for error in errors]
        assert len(failed) == len(set(failed))
        rows = list(csv.DictReader(io.StringIO(batch["features.csv"].decode("utf-8"))))
        keys = [(row["recording_id"], row["source"], row["role"]) for row in rows]
        assert len(keys) == len(set(keys))
        with_features = {row["recording_id"] for row in rows}
        assert with_features | set(failed) == expected
        for error in errors:
            assert (error["recording_id"] in with_features) == (error["stage"] == "expert")
            if error["stage"] == "expert":
                assert (error["recording_id"], "expert", "teacher") not in keys

        code, stdout, _ = run("ingest-check", *corpus, "--format", "json")
        records = json.loads(stdout)["recordings"]
        assert sorted(record["recording_id"] for record in records) == sorted(expected)
        assert all(record["ok"] != ("error" in record) for record in records)
        assert code == (EXIT_PARTIAL if any(not r["ok"] for r in records) else EXIT_OK)

        # ids may hold almost any character, ':' and newlines included, so
        # the audit lines are matched whole rather than split
        out = tmp / "align"
        code, stdout, stderr = run("align", *corpus, "--out", str(out))
        if not with_expert:
            # nothing to align is fatal, and reported before anything is written
            assert (code, stdout) == (EXIT_FATAL, "")
            assert "no recording has an expert transcript" in stderr
            assert ": FAIL " not in stderr
            assert not out.exists()
            return
        suffix = ".alignment.jsonl"
        audits = sorted(path.name[: -len(suffix)] for path in out.iterdir())
        assert all(path.name.endswith(suffix) for path in out.iterdir())
        assert set(audits) <= with_expert
        fails = with_expert - set(audits)
        assert stderr.count(": FAIL ") == len(fails)
        assert all(f"{rid}: FAIL " in stderr for rid in fails)
        audit_line = r": \d+ pairs, \d+ machine-only, \d+ expert-only\n"
        assert re.fullmatch("".join(re.escape(rid) + audit_line for rid in audits), stdout)
        assert code == (EXIT_PARTIAL if fails else EXIT_OK)


def assert_rejected(tmp: Path, corpus: tuple[str, str], message: str) -> None:
    """Every verb exits 3 with the manifest error and writes no report."""
    for verb in ("batch", "features", "align"):
        out = tmp / f"rejected-{verb}"
        code, stdout, stderr = run(verb, *corpus, "--out", str(out))
        assert (code, stdout) == (EXIT_FATAL, "")
        assert stderr == f"talkmetrics: error: {message}\n"
        assert not out.exists()
    code, stdout, stderr = run("ingest-check", *corpus, "--format", "json")
    assert (code, stdout, stderr) == (EXIT_FATAL, "", f"talkmetrics: error: {message}\n")
