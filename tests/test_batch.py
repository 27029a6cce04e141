"""Corpus discovery, pipeline runs, failure isolation, and report files."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthetic as syn
import talkmetrics.batch as batch_module
from talkmetrics.align import AlignConfig, AlignedCorpus
from talkmetrics.batch import (
    CorpusManifest,
    EmptyCorpus,
    EntryError,
    ManifestEntry,
    ManifestError,
    MissingFile,
    PipelineResult,
    RunConfig,
    _fmt,
    discover,
    emit_report,
    icc_table,
    reliability_table,
    run_pipeline,
)
from talkmetrics.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, main
from talkmetrics.codec import decode
from talkmetrics.reliability import build_report
from talkmetrics.transcript import Source, Transcript

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the command line named by argv[2:] in a fresh interpreter whose
# worker pools start by the method argv[1] names.
START_METHOD_SCRIPT = """
import multiprocessing, sys
from talkmetrics.cli import main
multiprocessing.set_start_method(sys.argv[1])
sys.exit(main(sys.argv[2:]))
"""

# Runs the command line named by argv[3:] with at most argv[2] bytes of
# address space, and with ``_process_entry`` exiting the process at once,
# as an out-of-memory kill would, for the recording argv[1] names.
DYING_WORKER_SCRIPT = """
import os, resource, sys
import talkmetrics.batch as batch
from talkmetrics.cli import main
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
original = batch._process_entry

def dying(entry, cfg, stages):
    if entry.recording_id == sys.argv[1]:
        os._exit(9)
    return original(entry, cfg, stages)

batch._process_entry = dying
sys.exit(main(sys.argv[3:]))
"""

# Cells of the ICC grid: missing, NaN, a few values that tie, and any other
ICC_CELLS = (
    st.none()
    | st.just(math.nan)
    | st.sampled_from([0.0, 1.0, -2.5])
    | st.floats(min_value=-1e6, max_value=1e6)
)


def corpus_dir(tmp_path, n=3, seed=0, with_expert=True):
    """A small on-disk corpus of linked machine/expert recording triples."""
    import random

    rng = random.Random(seed)
    root = tmp_path / "corpus"
    for i in range(n):
        machine_rows = []
        expert_rows = []
        clock = 0.0
        for j in range(rng.randrange(4, 9)):
            length = rng.uniform(0.8, 3.0)
            text = " ".join(rng.choice(syn.TEXT_POOL).split())
            role = rng.choice(("teacher", "child"))
            machine_rows.append(
                {"start": round(clock, 2), "end": round(clock + length, 2), "text": text, "speaker": role}
            )
            if with_expert:
                expert_rows.append(
                    {
                        "start": round(clock, 2),
                        "end": round(clock + length, 2),
                        "speaker": role,
                        "text": text,
                        "machine_id": j + 1,
                    }
                )
            clock += length + rng.uniform(0.2, 2.0)
        syn.write_recording(
            root,
            f"rec{i:02d}",
            machine_rows,
            expert_rows if with_expert else None,
            duration_minutes=max(clock / 60.0 + 0.5, 1.0),
        )
    return root


class TestDiscover:
    def test_convention_layout(self, tmp_path):
        root = corpus_dir(tmp_path, n=3)
        manifest = discover(root_dir=root)
        assert [e.recording_id for e in manifest.entries] == ["rec00", "rec01", "rec02"]
        assert all(e.expert_path is not None for e in manifest.entries)

    def test_nested_directories(self, tmp_path):
        syn.write_weather_recording(tmp_path / "a" / "deep", "w1")
        syn.write_weather_recording(tmp_path / "b", "w2")
        manifest = discover(root_dir=tmp_path)
        assert [e.recording_id for e in manifest.entries] == ["w1", "w2"]

    def test_expert_file_optional(self, tmp_path):
        root = corpus_dir(tmp_path, n=1, with_expert=False)
        manifest = discover(root_dir=root)
        assert manifest.entries[0].expert_path is None

    def test_missing_meta_rejected(self, tmp_path):
        # a missing sidecar fails its own recording, not the run
        root = corpus_dir(tmp_path, n=3)
        (root / "rec00.meta.json").unlink()
        manifest = discover(root_dir=root)
        assert [e.recording_id for e in manifest.entries] == ["rec00", "rec01", "rec02"]
        out = tmp_path / "out"
        assert main(["batch", "--root", str(root), "--out", str(out)]) == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [("rec00", "ingest")]
        assert str(root / "rec00.meta.json") in errors[0]["message"]
        results = json.loads((out / "results.json").read_text())
        assert results["corpus"]["n_recordings"] == 2
        assert (out / "reliability_per_recording.csv").read_text().count("rec0") == 2

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingFile):
            discover(root_dir=tmp_path / "nowhere")

    def test_empty_root(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(EmptyCorpus):
            discover(root_dir=tmp_path / "empty")

    def test_manifest_with_entries_key(self, tmp_path):
        root = corpus_dir(tmp_path, n=2)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "recording_id": "rec00",
                            "machine_path": "corpus/rec00.machine.jsonl",
                            "meta_path": "corpus/rec00.meta.json",
                            "expert_path": "corpus/rec00.expert.tsv",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        manifest = discover(manifest_path=manifest_path)
        assert len(manifest.entries) == 1
        assert manifest.entries[0].machine_path == root / "rec00.machine.jsonl"

    def test_manifest_bare_list(self, tmp_path):
        corpus_dir(tmp_path, n=1)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                [
                    {
                        "recording_id": "rec00",
                        "machine_path": "corpus/rec00.machine.jsonl",
                        "meta_path": "corpus/rec00.meta.json",
                    }
                ]
            ),
            encoding="utf-8",
        )
        manifest = discover(manifest_path=manifest_path)
        assert manifest.entries[0].expert_path is None

    def test_manifest_missing_key(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([{"recording_id": "x"}]), encoding="utf-8")
        with pytest.raises(ManifestError):
            discover(manifest_path=manifest_path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("recording_id", None),
            ("recording_id", 7),
            ("recording_id", ""),
            ("recording_id", "."),
            ("recording_id", ".."),
            ("recording_id", "../escaped"),
            ("recording_id", "a/b"),
            ("recording_id", "a\\b"),
            ("recording_id", "a\0b"),
            ("machine_path", None),
            ("machine_path", ["a"]),
            ("meta_path", None),
            ("meta_path", 1.5),
            ("expert_path", 0),
            ("expert_path", False),
            ("expert_path", {"path": "x"}),
        ],
    )
    def test_manifest_entry_mistyped(self, tmp_path, field, value):
        entry = {
            "recording_id": "rec00",
            "machine_path": "rec00.machine.jsonl",
            "meta_path": "rec00.meta.json",
            field: value,
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ManifestError, match=field) as excinfo:
            discover(manifest_path=manifest_path)
        assert repr(entry) in str(excinfo.value)

    def test_manifest_null_expert_path_means_none(self, tmp_path):
        entry = {
            "recording_id": "rec00",
            "machine_path": "rec00.machine.jsonl",
            "meta_path": "rec00.meta.json",
            "expert_path": None,
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        assert discover(manifest_path=manifest_path).entries[0].expert_path is None

    @pytest.mark.parametrize("field", ["machine_path", "meta_path", "expert_path"])
    def test_manifest_blank_path_rejected(self, tmp_path, field):
        # a blank path would resolve to the manifest's directory, or read as
        # "no expert table"; either way the entry must be named at once
        corpus_dir(tmp_path, n=1)
        entry = {
            "recording_id": "rec00",
            "machine_path": "corpus/rec00.machine.jsonl",
            "meta_path": "corpus/rec00.meta.json",
            "expert_path": "corpus/rec00.expert.tsv",
            field: "",
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ManifestError, match=field) as excinfo:
            discover(manifest_path=manifest_path)
        assert repr(entry) in str(excinfo.value)
        for verb in ("batch", "align"):
            out = tmp_path / verb
            assert main([verb, "--manifest", str(manifest_path), "--out", str(out)]) == EXIT_FATAL
            assert not out.exists()

    def test_manifest_unknown_key_rejected(self, tmp_path, capsys):
        # a misspelled expert_path must not read as "no expert table"
        corpus_dir(tmp_path, n=1)
        entry = {
            "recording_id": "rec00",
            "machine_path": "corpus/rec00.machine.jsonl",
            "meta_path": "corpus/rec00.meta.json",
            "expert_pth": "corpus/rec00.expert.tsv",
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ManifestError) as excinfo:
            discover(manifest_path=manifest_path)
        assert str(excinfo.value) == (
            f"{manifest_path}: manifest entry: unknown key 'expert_pth': {entry!r}"
        )
        for verb in ("batch", "features", "align", "ingest-check"):
            out = tmp_path / verb
            code = main([verb, "--manifest", str(manifest_path), "--out", str(out)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_FATAL, "")
            assert captured.err == f"talkmetrics: error: {excinfo.value}\n"
            assert not out.exists()

    @pytest.mark.parametrize("record", [3, "rec00", None, ["rec00"]])
    def test_manifest_entry_not_an_object(self, tmp_path, record):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"entries": [record]}), encoding="utf-8")
        with pytest.raises(ManifestError) as excinfo:
            discover(manifest_path=manifest_path)
        # the manifest named, and the entry shown once
        assert str(excinfo.value) == f"{manifest_path}: manifest entry must be an object: {record!r}"

    def test_manifest_absolute_paths_kept(self, tmp_path):
        root = corpus_dir(tmp_path, n=1)
        entry = {
            "recording_id": "rec00",
            "machine_path": str(root / "rec00.machine.jsonl"),
            "meta_path": "corpus/rec00.meta.json",
            "expert_path": str(root / "rec00.expert.tsv"),
        }
        manifest_path = tmp_path / "elsewhere" / "manifest.json"
        manifest_path.parent.mkdir()
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        (found,) = discover(manifest_path=manifest_path).entries
        assert found == ManifestEntry(
            "rec00",
            root / "rec00.machine.jsonl",
            tmp_path / "elsewhere" / "corpus" / "rec00.meta.json",
            root / "rec00.expert.tsv",
        )

    def test_needs_a_root_or_a_manifest(self):
        with pytest.raises(ValueError, match="^discover needs a root_dir or a manifest_path$"):
            discover()

    def test_manifest_missing_file(self, tmp_path):
        with pytest.raises(MissingFile, match="^cannot read manifest: "):
            discover(manifest_path=tmp_path / "gone.json")

    @pytest.mark.parametrize("data", [{"entries": 3}, {"entry": []}, "entries", 7])
    def test_manifest_without_entry_list(self, tmp_path, data):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ManifestError) as excinfo:
            discover(manifest_path=manifest_path)
        assert str(excinfo.value) == f"{manifest_path}: expected a list of entries"

    def test_manifest_id_cannot_leave_out_dir(self, tmp_path, capsys):
        root = corpus_dir(tmp_path, n=1)
        entry = {
            "recording_id": "../escaped",
            "machine_path": "corpus/rec00.machine.jsonl",
            "meta_path": "corpus/rec00.meta.json",
            "expert_path": "corpus/rec00.expert.tsv",
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps([entry]), encoding="utf-8")
        out = tmp_path / "out" / "inner"
        code = main(["align", "--manifest", str(manifest_path), "--out", str(out)])
        assert code == EXIT_FATAL
        assert "recording_id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in root.iterdir()) == [
            "rec00.expert.tsv", "rec00.machine.jsonl", "rec00.meta.json"
        ]

    def test_manifest_invalid_json(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text("{", encoding="utf-8")
        with pytest.raises(ManifestError):
            discover(manifest_path=manifest_path)

    def test_manifest_dangling_path(self, tmp_path):
        # missing machine and meta files fail their recording at ingest; a
        # missing expert table fails only its expert side
        corpus_dir(tmp_path, n=1)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                [
                    {
                        "recording_id": "x",
                        "machine_path": "gone.machine.jsonl",
                        "meta_path": "gone.meta.json",
                    },
                    {
                        "recording_id": "rec00",
                        "machine_path": "corpus/rec00.machine.jsonl",
                        "meta_path": "corpus/rec00.meta.json",
                        "expert_path": "gone.expert.tsv",
                    },
                ]
            ),
            encoding="utf-8",
        )
        manifest = discover(manifest_path=manifest_path)
        assert [e.recording_id for e in manifest.entries] == ["rec00", "x"]
        for verb in ("batch", "features"):
            out = tmp_path / verb
            code = main([verb, "--manifest", str(manifest_path), "--out", str(out)])
            assert code == EXIT_PARTIAL
            errors = json.loads((out / "errors.json").read_text())
            assert [(e["recording_id"], e["stage"]) for e in errors] == [
                ("rec00", "expert"),
                ("x", "ingest"),
            ]
            assert str(tmp_path / "gone.expert.tsv") in errors[0]["message"]
            assert str(tmp_path / "gone.meta.json") in errors[1]["message"]
            rows = (out / "features.csv").read_text().splitlines()[1:]
            assert [row.split(",")[:3] for row in rows] == [
                ["rec00", "machine", "teacher"],
                ["rec00", "machine", "child"],
            ]

    def test_duplicate_ids_rejected(self, tmp_path):
        entry = ManifestEntry("same", tmp_path / "a", tmp_path / "b")
        with pytest.raises(ManifestError):
            CorpusManifest(entries=(entry, entry))

    def test_entries_sorted(self, tmp_path):
        entries = (
            ManifestEntry("zz", tmp_path / "a", tmp_path / "b"),
            ManifestEntry("aa", tmp_path / "a", tmp_path / "b"),
        )
        manifest = CorpusManifest(entries=entries)
        assert [e.recording_id for e in manifest.entries] == ["aa", "zz"]


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(response_window=0.0)
        with pytest.raises(ValueError):
            RunConfig(parallelism=0)

    @pytest.mark.parametrize("name", ["response_window", "ld_window"])
    @pytest.mark.parametrize("value", [float("inf"), 10**400], ids=["inf", "past-float"])
    def test_window_past_the_float_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} is out of range"):
            RunConfig(**{name: value})

    def test_semantic_dict_excludes_execution_fields(self):
        cfg = RunConfig(parallelism=8)
        data = cfg.semantic_dict()
        assert "parallelism" not in data
        assert data["response_window"] == 2.5

    def test_from_mapping_with_overrides(self):
        data = {"response_window": 3.0, "align": {"gap_penalty": 0.1}}
        cfg = RunConfig.from_mapping(data, ld_window=30.0, response_window=None)
        assert cfg.response_window == 3.0  # None override is skipped
        assert cfg.ld_window == 30.0
        assert cfg.align == AlignConfig(gap_penalty=0.1)  # the rest keep their defaults

    def test_override_replaces_a_bad_file_value(self):
        data = {"response_window": "x", "ld_window": 0.5}
        cfg = RunConfig.from_mapping(data, response_window=1.0, ld_window=2.0)
        assert (cfg.response_window, cfg.ld_window) == (1.0, 2.0)

    def test_from_mapping_defaults(self):
        cfg = RunConfig.from_mapping({})
        assert cfg == RunConfig()


class TestRunPipeline:
    def test_empty_manifest_rejected(self):
        with pytest.raises(EmptyCorpus, match="^no recordings found$"):
            CorpusManifest(())

    def test_weather_fixture_end_to_end(self, tmp_path):
        syn.write_weather_recording(tmp_path)
        manifest = discover(root_dir=tmp_path)
        result = run_pipeline(manifest, RunConfig())
        assert result.corpus.n_recordings == 1
        assert result.corpus.n_failed == 0
        assert result.corpus.n_machine_utterances == 10
        assert result.corpus.n_expert_utterances == 10
        # two roles for each of machine and expert
        assert len(result.features) == 4
        assert result.reliability is not None
        assert result.reliability.overall.accuracy == 1.0
        assert result.errors == ()

    def test_features_only_without_expert(self, tmp_path):
        root = corpus_dir(tmp_path, n=2, with_expert=False)
        result = run_pipeline(discover(root_dir=root), RunConfig())
        assert result.reliability is None
        assert "expert" not in result.aggregate
        assert len(result.features) == 4  # two roles per recording, machine only

    def test_bad_recording_is_isolated(self, tmp_path):
        root = corpus_dir(tmp_path, n=3)
        (root / "rec01.machine.jsonl").write_text("{broken\n", encoding="utf-8")
        result = run_pipeline(discover(root_dir=root), RunConfig())
        assert result.corpus.n_recordings == 2
        assert result.corpus.n_failed == 1
        assert [e.recording_id for e in result.errors] == ["rec01"]
        assert result.errors[0].stage == "ingest"
        survivor_ids = {s.recording_id for s in result.features}
        assert survivor_ids == {"rec00", "rec02"}

    def test_damaged_run_matches_clean_subset(self, tmp_path):
        root_a = corpus_dir(tmp_path / "a", n=3, seed=5)
        (root_a / "rec01.machine.jsonl").write_text("nonsense\n", encoding="utf-8")
        root_b = corpus_dir(tmp_path / "b", n=3, seed=5)
        (root_b / "rec01.machine.jsonl").unlink()
        (root_b / "rec01.expert.tsv").unlink()
        (root_b / "rec01.meta.json").unlink()
        damaged = run_pipeline(discover(root_dir=root_a), RunConfig())
        clean = run_pipeline(discover(root_dir=root_b), RunConfig())
        assert damaged.features == clean.features
        assert damaged.reliability == clean.reliability
        assert damaged.aggregate == clean.aggregate

    def test_expert_failure_keeps_machine_features(self, tmp_path):
        root = corpus_dir(tmp_path, n=1)
        (root / "rec00.expert.tsv").write_text("bad header\n", encoding="utf-8")
        result = run_pipeline(discover(root_dir=root), RunConfig())
        assert [e.stage for e in result.errors] == ["expert"]
        assert result.corpus.n_recordings == 1
        assert len(result.features) == 2  # machine side only
        assert result.reliability is None

    def test_header_only_expert_rows_labelled_expert(self, tmp_path):
        root = corpus_dir(tmp_path, n=2)
        (root / "rec00.expert.tsv").write_text("start\tend\tspeaker\ttext\n", encoding="utf-8")
        result = run_pipeline(discover(root_dir=root), RunConfig())
        emit_report(result, tmp_path / "out", format="csv")
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()[1:]
        keys = [tuple(line.split(",")[:3]) for line in lines]
        assert len(keys) == len(set(keys)) == 8
        assert ("rec00", "expert", "teacher") in keys

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_without_agreement_never_aligns(self, tmp_path, monkeypatch, parallelism):
        # forked workers inherit the patched module, so the pool path is checked too
        if parallelism > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the monkeypatch; others check nothing")
        root = corpus_dir(tmp_path, n=3, seed=3)
        (root / "rec01.expert.tsv").write_text("bad header\n", encoding="utf-8")
        manifest = discover(root_dir=root)
        full = run_pipeline(manifest, RunConfig())

        def forbidden(*args, **kwargs):
            raise AssertionError("agreement work in a features-only run")

        for name in ("align", "recording_reliability", "build_report"):
            monkeypatch.setattr(batch_module, name, forbidden)
        lean = run_pipeline(manifest, RunConfig(parallelism=parallelism), agreement=False)
        assert lean.reliability is None
        assert full.reliability is not None
        assert lean.features == full.features
        assert lean.corpus == full.corpus
        assert lean.aggregate == full.aggregate
        assert lean.errors == full.errors
        assert [e.stage for e in lean.errors] == ["expert"]

    @pytest.mark.parametrize("broken", ["align", "recording_reliability", "detect_responses"])
    def test_late_expert_failure_drops_expert_side(self, tmp_path, monkeypatch, broken):
        # a failure after the expert table parsed leaves the run as if that
        # recording had no expert table, plus its error
        root = corpus_dir(tmp_path, n=3, seed=5)
        manifest = discover(root_dir=root)
        original = getattr(batch_module, broken)

        def rec01_expert_side(arg):
            # rec01's expert transcript or alignment, not its machine transcript
            if isinstance(arg, AlignedCorpus):
                arg = arg.expert
            expert = isinstance(arg, Transcript) and arg.source is Source.EXPERT
            return expert and arg.meta.recording_id == "rec01"

        def fails_on_rec01_expert(*args):
            if any(rec01_expert_side(arg) for arg in args):
                raise RuntimeError("boom")
            return original(*args)

        monkeypatch.setattr(batch_module, broken, fails_on_rec01_expert)
        result = run_pipeline(manifest, RunConfig())
        monkeypatch.undo()
        stripped = CorpusManifest(
            tuple(
                replace(entry, expert_path=None) if entry.recording_id == "rec01" else entry
                for entry in manifest.entries
            )
        )
        expected = run_pipeline(stripped, RunConfig())
        assert result.errors == (EntryError("rec01", "expert", "RuntimeError: boom"),)
        assert result.features == expected.features
        assert result.reliability == expected.reliability
        assert result.aggregate == expected.aggregate
        assert result.corpus == replace(expected.corpus, n_failed=1)

    def test_sub_second_duration_fails_its_recording_on_read(self, tmp_path):
        # every per-minute rate over 1e-320 minutes would be infinite
        for recording_id in ("a", "b", "c"):
            *_, meta_path = syn.write_weather_recording(tmp_path / "data", recording_id)
            meta = json.loads(meta_path.read_text())
            meta_path.write_text(json.dumps({**meta, "duration_minutes": 1e-320}))
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out),
                     "--format", "json"])
        assert code == EXIT_PARTIAL

        def reject(token):
            raise ValueError(f"non-finite {token} in a report")

        results = json.loads((out / "results.json").read_text(), parse_constant=reject)
        assert results["corpus"]["n_recordings"] == 0
        errors = json.loads((out / "errors.json").read_text(), parse_constant=reject)
        assert [(e["recording_id"], e["stage"]) for e in errors] == [
            ("a", "ingest"), ("b", "ingest"), ("c", "ingest")
        ]
        assert errors[0]["message"] == (
            f"{tmp_path / 'data' / 'a.meta.json'}: recording a: duration must be at least"
            " one second (0.016666666666666666 minutes), got 1e-320"
        )

    def test_sub_second_duration_voids_the_expert_side_too(self, tmp_path):
        # the machine side has no words, so its rates would be 0 over any
        # duration; the metadata fails on read before either side is parsed
        rows = [{"start": 0.0, "end": 1.0, "text": "w", "speaker": "teacher"}]
        *_, meta_path = syn.write_recording(tmp_path, "r", [{**rows[0], "text": ""}], rows,
                                            duration_minutes=1e-320)
        result = run_pipeline(discover(root_dir=tmp_path), RunConfig())
        assert [(e.recording_id, e.stage) for e in result.errors] == [("r", "ingest")]
        assert result.errors[0].message.startswith(f"{meta_path}: recording r: duration must")
        assert result.features == ()
        assert result.reliability is None

    def test_repeat_runs_identical(self, tmp_path):
        root = corpus_dir(tmp_path, n=3, seed=9)
        manifest = discover(root_dir=root)
        first = run_pipeline(manifest, RunConfig())
        second = run_pipeline(manifest, RunConfig())
        assert first == second

    def test_worker_count_does_not_change_output(self, tmp_path):
        root = corpus_dir(tmp_path, n=4, seed=11)
        manifest = discover(root_dir=root)
        serial = run_pipeline(manifest, RunConfig(parallelism=1))
        parallel = run_pipeline(manifest, RunConfig(parallelism=2))
        assert serial == parallel

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_does_not_change_output(self, tmp_path, method):
        # workers started from a fresh interpreter share nothing with the
        # parent, so their bytes must come from the inputs alone
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        root = tmp_path / "data"
        for i, linked in enumerate((True, False, True, False)):
            syn.write_weather_recording(root, f"rec{i}", linked=linked)
        serial = tmp_path / "serial"
        assert main(["batch", "--root", str(root), "--out", str(serial)]) == EXIT_OK
        pooled = tmp_path / method
        argv = ["batch", "--root", str(root), "--out", str(pooled), "--workers", "2"]
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", START_METHOD_SCRIPT, method, *argv],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=120,
        )
        names = sorted(p.name for p in serial.iterdir())
        assert sorted(p.name for p in pooled.iterdir()) == names
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name

    def test_no_more_workers_than_entries(self, tmp_path):
        # a fork-started pool launches all its workers at once
        manifest = discover(root_dir=corpus_dir(tmp_path, n=2, seed=17))
        stages = ("meta", "machine", "machine_features")
        serial = list(batch_module.process_recordings(manifest.entries, RunConfig(), stages))
        before = set(multiprocessing.active_children())
        outcomes = batch_module.process_recordings(
            manifest.entries, RunConfig(parallelism=8), stages
        )
        first = next(outcomes)
        started = set(multiprocessing.active_children()) - before
        assert [first, *outcomes] == serial
        assert 1 <= len(started) <= 2

    def test_dead_worker_fails_only_its_recording(self, tmp_path):
        # the patch reaches the workers only as a copy of the parent's memory
        method = multiprocessing.get_start_method()
        if method != "fork":
            pytest.skip(f"{method} workers import the batch module afresh, unpatched")
        root = corpus_dir(tmp_path, n=8, seed=23)
        clean = tmp_path / "clean"
        assert main(["batch", "--root", str(root), "--out", str(clean)]) == EXIT_OK
        out = tmp_path / "out"
        argv = ["batch", "--root", str(root), "--out", str(out), "--workers", "2"]
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", DYING_WORKER_SCRIPT, "rec03", str(2**30), *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_PARTIAL, proc.stderr
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [
            {
                "recording_id": "rec03",
                "stage": "ingest",
                "message": "its worker process died (exit code 9)",
            }
        ]

        def rows(path):
            lines = path.read_text().splitlines()
            return [line for line in lines if not line.startswith("rec03,")]

        assert rows(out / "features.csv") == rows(clean / "features.csv")
        results = json.loads((out / "results.json").read_text())
        assert results["corpus"]["n_recordings"] == 7

    def test_each_outcome_is_dropped_before_the_next(self, tmp_path, monkeypatch):
        manifest = discover(root_dir=corpus_dir(tmp_path, n=4, seed=19))
        expected = run_pipeline(manifest, RunConfig())
        original = batch_module.process_recordings
        yielded = []

        def watched(entries, cfg, stages):
            for outcome in original(entries, cfg, stages):
                alive = [ref().recording_id for ref in yielded if ref() is not None]
                assert alive == [], f"still held while {outcome.recording_id} arrives"
                yielded.append(weakref.ref(outcome))
                yield outcome

        monkeypatch.setattr(batch_module, "process_recordings", watched)
        assert run_pipeline(manifest, RunConfig()) == expected
        assert len(yielded) == 4

    @settings(deadline=None)
    @given(
        st.dictionaries(
            st.text("ab", min_size=1, max_size=2),
            st.lists(st.tuples(ICC_CELLS, ICC_CELLS), min_size=1, max_size=12),
            max_size=4,
        )
    )
    @example(
        {
            "every_row_missing": [(None, 1.0), (math.nan, None), (None, None)],
            "one_complete_row": [(1.0, 2.0), (None, 3.0), (4.0, math.nan)],
            "all_equal": [(2.0, 2.0), (2.0, 2.0), (None, 2.0)],
            "nan_only": [(math.nan, math.nan)],
        }
    )
    def test_icc_grid_gives_the_entries_of_pair_lists(self, pairs):
        grid = batch_module._IccGrid()
        for key, rows in pairs.items():
            for machine, expert in rows:
                grid.add(key, machine, expert)
        assert build_report([], grid.pairs()).iccs == build_report([], pairs).iccs

    def test_json_round_trip(self, tmp_path):
        root = corpus_dir(tmp_path, n=2, seed=13)
        result = run_pipeline(discover(root_dir=root), RunConfig())
        clone = decode(PipelineResult, json.loads(json.dumps(syn.encoded(result))))
        assert clone == result

    def test_aggregate_utterance_ratio(self, tmp_path):
        rows_teacher = [
            {"start": 3.0 * i, "end": 3.0 * i + 1, "text": "w", "speaker": "teacher"}
            for i in range(6)
        ]
        rows_child = [
            {"start": 3.0 * i + 1.5, "end": 3.0 * i + 2, "text": "w", "speaker": "child"}
            for i in range(3)
        ]
        rows = sorted(rows_teacher + rows_child, key=lambda r: r["start"])
        syn.write_recording(tmp_path, "ratio", rows, duration_minutes=1.0)
        result = run_pipeline(discover(root_dir=tmp_path), RunConfig())
        assert result.aggregate["machine"].teacher_child_utterance_ratio == 2.0


class TestEmitReport:
    def test_csv_file_set(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        out = tmp_path / "out"
        written = emit_report(result, out, format="csv")
        names = sorted(p.name for p in written)
        assert names == [
            "aggregate_features.csv",
            "features.csv",
            "icc.csv",
            "reliability_per_recording.csv",
            "results.json",
        ]
        # literal, so a reordered or renamed column shows here
        headers = {
            "features.csv": "recording_id,source,role,n_utterances,n_questions,"
            "n_non_questions,mlu_overall,mlu_question,mlu_non_question,words_per_minute,"
            "n_responded_questions,n_responded_non_questions,prop_responded_questions,"
            "prop_responded_non_questions,pct_questions,n_responses_given,"
            "lexical_diversity_per_minute,lexical_diversity_pooled",
            "reliability_per_recording.csv": "recording_id,duration_minutes,f1_weighted,"
            "accuracy,kappa,wer_teacher,wer_child",
            "icc.csv": "feature,icc,n_used,n_dropped,zero_variance",
            "aggregate_features.csv": "source,role,n_recordings,n_utterances,n_questions,"
            "n_non_questions,n_responded_questions,n_responded_non_questions,"
            "n_responses_given,total_words,mlu_pooled,words_per_minute_pooled,"
            "prop_responded_questions_pooled,prop_responded_non_questions_pooled,"
            "pct_questions_pooled,pct_questions_mean,mean_lexical_diversity_per_minute,"
            "teacher_child_utterance_ratio",
        }
        for name, header in headers.items():
            assert (out / name).read_text().splitlines()[0] == header, name

    def test_json_format_writes_results_only(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        written = emit_report(result, tmp_path / "out", format="json")
        assert [p.name for p in written] == ["results.json"]

    def test_errors_file_only_when_failures(self, tmp_path):
        root = corpus_dir(tmp_path / "data", n=2)
        (root / "rec00.machine.jsonl").write_text("}{", encoding="utf-8")
        result = run_pipeline(discover(root_dir=root), RunConfig())
        written = emit_report(result, tmp_path / "out", format="json")
        assert sorted(p.name for p in written) == ["errors.json", "results.json"]
        errors = json.loads((tmp_path / "out" / "errors.json").read_text())
        assert errors[0]["recording_id"] == "rec00"

    def test_results_json_round_trips(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        emit_report(result, tmp_path / "out", format="json")
        data = json.loads((tmp_path / "out" / "results.json").read_text())
        assert decode(PipelineResult, data) == result

    def test_csv_cells_rounded_to_three_decimals(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        emit_report(result, tmp_path / "out", format="csv")
        features_csv = (tmp_path / "out" / "features.csv").read_text()
        assert "6.667" in features_csv  # teacher question MLU of 20/3
        assert "6.6666" not in features_csv

    def test_reliability_table_summary_rows(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        rows = reliability_table(result.reliability)
        assert rows[-2][0] == "Time-Weighted Mean"
        assert rows[-1][0] == "Overall"
        assert rows[-1][1] is None  # pooled row has no duration
        assert rows[-2][1] == pytest.approx(1.0)  # fixture is one minute long

    def test_icc_table_sorted_by_feature(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        names = [row[0] for row in icc_table(result.reliability)]
        assert names == sorted(names)

    def test_bad_format_rejected(self, tmp_path):
        syn.write_weather_recording(tmp_path / "data")
        result = run_pipeline(discover(root_dir=tmp_path / "data"), RunConfig())
        with pytest.raises(ValueError):
            emit_report(result, tmp_path / "out", format="xlsx")


class TestCellFormat:
    def test_rounding(self):
        assert _fmt(1 / 3) == "0.333"
        assert _fmt(5 / 6) == "0.833"
        assert _fmt(2.0) == "2.0"

    def test_none_blank(self):
        assert _fmt(None) == ""

    def test_bool_lowercase(self):
        assert _fmt(True) == "true"

    def test_int_verbatim(self):
        assert _fmt(42) == "42"
