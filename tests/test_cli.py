"""Command-line behavior: verbs, flags, exit codes, artifacts, logging."""

import json
import os
import subprocess
import sys
import types
import typing
from dataclasses import is_dataclass

import pytest

import synthetic as syn
from talkmetrics.batch import PipelineResult, RunConfig
from talkmetrics.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main


def declared_fields(hint, value, path="", keys=()):
    """(path, keys) of every dataclass field in ``value``, the JSON of the
    declared type ``hint``, as ``decode`` names it: below the first item of
    each array and every value of a mapping. A results file's ``config``
    holds the fields of ``RunConfig`` but ``parallelism``, which a run never
    writes."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if value is None:
        return
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        yield from declared_fields(inner, value, path, keys)
    elif origin is tuple and value:
        yield from declared_fields(args[0], value[0], f"{path}[0]", (*keys, 0))
    elif origin is dict:
        for key, item in value.items():
            yield from declared_fields(args[1], item, f"{path}[{key!r}]", (*keys, key))
    elif is_dataclass(hint):
        for name, inner in typing.get_type_hints(hint).items():
            if (hint, name) == (RunConfig, "parallelism"):
                continue
            where = f"{path}.{name}" if path else name
            yield where, (*keys, name)
            inner = RunConfig if where == "config" else inner
            yield from declared_fields(inner, value[name], where, (*keys, name))


def get_at(value, keys):
    for key in keys:
        value = value[key]
    return value


@pytest.fixture()
def weather_dir(tmp_path):
    syn.write_weather_recording(tmp_path / "data")
    return tmp_path / "data"


class TestUsageErrors:
    def test_no_verb(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_verb(self, capsys):
        assert main(["destroy"]) == EXIT_USAGE

    def test_corpus_flags_required(self, capsys):
        assert main(["batch", "--out", "x"]) == EXIT_USAGE
        assert "exactly one of --root or --manifest" in capsys.readouterr().err

    def test_corpus_flags_exclusive(self, tmp_path, capsys):
        code = main(
            ["batch", "--root", str(tmp_path), "--manifest", str(tmp_path / "m.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE

    def test_bad_response_window(self, tmp_path, capsys):
        code = main(
            ["features", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--response-window", "-1"]
        )
        assert code == EXIT_USAGE

    def test_nan_response_window(self, tmp_path, capsys):
        code = main(
            ["features", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--response-window", "nan"]
        )
        assert code == EXIT_USAGE
        assert "must be positive: nan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--response-window", "--ld-window"])
    @pytest.mark.parametrize(
        "value", ["inf", "1e400", "1" + "0" * 400], ids=["inf", "1e400", "past-float"]
    )
    def test_infinite_window(self, tmp_path, capsys, flag, value):
        code = main(
            ["features", "--root", str(tmp_path), "--out", str(tmp_path / "out"), flag, value]
        )
        assert code == EXIT_USAGE
        field = flag[2:].replace("-", "_")
        # the flag parses as a float first, so every spelling reads as inf
        assert f"argument {flag}: {field} is out of range: inf" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", "0.9999999999999999", "1e-320"])
    def test_ld_window_under_one_second(self, tmp_path, capsys, value):
        # a window index onset // ld_window overflows for a large onset
        code = main(
            ["features", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--ld-window", value]
        )
        assert code == EXIT_USAGE
        assert f"argument --ld-window: ld_window must be at least 1 second: {value}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_bad_workers(self, tmp_path):
        code = main(
            ["batch", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--workers", "0"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("verb", ["features", "reliability", "batch"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--response-window", "0", "response_window must be positive: 0.0"),
            ("--ld-window", "0.5", "ld_window must be at least 1 second: 0.5"),
            ("--workers", "0", "parallelism must be at least 1: 0"),
        ],
    )
    @pytest.mark.parametrize("fault", ["missing-root", "invalid-config"])
    def test_flags_checked_before_corpus_and_config(
        self, tmp_path, capsys, verb, flag, value, message, fault
    ):
        # a bad flag is a usage error, whatever else is wrong with the run
        if fault == "missing-root":
            source = ["--root", str(tmp_path / "nowhere")]
        else:
            syn.write_weather_recording(tmp_path / "data")
            (tmp_path / "config.json").write_bytes(b"{")
            source = ["--root", str(tmp_path / "data"), "--config", str(tmp_path / "config.json")]
        out = tmp_path / "out"
        code = main([verb, *source, "--out", str(out), flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.endswith(f"talkmetrics: error: argument {flag}: {message}\n")
        assert not out.exists()

    def test_bad_format(self, tmp_path):
        code = main(
            ["batch", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--format", "xml"]
        )
        assert code == EXIT_USAGE

    def test_missing_out(self, tmp_path):
        assert main(["batch", "--root", str(tmp_path)]) == EXIT_USAGE

    def test_align_takes_no_format(self, tmp_path, capsys):
        code = main(
            ["align", "--root", str(tmp_path), "--out", str(tmp_path / "out"),
             "--format", "json"]
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFatalErrors:
    def test_missing_root(self, tmp_path, capsys):
        code = main(
            ["batch", "--root", str(tmp_path / "nowhere"), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_FATAL
        assert "talkmetrics: error:" in capsys.readouterr().err

    def test_empty_root(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(
            ["batch", "--root", str(tmp_path / "empty"), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_FATAL

    def test_report_missing_file(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "gone.json"), "--out", str(tmp_path / "out")])
        assert code == EXIT_FATAL

    def test_report_not_a_results_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"surprise": true}', encoding="utf-8")
        code = main(["report", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_FATAL
        assert "not a results file" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["batch", "report"])
    @pytest.mark.parametrize(
        "content, detail",
        [
            (b"{", "Expecting property name enclosed in double quotes\n"),
            (b"\xff[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b'[{"recording_id": ' + b"1" * 5000 + b"}]", "Exceeds the limit (4300 digits)"),
        ],
        ids=["bad-json", "not-utf8", "long-int"],
    )
    def test_undecodable_json_file(self, tmp_path, capsys, verb, content, detail):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        source = ["--manifest", str(path)] if verb == "batch" else [str(path)]
        code = main([verb, *source, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_FATAL, "")
        assert captured.err.startswith(f"talkmetrics: error: {path}: invalid JSON: {detail}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_report_non_finite_number(self, weather_dir, tmp_path, capsys, token):
        # RFC 8259 has no NaN or Infinity; json reads 1e400 as inf
        assert main(["batch", "--root", str(weather_dir), "--out", str(tmp_path / "a")]) == EXIT_OK
        capsys.readouterr()
        data = json.loads((tmp_path / "a" / "results.json").read_text())
        data["corpus"]["hours"] = "__hours__"
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data).replace('"__hours__"', token), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["report", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_FATAL, "")
        assert captured.err == (
            f"talkmetrics: error: {path}: invalid JSON: not a finite number: {token}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["missing-role", "list"])
    def test_report_malformed_aggregate(self, weather_dir, tmp_path, capsys, damage):
        assert main(["batch", "--root", str(weather_dir), "--out", str(tmp_path / "a")]) == EXIT_OK
        capsys.readouterr()
        data = json.loads((tmp_path / "a" / "results.json").read_text())
        if damage == "missing-role":
            del data["aggregate"]["machine"]["teacher"]
        else:
            data["aggregate"] = {"machine": [1, 2]}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        for format in ("csv", "json"):
            code = main(["report", str(path), "--out", str(out), "--format", format])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_FATAL, "")
            assert captured.err.startswith(f"talkmetrics: error: {path}: not a results file: ")
            assert captured.err.count("\n") == 1
            assert not out.exists()

    def test_report_mistyped_leaf(self, tmp_path, capsys):
        for i in range(3):
            syn.write_weather_recording(tmp_path / "data", f"w{i}")
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(tmp_path / "a")])
        assert code == EXIT_OK
        capsys.readouterr()
        saved = (tmp_path / "a" / "results.json").read_text()

        def features(data):
            data["features"][0]["n_utterances"] = "many"
            data["features"][0]["words_per_minute"] = True

        def feature_source(data):
            data["features"][0]["source"] = "robot"

        def config(data):
            data["config"]["response_window"] = "x"

        def corpus(data):
            data["corpus"]["n_recordings"] = "many"

        def aggregate(data):
            data["aggregate"]["machine"]["teacher"]["mlu_pooled"] = "fast"

        def empty_config(data):
            data["config"] = {}

        def empty_align(data):
            data["config"]["align"] = {}

        def config_parallelism(data):
            data["config"]["parallelism"] = 1

        def bogus_source(data):
            data["aggregate"]["bogus"] = data["aggregate"]["machine"]

        def no_machine_source(data):
            del data["aggregate"]["machine"]

        def expert_source_first(data):
            data["aggregate"] = dict(reversed(data["aggregate"].items()))

        def bogus_corpus(data):
            data["corpus"] = {"bogus": 1}

        def extra_corpus_key(data):
            data["corpus"]["bogus"] = 1

        def extra_pool_key(data):
            data["aggregate"]["machine"]["bogus"] = 1

        def extra_role_key(data):
            data["aggregate"]["machine"]["teacher"]["bogus"] = 1

        def fractional_corpus_count(data):
            data["corpus"]["n_recordings"] = 2.5

        def fractional_pool_count(data):
            data["aggregate"]["machine"]["teacher"]["n_utterances"] = 3.5

        def null_hours(data):
            data["corpus"]["hours"] = None

        def null_pool_count(data):
            data["aggregate"]["machine"]["child"]["total_words"] = None

        def config_out_of_range(data):
            data["config"]["align"]["min_iou"] = 3

        def negative_count(data):
            data["reliability"]["rows"][0]["confusion"]["counts"][0][1] = -1

        def feature_role(data):
            data["features"][0]["role"] = "other"

        cases = [
            (features, "features[0].n_utterances must be an integer: 'many'"),
            (
                feature_source,
                "features[0].source must be one of 'machine', 'expert': 'robot'",
            ),
            (config, "config.response_window must be a number: 'x'"),
            (corpus, "corpus.n_recordings must be an integer: 'many'"),
            (aggregate, "aggregate['machine'].teacher.mlu_pooled must be a number: 'fast'"),
            (empty_config, "missing key 'config.align'"),
            (empty_align, "missing key 'config.align.similarity_weight'"),
            (config_parallelism, "unknown key 'config.parallelism'"),
            (
                bogus_source,
                "aggregate sources must be machine and, optionally, expert:"
                " ['machine', 'expert', 'bogus']",
            ),
            (
                no_machine_source,
                "aggregate sources must be machine and, optionally, expert: ['expert']",
            ),
            (
                expert_source_first,
                "aggregate sources must be machine and, optionally, expert: ['expert', 'machine']",
            ),
            (bogus_corpus, "missing key 'corpus.n_recordings'"),
            (extra_corpus_key, "unknown key 'corpus.bogus'"),
            (extra_pool_key, "unknown key \"aggregate['machine'].bogus\""),
            (extra_role_key, "unknown key \"aggregate['machine'].teacher.bogus\""),
            (fractional_corpus_count, "corpus.n_recordings must be an integer: 2.5"),
            (
                fractional_pool_count,
                "aggregate['machine'].teacher.n_utterances must be an integer: 3.5",
            ),
            (null_hours, "corpus.hours must be a number: None"),
            (null_pool_count, "aggregate['machine'].child.total_words must be an integer: None"),
            (config_out_of_range, "config.align.min_iou must be in [0, 1]: 3"),
            (negative_count, "reliability.rows[0].confusion.counts must be non-negative"),
            (feature_role, "features[0].role must be one of 'teacher', 'child': 'other'"),
        ]
        path = tmp_path / "odd.json"
        out = tmp_path / "out"
        for damage, message in cases:
            data = json.loads(saved)
            damage(data)
            path.write_text(json.dumps(data), encoding="utf-8")
            for format in ("csv", "json"):
                code = main(["report", str(path), "--out", str(out), "--format", format])
                captured = capsys.readouterr()
                assert (code, captured.out) == (EXIT_FATAL, "")
                assert captured.err == (
                    f"talkmetrics: error: {path}: not a results file: {message}\n"
                )
                assert not out.exists()

    def test_report_requires_every_declared_field(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        for i in range(3):
            syn.write_weather_recording(data_dir, f"w{i}")
        syn.write_weather_recording(data_dir, "broken")
        (data_dir / "broken.expert.tsv").write_text("wrong\n", encoding="utf-8")
        code = main(
            ["batch", "--root", str(data_dir), "--out", str(tmp_path / "a"), "--format", "json"]
        )
        assert code == EXIT_PARTIAL
        capsys.readouterr()
        saved = (tmp_path / "a" / "results.json").read_text()
        result = json.loads(saved)
        assert result["reliability"]["rows"] and len(result["errors"]) == 1
        assert list(result["aggregate"]) == ["machine", "expert"]
        declared = list(declared_fields(PipelineResult, result))
        assert {
            "config.align.gap_penalty",
            "reliability.iccs",
            "reliability.rows[0].confusion.excluded_other",
            "reliability.iccs['teacher_mlu_overall'].zero_variance",
            "aggregate['expert'].child.n_utterances",
            "errors[0].message",
        } <= {path for path, _ in declared}
        path = tmp_path / "odd.json"
        out = tmp_path / "out"
        for where, keys in declared:
            data = json.loads(saved)
            del get_at(data, keys[:-1])[keys[-1]]
            path.write_text(json.dumps(data), encoding="utf-8")
            code = main(["report", str(path), "--out", str(out)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_FATAL, ""), where
            assert captured.err == (
                f"talkmetrics: error: {path}: not a results file: missing key {where!r}\n"
            )
            assert not out.exists()

    def test_out_is_a_file(self, weather_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept", encoding="utf-8")
        code = main(["batch", "--root", str(weather_dir), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_FATAL, "")
        assert captured.err.startswith(f"talkmetrics: error: cannot write report to {out}: ")
        assert captured.err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "kept"

    def test_report_wrong_shape_inside(self, weather_dir, tmp_path, capsys):
        code = main(["batch", "--root", str(weather_dir), "--out", str(tmp_path / "a")])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "a" / "results.json").read_text())
        data["reliability"]["iccs"] = []
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["report", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_FATAL
        assert "not a results file" in capsys.readouterr().err


class TestIngestCheck:
    def test_clean_corpus(self, weather_dir, capsys):
        assert main(["ingest-check", "--root", str(weather_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weather: ok" in out
        assert "10 machine" in out

    def test_failure_exits_partial(self, weather_dir, capsys):
        (weather_dir / "weather.machine.jsonl").write_text("{broken\n", encoding="utf-8")
        assert main(["ingest-check", "--root", str(weather_dir)]) == EXIT_PARTIAL
        assert "FAIL" in capsys.readouterr().out

    def test_duration_overflowing_in_seconds_fails(self, tmp_path, capsys):
        rows = [{"start": 0.0, "end": 1.0, "text": "hi", "speaker": "teacher"}]
        syn.write_recording(tmp_path / "data", "r1", rows, duration_minutes=1e307)
        assert main(["ingest-check", "--root", str(tmp_path / "data")]) == EXIT_PARTIAL
        assert "r1: FAIL " in capsys.readouterr().out

    def test_json_output(self, weather_dir, capsys):
        code = main(["ingest-check", "--root", str(weather_dir), "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n_checked"] == 1 and report["n_failed"] == 0
        assert report["recordings"][0]["ok"]

    def test_text_is_the_default_format(self, weather_dir, capsys):
        assert main(["ingest-check", "--root", str(weather_dir)]) == EXIT_OK
        default = capsys.readouterr()
        code = main(["ingest-check", "--root", str(weather_dir), "--format", "text"])
        assert code == EXIT_OK
        assert capsys.readouterr() == default

    def test_csv_is_a_usage_error(self, weather_dir, tmp_path, capsys):
        out = tmp_path / "check"
        code = main(
            ["ingest-check", "--root", str(weather_dir), "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err
        assert not out.exists()

    def test_json_stdout_is_the_report_file(self, weather_dir, tmp_path, capsys):
        (weather_dir / "weather.expert.tsv").write_text("wrong\n", encoding="utf-8")
        out = tmp_path / "check"
        code = main(
            ["ingest-check", "--root", str(weather_dir), "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_PARTIAL
        stdout = capsys.readouterr().out
        assert stdout == (out / "ingest_report.json").read_text()
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"

    def test_report_file(self, weather_dir, tmp_path, capsys):
        out = tmp_path / "check"
        assert main(["ingest-check", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["recordings"][0]["n_expert_utterances"] == 10

    def test_validation_findings_reported(self, tmp_path, capsys):
        rows = [
            {"start": 0.0, "end": 5.0, "text": "first", "speaker": "teacher"},
            {"start": 3.0, "end": 6.0, "text": "second", "speaker": "teacher"},
        ]
        syn.write_recording(tmp_path / "data", "noisy", rows)
        code = main(["ingest-check", "--root", str(tmp_path / "data"), "--format", "json"])
        assert code == EXIT_OK  # findings are warnings, not failures
        report = json.loads(capsys.readouterr().out)
        codes = [f["code"] for f in report["recordings"][0]["findings"]]
        assert codes == ["overlap"]


class TestAlign:
    def test_writes_audit_files(self, weather_dir, tmp_path, capsys):
        out = tmp_path / "aligned"
        assert main(["align", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        lines = (out / "weather.alignment.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert "10 pairs" in capsys.readouterr().out

    def test_no_expert_anywhere_is_fatal(self, tmp_path, capsys):
        rows = [{"start": 0.0, "end": 1.0, "text": "x", "speaker": "teacher"}]
        syn.write_recording(tmp_path / "data", "solo", rows)
        code = main(["align", "--root", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "talkmetrics: no recording has an expert transcript\n",
        )
        assert not (tmp_path / "out").exists()

    def test_broken_expert_is_partial(self, weather_dir, tmp_path, capsys):
        (weather_dir / "weather.expert.tsv").write_text("wrong\n", encoding="utf-8")
        code = main(["align", "--root", str(weather_dir), "--out", str(tmp_path / "out")])
        assert code == EXIT_PARTIAL


class TestFeatures:
    def test_csv_artifact(self, weather_dir, tmp_path):
        out = tmp_path / "feat"
        assert main(["features", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0].startswith("recording_id,source,role,")
        assert len(lines) == 5  # header + two roles for each source

    def test_json_artifact(self, weather_dir, tmp_path):
        out = tmp_path / "feat"
        code = main(
            ["features", "--root", str(weather_dir), "--out", str(out), "--format", "json"]
        )
        assert code == EXIT_OK
        data = json.loads((out / "features.json").read_text())
        assert len(data["features"]) == 4

    def test_response_window_flag_changes_results(self, weather_dir, tmp_path):
        out_narrow = tmp_path / "narrow"
        out_wide = tmp_path / "wide"
        main(["features", "--root", str(weather_dir), "--out", str(out_narrow),
              "--response-window", "0.1"])
        main(["features", "--root", str(weather_dir), "--out", str(out_wide),
              "--response-window", "10"])
        narrow = (out_narrow / "features.csv").read_text()
        wide = (out_wide / "features.csv").read_text()
        assert narrow != wide


def write_mixed_corpus(root, kind):
    """Three recordings whose expert tables are linked, unlinked, or (for
    ``damaged``) a mix with one broken machine file and one broken table."""
    for recording_id in ("r1", "r2", "r3"):
        syn.write_weather_recording(root, recording_id, linked=kind == "linked")
    if kind == "damaged":
        corrupt_machine_bytes(root, "r1")
        path = root / "r3.expert.tsv"
        path.write_text(path.read_text().replace("\tchild\t", "\trobot\t", 1))


class TestFeaturesMatchBatch:
    """``features`` skips alignment and agreement, yet writes what ``batch``
    writes for features and failures."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kind", ["linked", "unlinked", "damaged"])
    def test_same_files_and_exit_code(self, tmp_path, kind, workers):
        root = tmp_path / "data"
        write_mixed_corpus(root, kind)
        runs = {}
        for verb, fmt in (("batch", "csv"), ("features", "csv"), ("features", "json")):
            out = tmp_path / f"{verb}-{fmt}"
            code = main([verb, "--root", str(root), "--out", str(out),
                         "--workers", workers, "--format", fmt])
            runs[verb, fmt] = code, out
        batch_code, batch_out = runs["batch", "csv"]
        assert batch_code == (EXIT_PARTIAL if kind == "damaged" else EXIT_OK)
        for fmt in ("csv", "json"):
            code, out = runs["features", fmt]
            assert code == batch_code
            if kind == "damaged":
                assert (out / "errors.json").read_bytes() == (batch_out / "errors.json").read_bytes()
            else:
                assert not (out / "errors.json").exists()
        features_csv = runs["features", "csv"][1] / "features.csv"
        assert features_csv.read_bytes() == (batch_out / "features.csv").read_bytes()
        features_json = json.loads((runs["features", "json"][1] / "features.json").read_text())
        results = json.loads((batch_out / "results.json").read_text())
        assert features_json == {"features": results["features"]}
        assert len(results["features"]) == (6 if kind == "damaged" else 12)


class TestPipelineVerbOutcomes:
    """Each pipeline verb's exit code, stdout line and files, per format,
    on a clean corpus and on one with an ingest and an expert failure."""

    @pytest.mark.parametrize(
        "kind, code, n_done, n_agreement, n_failed",
        [("linked", EXIT_OK, 3, 3, 0), ("damaged", EXIT_PARTIAL, 2, 1, 2)],
    )
    def test_line_code_and_files(
        self, tmp_path, capsys, kind, code, n_done, n_agreement, n_failed
    ):
        root = tmp_path / "data"
        write_mixed_corpus(root, kind)
        features = "wrote features for {n_done} recordings to {out}"
        reliability = "wrote reliability for {n_agreement} recordings to {out}"
        batch = "processed {n_done} recordings ({n_failed} failed), reports in {out}"
        report = "wrote {n_files} files to {out}"
        reliability_csv = ["icc.csv", "reliability_per_recording.csv"]
        batch_csv = ["aggregate_features.csv", "features.csv", *reliability_csv, "results.json"]
        expected = {
            ("features", "csv"): (code, features, ["features.csv"]),
            ("features", "json"): (code, features, ["features.json"]),
            ("reliability", "csv"): (code, reliability, reliability_csv),
            ("reliability", "json"): (code, reliability, ["reliability.json"]),
            ("batch", "csv"): (code, batch, batch_csv),
            ("batch", "json"): (code, batch, ["results.json"]),
            ("report", "csv"): (EXIT_OK, report, batch_csv),
            ("report", "json"): (EXIT_OK, report, ["results.json"]),
        }
        for (verb, fmt), (want_code, line, files) in expected.items():
            source = ["--root", str(root)]
            if verb == "report":
                source = [str(tmp_path / "batch-json" / "results.json")]
            out = tmp_path / f"{verb}-{fmt}"
            got = main([verb, *source, "--out", str(out), "--format", fmt])
            files = sorted(files + (["errors.json"] if n_failed else []))
            line = line.format(
                out=out, n_done=n_done, n_agreement=n_agreement, n_failed=n_failed,
                n_files=len(files),
            )
            assert (got, capsys.readouterr().out) == (want_code, line + "\n"), (verb, fmt)
            assert sorted(p.name for p in out.iterdir()) == files, (verb, fmt)


class TestReliability:
    def test_csv_artifacts(self, weather_dir, tmp_path):
        out = tmp_path / "rel"
        assert main(["reliability", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        rows = (out / "reliability_per_recording.csv").read_text().splitlines()
        assert rows[0] == "recording_id,duration_minutes,f1_weighted,accuracy,kappa,wer_teacher,wer_child"
        assert rows[1].startswith("weather,")
        assert (out / "icc.csv").is_file()

    def test_machine_only_corpus_is_fatal(self, tmp_path, capsys):
        rows = [{"start": 0.0, "end": 1.0, "text": "x", "speaker": "teacher"}]
        syn.write_recording(tmp_path / "data", "solo", rows)
        code = main(
            ["reliability", "--root", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_FATAL
        assert "no recording has an expert transcript" in capsys.readouterr().err
        assert not (tmp_path / "out" / "errors.json").exists()

    def test_all_failed_still_writes_errors(self, tmp_path, capsys):
        root = tmp_path / "data"
        for recording_id in ("m1", "m2", "e1", "e2"):
            syn.write_weather_recording(root, recording_id)
        for recording_id in ("m1", "m2"):
            (root / f"{recording_id}.machine.jsonl").write_text("{broken\n", encoding="utf-8")
        for recording_id in ("e1", "e2"):
            (root / f"{recording_id}.expert.tsv").write_text("wrong\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["reliability", "--root", str(root), "--out", str(out)]) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "no recording yielded agreement statistics; 4 recordings failed" in err
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [
            ("e1", "expert"), ("e2", "expert"), ("m1", "ingest"), ("m2", "ingest")
        ]
        assert main(["batch", "--root", str(root), "--out", str(tmp_path / "b")]) == EXIT_PARTIAL
        assert (tmp_path / "b" / "errors.json").read_bytes() == (out / "errors.json").read_bytes()

    def test_json_artifact(self, weather_dir, tmp_path):
        out = tmp_path / "rel"
        code = main(
            ["reliability", "--root", str(weather_dir), "--out", str(out), "--format", "json"]
        )
        assert code == EXIT_OK
        data = json.loads((out / "reliability.json").read_text())
        assert data["reliability"]["overall"]["accuracy"] == 1.0


class TestBatch:
    def test_full_run(self, weather_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["batch", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        for name in (
            "results.json",
            "features.csv",
            "reliability_per_recording.csv",
            "icc.csv",
            "aggregate_features.csv",
        ):
            assert (out / name).is_file(), name
        assert "processed 1 recordings (0 failed)" in capsys.readouterr().out

    def test_partial_failure(self, tmp_path, capsys):
        syn.write_weather_recording(tmp_path / "data", "good")
        syn.write_weather_recording(tmp_path / "data", "bad")
        (tmp_path / "data" / "bad.machine.jsonl").write_text("][", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert errors[0]["recording_id"] == "bad"

    def test_undecodable_machine_file_is_partial(self, tmp_path, capsys):
        syn.write_weather_recording(tmp_path / "data", "good")
        syn.write_weather_recording(tmp_path / "data", "bad")
        path = tmp_path / "data" / "bad.machine.jsonl"
        path.write_bytes(path.read_bytes().replace(b"sunny", b"sunn\xff", 1))
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [("bad", "ingest")]
        assert "UnicodeDecodeError" in errors[0]["message"]

    def test_non_finite_duration_is_partial(self, tmp_path, capsys):
        syn.write_weather_recording(tmp_path / "data", "good")
        syn.write_weather_recording(tmp_path / "data", "bad")
        path = tmp_path / "data" / "bad.meta.json"
        meta = json.loads(path.read_text())
        meta["duration_minutes"] = float("nan")
        path.write_text(json.dumps(meta), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [("bad", "ingest")]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("duration_minutes", "5", "duration_minutes must be a number: '5'"),
            ("duration_minutes", True, "duration_minutes must be a number: True"),
            ("wearer_role", None, "wearer_role must be a string: None"),
            ("wearer_role", ["teacher"], "wearer_role must be a string: ['teacher']"),
        ],
    )
    def test_mistyped_meta_value_is_partial(self, tmp_path, key, value, message):
        # read as it is, never float()'d or str()'d: "5" is not five minutes
        for recording_id in ("good", "bad"):
            syn.write_weather_recording(tmp_path / "data", recording_id)
        path = tmp_path / "data" / "bad.meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [
            {"recording_id": "bad", "stage": "ingest", "message": f"{path}: {message}"}
        ]

    def test_meta_not_an_object_is_partial(self, tmp_path):
        for recording_id in ("good", "bad"):
            syn.write_weather_recording(tmp_path / "data", recording_id)
        path = tmp_path / "data" / "bad.meta.json"
        path.write_text(json.dumps([json.loads(path.read_text())]))
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [
            {
                "recording_id": "bad",
                "stage": "ingest",
                "message": f"{path}: metadata must be a JSON object",
            }
        ]

    def test_duration_above_bound_is_partial(self, tmp_path):
        for recording_id in ("good", "long"):
            syn.write_weather_recording(tmp_path / "data", recording_id)
        path = tmp_path / "data" / "long.meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "duration_minutes": 2.9e306}))
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [("long", "ingest")]
        assert "at most 1,000,000 minutes" in errors[0]["message"]

    def test_manifest_input(self, weather_dir, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {
                        "recording_id": "weather",
                        "machine_path": str(weather_dir / "weather.machine.jsonl"),
                        "meta_path": str(weather_dir / "weather.meta.json"),
                        "expert_path": str(weather_dir / "weather.expert.tsv"),
                    }
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK

    def test_config_file_and_flag_override(self, weather_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"response_window": 4.0}), encoding="utf-8")
        out = tmp_path / "out"
        main(["batch", "--root", str(weather_dir), "--out", str(out),
              "--config", str(config)])
        results = json.loads((out / "results.json").read_text())
        assert results["config"]["response_window"] == 4.0
        out2 = tmp_path / "out2"
        main(["batch", "--root", str(weather_dir), "--out", str(out2),
              "--config", str(config), "--response-window", "1.5"])
        results = json.loads((out2 / "results.json").read_text())
        assert results["config"]["response_window"] == 1.5

    @pytest.mark.parametrize("verb", ["batch", "align"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{", "invalid JSON"),
            (b"\xff{}", "invalid JSON"),
            (b"\xef\xbb\xbf{}", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            (b"[]", "config must be a JSON object"),
            (b'{"response_windw": 4.0}', "unknown key 'response_windw'"),
            (b'{"align": {"gap": 0.1}}', "unknown key 'align.gap'"),
            (b'{"align": [0.1]}', "align must be an object"),
            (b'{"parallelism": 2}', "unknown key 'parallelism'"),
            (b'{"response_window": "x"}', "response_window must be a number: 'x'"),
            (b'{"ld_window": true}', "ld_window must be a number: True"),
            (b'{"wer_wearer_match": "no"}', "wer_wearer_match must be true or false"),
            (b'{"align": {"gap_penalty": -1}}', "align.gap_penalty must be non-negative"),
            (b'{"align": {"min_iou": NaN}}', "invalid JSON: not a finite number: NaN"),
            (b'{"align": {"min_iou": -0.5}}', "align.min_iou must be in [0, 1]: -0.5"),
            (
                b'{"align": {"min_text_similarity": 7}}',
                "align.min_text_similarity must be in [0, 1]: 7",
            ),
            (b'{"align": {"min_text_similarity": NaN}}', "invalid JSON: not a finite number: NaN"),
            (b'{"ld_window": 0}', "ld_window must be positive"),
            (b'{"ld_window": 0.5}', "ld_window must be at least 1 second: 0.5"),
            (b'{"ld_window": 1e-320}', "ld_window must be at least 1 second: 1e-320"),
            (b'{"response_window": NaN}', "invalid JSON: not a finite number: NaN"),
            (b'{"response_window": Infinity}', "invalid JSON: not a finite number: Infinity"),
            pytest.param(
                b'{"ld_window": 1' + b"0" * 400 + b"}",
                "ld_window is out of range: 1000",
                id="ld_window-past-float",
            ),
            (
                b'{"align": {"gap_penalty": Infinity}}',
                "invalid JSON: not a finite number: Infinity",
            ),
            pytest.param(
                b'{"align": {"gap_penalty": 1' + b"0" * 400 + b"}}",
                "align.gap_penalty is out of range: 1000",
                id="gap_penalty-past-float",
            ),
        ],
    )
    def test_bad_config_is_fatal(self, weather_dir, tmp_path, capsys, verb, content, message):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "out"
        code = main([verb, "--root", str(weather_dir), "--out", str(out), "--config", str(config)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_FATAL, "")
        assert captured.err.startswith(f"talkmetrics: error: {config}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_worker_count_leaves_output_unchanged(self, tmp_path):
        for i in range(3):
            syn.write_weather_recording(tmp_path / "data", f"rec{i}")
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["batch", "--root", str(tmp_path / "data"), "--out", str(out1),
                     "--workers", "1"]) == EXIT_OK
        assert main(["batch", "--root", str(tmp_path / "data"), "--out", str(out2),
                     "--workers", "2"]) == EXIT_OK
        for name in ("results.json", "features.csv", "aggregate_features.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestReport:
    def test_round_trip_reproduces_files(self, weather_dir, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["batch", "--root", str(weather_dir), "--out", str(first)]) == EXIT_OK
        code = main(["report", str(first / "results.json"), "--out", str(second)])
        assert code == EXIT_OK
        for name in (
            "results.json",
            "features.csv",
            "reliability_per_recording.csv",
            "icc.csv",
            "aggregate_features.csv",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_all_failed_run_round_trip(self, tmp_path, capsys):
        # no recording has features: hours is the int 0, every pooled count
        # is 0 and every pooled rate and mean is null
        for recording_id in ("a", "b"):
            syn.write_weather_recording(tmp_path / "data", recording_id)
            corrupt_machine_bytes(tmp_path / "data", recording_id)
        first = tmp_path / "first"
        second = tmp_path / "second"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(first),
                     "--format", "json"])
        assert code == EXIT_PARTIAL
        saved = json.loads((first / "results.json").read_text(encoding="utf-8"))
        assert saved["corpus"]["hours"] == 0 and saved["corpus"]["n_failed"] == 2
        assert saved["aggregate"]["machine"]["teacher"]["mlu_pooled"] is None
        code = main(["report", str(first / "results.json"), "--out", str(second),
                     "--format", "json"])
        assert code == EXIT_OK
        assert (second / "results.json").read_bytes() == (first / "results.json").read_bytes()
        assert capsys.readouterr().out.endswith(f"wrote 2 files to {second}\n")

    def test_accepts_externally_built_results(self, tmp_path):
        # a results file whose metrics came from somewhere else entirely
        # must still render; only the shape matters
        from test_acceptance import external_results_payload

        path = tmp_path / "results.json"
        path.write_text(json.dumps(external_results_payload()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "reliability_per_recording.csv").is_file()


class TestReportsStream:
    """Every verb writes its reports straight from the result objects, and
    writes the same bytes each time."""

    RUNS = (
        ("batch", "csv"),
        ("batch", "json"),
        ("features", "json"),
        ("reliability", "json"),
        ("report", "csv"),
        ("report", "json"),
    )

    def run_all(self, root, out):
        codes = {}
        for verb, fmt in self.RUNS:
            source = ["--root", str(root)]
            if verb == "report":
                source = [str(out / "batch-json" / "results.json")]
            target = out / f"{verb}-{fmt}"
            codes[verb, fmt] = main([verb, *source, "--out", str(target), "--format", fmt])
        return codes

    def test_repeat_runs_write_the_same_reports(self, tmp_path, capsys):
        root = tmp_path / "data"
        write_mixed_corpus(root, "linked")
        plain = self.run_all(root, tmp_path / "plain")
        streamed = self.run_all(root, tmp_path / "streamed")
        assert plain == streamed == {run: EXIT_OK for run in self.RUNS}

        def contents(out):
            return {path.relative_to(out): path.read_bytes() for path in out.rglob("*.*")}

        written = contents(tmp_path / "plain")
        assert len(written) == 14
        assert contents(tmp_path / "streamed") == written


class TestLogging:
    def test_unknown_level_noted(self, weather_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WSW_LOG", "shout")
        out = tmp_path / "out"
        assert main(["batch", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        assert "unknown WSW_LOG" in capsys.readouterr().err

    def test_known_levels_accepted(self, weather_dir, tmp_path, monkeypatch, capsys):
        for level in ("error", "warn", "info", "debug"):
            monkeypatch.setenv("WSW_LOG", level)
            out = tmp_path / f"out-{level}"
            assert main(["batch", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
            assert "unknown WSW_LOG" not in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_module_invocation(self, weather_dir, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "talkmetrics.cli", "batch",
             "--root", str(weather_dir), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "results.json").is_file()

    def test_usage_exit_code_from_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "talkmetrics.cli"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_USAGE


def write_good_and_bad(root):
    syn.write_weather_recording(root, "good")
    syn.write_weather_recording(root, "bad")


def corrupt_machine_bytes(root, recording_id="bad"):
    path = root / f"{recording_id}.machine.jsonl"
    path.write_bytes(path.read_bytes().replace(b"sunny", b"sunn\xff", 1))


class TestAnyBytes:
    def test_ingest_check_survives_undecodable_machine_file(self, tmp_path, capsys):
        write_good_and_bad(tmp_path / "data")
        corrupt_machine_bytes(tmp_path / "data")
        code = main(["ingest-check", "--root", str(tmp_path / "data")])
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "bad: FAIL UnicodeDecodeError:" in out
        assert "good: ok" in out

    def test_ingest_check_json_names_the_failure(self, tmp_path, capsys):
        write_good_and_bad(tmp_path / "data")
        corrupt_machine_bytes(tmp_path / "data")
        code = main(["ingest-check", "--root", str(tmp_path / "data"), "--format", "json"])
        assert code == EXIT_PARTIAL
        report = json.loads(capsys.readouterr().out)
        assert report["n_failed"] == 1
        bad = next(r for r in report["recordings"] if r["recording_id"] == "bad")
        assert bad["error"].startswith("UnicodeDecodeError:")

    def test_align_survives_undecodable_machine_file(self, tmp_path, capsys):
        write_good_and_bad(tmp_path / "data")
        corrupt_machine_bytes(tmp_path / "data")
        out = tmp_path / "out"
        code = main(["align", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "bad: FAIL UnicodeDecodeError:" in captured.err
        assert "good: 10 pairs" in captured.out
        assert (out / "good.alignment.jsonl").is_file()
        assert not (out / "bad.alignment.jsonl").exists()


class TestMetaIdMismatch:
    @pytest.fixture()
    def mislabelled_dir(self, tmp_path):
        root = tmp_path / "data"
        syn.write_weather_recording(root, "a")
        syn.write_weather_recording(root, "b")
        path = root / "b.meta.json"
        meta = json.loads(path.read_text())
        meta["recording_id"] = "a"
        path.write_text(json.dumps(meta), encoding="utf-8")
        return root

    def test_batch_reports_entry_once(self, mislabelled_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["batch", "--root", str(mislabelled_dir), "--out", str(out)]) == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["recording_id"], e["stage"]) for e in errors] == [("b", "ingest")]
        assert "does not match" in errors[0]["message"]
        feature_lines = (out / "features.csv").read_text().splitlines()[1:]
        keys = [tuple(line.split(",")[:3]) for line in feature_lines]
        assert len(keys) == len(set(keys)) == 4
        assert {key[0] for key in keys} == {"a"}
        reliability_ids = [
            line.split(",")[0]
            for line in (out / "reliability_per_recording.csv").read_text().splitlines()[1:]
        ]
        assert reliability_ids.count("a") == 1

    def test_ingest_check_rejects_entry(self, mislabelled_dir, capsys):
        assert main(["ingest-check", "--root", str(mislabelled_dir)]) == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "a: ok" in out
        assert "b: FAIL" in out and "does not match" in out

    def test_align_rejects_entry(self, mislabelled_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["align", "--root", str(mislabelled_dir), "--out", str(out)])
        assert code == EXIT_PARTIAL
        assert "b: FAIL" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["a.alignment.jsonl"]


class TestTalkmetricsLog:
    def test_new_name_wins(self, weather_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WSW_LOG", "debug")
        monkeypatch.setenv("TALKMETRICS_LOG", "shout")
        out = tmp_path / "out"
        assert main(["batch", "--root", str(weather_dir), "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "unknown TALKMETRICS_LOG value 'shout'" in err

    def test_workers_log_tracebacks(self, tmp_path):
        """Worker processes configure logging themselves: a parent that never
        configured it still gets each failing recording's traceback."""
        write_good_and_bad(tmp_path / "data")
        corrupt_machine_bytes(tmp_path / "data")
        script = (
            "import sys\n"
            "from talkmetrics.batch import RunConfig, discover, run_pipeline\n"
            "result = run_pipeline(discover(root_dir=sys.argv[1]), RunConfig(parallelism=2))\n"
            "print([error.recording_id for error in result.errors])\n"
        )
        env = dict(os.environ, TALKMETRICS_LOG="debug")
        env.pop("WSW_LOG", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['bad']"
        assert "bad: ingest stage failed" in proc.stderr
        assert "Traceback" in proc.stderr and "UnicodeDecodeError" in proc.stderr

    def test_workers_flag_with_debug_shows_traceback(self, tmp_path):
        write_good_and_bad(tmp_path / "data")
        corrupt_machine_bytes(tmp_path / "data")
        env = dict(os.environ, TALKMETRICS_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "talkmetrics.cli", "batch", "--workers", "2",
             "--root", str(tmp_path / "data"), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == EXIT_PARTIAL, proc.stderr
        assert "bad: ingest stage failed" in proc.stderr
        assert "Traceback" in proc.stderr


class TestUsageErrorBytes:
    """argparse writes the usage error and exits 2; ``main`` returns 1."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["batch", "--root", "r", "--out", "o", "--bogus"],
                "unrecognized arguments: --bogus",
            ),
            (["batch", "--out", "x"], "exactly one of --root or --manifest is required"),
        ],
        ids=["unknown-flag", "no-corpus-flag"],
    )
    def test_stderr_pinned(self, argv, message, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage: talkmetrics [-h] VERB ...\ntalkmetrics: error: {message}\n"
        )


class TestUndecodableMeta:
    def test_worded_as_invalid_json(self, tmp_path, capsys):
        write_good_and_bad(tmp_path / "data")
        path = tmp_path / "data" / "bad.meta.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        message = (
            f"{path}: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte"
        )
        assert main(["ingest-check", "--root", str(tmp_path / "data")]) == EXIT_PARTIAL
        assert f"bad: FAIL {message}\n" in capsys.readouterr().out
        out = tmp_path / "out"
        code = main(["batch", "--root", str(tmp_path / "data"), "--out", str(out)])
        assert code == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [{"recording_id": "bad", "stage": "ingest", "message": message}]


class TestStrictJsonInput:
    """Every JSON file the program reads is strict JSON: a NaN or an infinity
    fails its file as invalid JSON, even under a key nothing reads."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("kind", ["manifest", "config", "meta"])
    def test_non_finite_number(self, weather_dir, tmp_path, capsys, kind, token):
        flags = ["--root", str(weather_dir)]
        if kind == "manifest":
            path = tmp_path / "manifest.json"
            entry = {
                "recording_id": "weather",
                "machine_path": str(weather_dir / "weather.machine.jsonl"),
                "meta_path": str(weather_dir / "weather.meta.json"),
                "note": "__token__",
            }
            path.write_text(json.dumps([entry]).replace('"__token__"', token), encoding="utf-8")
            flags = ["--manifest", str(path)]
        elif kind == "config":
            path = tmp_path / "config.json"
            path.write_text(f'{{"response_window": {token}}}', encoding="utf-8")
            flags += ["--config", str(path)]
        else:
            path = weather_dir / "weather.meta.json"
            path.write_text(path.read_text().replace("{", f'{{"note": {token}, ', 1))
        out = tmp_path / "out"
        code = main(["batch", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        message = f"{path}: invalid JSON: not a finite number: {token}"
        if kind == "meta":
            assert code == EXIT_PARTIAL
            errors = json.loads((out / "errors.json").read_text())
            assert errors == [{"recording_id": "weather", "stage": "ingest", "message": message}]
        else:
            assert (code, captured.out) == (EXIT_FATAL, "")
            assert captured.err == f"talkmetrics: error: {message}\n"
            assert not out.exists()


class TestGapPenaltyOverflow:
    def test_time_aligned_recording_fails_at_expert(self, tmp_path, capsys):
        syn.write_weather_recording(tmp_path / "data", "linked")
        syn.write_weather_recording(tmp_path / "data", "timed", linked=False)
        config = tmp_path / "config.json"
        config.write_text('{"align": {"gap_penalty": 1e308}}', encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["batch", "--root", str(tmp_path / "data"), "--config", str(config),
             "--out", str(out), "--format", "json"]
        )
        assert code == EXIT_PARTIAL
        assert "RuntimeWarning" not in capsys.readouterr().err
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [
            {
                "recording_id": "timed",
                "stage": "expert",
                "message": "ValueError: gap_penalty 1e+308 overflows the scores of a 10 x 10"
                " alignment",
            }
        ]
        results = json.loads((out / "results.json").read_text())
        sides = {(row["recording_id"], row["source"]) for row in results["features"]}
        assert sides == {("linked", "machine"), ("linked", "expert"), ("timed", "machine")}
        assert [row["recording_id"] for row in results["reliability"]["rows"]] == ["linked"]
