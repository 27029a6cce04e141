"""Command-line entry point.

Verbs mirror the pipeline stages, and every corpus verb runs its
recordings through one runner, ``batch.process_recordings``, naming the
stages it reports: ``ingest-check`` parses and validates, ``align`` writes
per-recording alignment audits, ``features`` and ``reliability`` emit their
respective tables, ``batch`` runs everything, and ``report`` re-renders
tables from a saved results file. ``features`` parses expert tables for
their feature rows but neither aligns them nor computes agreement
statistics; its feature table and errors report equal those of ``batch``.
A failed recording, a missing file included, never stops the others.

Exit codes: 0 success, 1 usage error, 2 completed with per-recording
failures (an errors report is written), 3 fatal. ``reliability`` exits 3
when no recording yields agreement statistics, and still writes the errors
report when recordings failed. Logging verbosity comes from the
TALKMETRICS_LOG environment variable, or the older WSW_LOG (error, warn,
info, debug).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .align import write_alignment_jsonl
from .batch import (
    TABLES,
    CorpusManifest,
    PipelineResult,
    RunConfig,
    configure_logging,
    discover,
    emit_report,
    process_recordings,
    run_pipeline,
    write_json,
    write_report,
)
from .codec import json_chunks, read_json
from .errors import TalkmetricsError
from .features import MIN_LD_WINDOW

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_FATAL = 3


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    if value > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"out of range: {text}")
    return value


def _ld_window(text: str) -> float:
    value = _positive_float(text)
    if value < MIN_LD_WINDOW:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_LD_WINDOW:g} second: {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return value


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", type=Path, help="directory tree of recording triples")
    parser.add_argument("--manifest", type=Path, help="explicit manifest JSON")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file of analysis parameters")
    parser.add_argument(
        "--response-window",
        type=_positive_float,
        help="seconds after an utterance ends in which a reply counts (default 2.5)",
    )
    parser.add_argument(
        "--ld-window",
        type=_ld_window,
        help="lexical diversity window length in seconds, at least 1 (default 60)",
    )
    parser.add_argument("--workers", type=_positive_int, help="parallel worker count")


def _add_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format (default csv)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkmetrics",
        description="Alignment, language features and reliability statistics for"
        " classroom speech transcripts.",
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB", required=True)

    p = sub.add_parser("ingest-check", help="parse every recording and report findings")
    _add_corpus_flags(p)
    p.add_argument("--out", type=Path, help="write a JSON report here")
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="stdout format (default text)"
    )

    p = sub.add_parser("align", help="write per-recording alignment audit files")
    _add_corpus_flags(p)
    p.add_argument("--config", type=Path, help="JSON file of analysis parameters")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("features", help="compute the language-feature table")
    _add_corpus_flags(p)
    _add_run_flags(p)
    _add_out_flags(p)

    p = sub.add_parser("reliability", help="compute agreement statistics")
    _add_corpus_flags(p)
    _add_run_flags(p)
    _add_out_flags(p)

    p = sub.add_parser("batch", help="run the whole pipeline and emit all reports")
    _add_corpus_flags(p)
    _add_run_flags(p)
    _add_out_flags(p)

    p = sub.add_parser("report", help="re-render reports from a saved results file")
    p.add_argument("results", type=Path, help="results.json from a previous run")
    _add_out_flags(p)
    return parser


def _load_manifest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CorpusManifest:
    if (args.root is None) == (args.manifest is None):
        parser.error("exactly one of --root or --manifest is required")
    return discover(root_dir=args.root, manifest_path=args.manifest)


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    path = args.config
    data = {} if path is None else read_json(path, TalkmetricsError)
    if not isinstance(data, dict):
        raise TalkmetricsError(f"{path}: config must be a JSON object")
    try:
        return RunConfig.from_mapping(
            data,
            response_window=getattr(args, "response_window", None),
            ld_window=getattr(args, "ld_window", None),
            parallelism=getattr(args, "workers", None),
        )
    except ValueError as exc:
        raise TalkmetricsError(f"{path}: {exc}") from None


def _cmd_ingest_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = _load_manifest(args, parser)
    stages = ("meta", "machine", "expert", "validate")
    outcomes = process_recordings(manifest.entries, RunConfig(), stages)
    records = []
    for entry, outcome in zip(manifest.entries, outcomes):
        if outcome.errors:
            error = outcome.errors[0].message
            record = {"recording_id": entry.recording_id, "ok": False, "error": error}
            line = f"FAIL {error}"
        else:
            n_expert = outcome.n_expert_utterances if entry.expert_path is not None else None
            findings = [{"source": source, **asdict(w)} for source, w in outcome.findings]
            record = {
                "recording_id": entry.recording_id,
                "ok": True,
                "n_machine_utterances": outcome.n_machine_utterances,
                "n_expert_utterances": n_expert,
                "findings": findings,
            }
            expert_note = f", {n_expert} expert" if n_expert is not None else ""
            line = (
                f"ok ({outcome.n_machine_utterances} machine{expert_note},"
                f" {len(findings)} findings)"
            )
        if args.format != "json":
            print(f"{entry.recording_id}: {line}")
        records.append(record)
    n_failed = sum(not record["ok"] for record in records)
    report = {"recordings": records, "n_checked": len(records), "n_failed": n_failed}
    if args.format == "json":
        sys.stdout.writelines(json_chunks(report))
        sys.stdout.write("\n")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_json(args.out / "ingest_report.json", report)
    return EXIT_PARTIAL if n_failed else EXIT_OK


def _cmd_align(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = _load_manifest(args, parser)
    cfg = _load_run_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    with_expert = [entry for entry in manifest.entries if entry.expert_path is not None]
    outcomes = process_recordings(with_expert, cfg, ("meta", "machine", "expert", "align"))
    n_failed = n_aligned = 0
    for entry in manifest.entries:
        if entry.expert_path is None:
            log.info("%s: no expert transcript, skipping", entry.recording_id)
            continue
        outcome = next(outcomes)
        if outcome.errors:
            n_failed += 1
            print(f"{entry.recording_id}: FAIL {outcome.errors[0].message}", file=sys.stderr)
            continue
        corpus = outcome.alignment
        write_alignment_jsonl(corpus, args.out / f"{entry.recording_id}.alignment.jsonl")
        n_aligned += 1
        print(
            f"{entry.recording_id}: {len(corpus)} pairs,"
            f" {corpus.n_machine - len(corpus)} machine-only,"
            f" {corpus.n_expert - len(corpus)} expert-only"
        )
    if n_aligned == 0 and n_failed == 0:
        print("talkmetrics: no recording has an expert transcript", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_PARTIAL if n_failed else EXIT_OK


def _cmd_features(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = _load_manifest(args, parser)
    cfg = _load_run_config(args)
    result = run_pipeline(manifest, cfg, agreement=False)
    if args.format == "json":
        write_report(result, args.out, {"features.json": {"features": result.features}}, ())
    else:
        write_report(result, args.out, {}, ("features.csv",))
    print(f"wrote features for {result.corpus['n_recordings']} recordings to {args.out}")
    return EXIT_PARTIAL if result.errors else EXIT_OK


def _cmd_reliability(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = _load_manifest(args, parser)
    cfg = _load_run_config(args)
    result = run_pipeline(manifest, cfg)
    if result.reliability is None:
        if result.errors:
            write_report(result, args.out, {}, ())
            print(
                "talkmetrics: no recording yielded agreement statistics;"
                f" {result.corpus['n_failed']} recordings failed, see errors.json",
                file=sys.stderr,
            )
        else:
            print("talkmetrics: no recording has an expert transcript", file=sys.stderr)
        return EXIT_FATAL
    if args.format == "json":
        reliability = {"reliability": result.reliability}
        write_report(result, args.out, {"reliability.json": reliability}, ())
    else:
        write_report(result, args.out, {}, ("reliability_per_recording.csv", "icc.csv"))
    print(
        f"wrote reliability for {len(result.reliability.rows)} recordings to {args.out}"
    )
    return EXIT_PARTIAL if result.errors else EXIT_OK


def _cmd_batch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = _load_manifest(args, parser)
    cfg = _load_run_config(args)
    result = run_pipeline(manifest, cfg)
    emit_report(result, args.out, args.format)
    n_failed = result.corpus["n_failed"]
    print(
        f"processed {result.corpus['n_recordings']} recordings"
        f" ({n_failed} failed), reports in {args.out}"
    )
    return EXIT_PARTIAL if result.errors else EXIT_OK


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        data = read_json(args.results, TalkmetricsError)
    except OSError as exc:
        raise TalkmetricsError(f"cannot read {args.results}: {exc}") from None
    try:
        result = PipelineResult.from_dict(data)
        for _, rows in TABLES.values():  # so a malformed aggregate fails before any write
            list(rows(result))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TalkmetricsError(f"{args.results}: not a results file: {exc}") from None
    written = emit_report(result, args.out, args.format)
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "ingest-check": _cmd_ingest_check,
    "align": _cmd_align,
    "features": _cmd_features,
    "reliability": _cmd_reliability,
    "batch": _cmd_batch,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    configure_logging(note_unknown=True)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args, parser)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; this tool keeps 2 for runs with
        # per-recording failures, so a usage error exits 1
        code = exc.code
        return code if isinstance(code, int) and code != 2 else EXIT_USAGE
    except (TalkmetricsError, OSError) as exc:
        log.debug("fatal error", exc_info=True)
        print(f"talkmetrics: error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
