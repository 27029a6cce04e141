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
    VERB_REPORTS,
    CorpusManifest,
    PipelineResult,
    RunConfig,
    check_results,
    configure_logging,
    discover,
    emit_report,
    process_recordings,
    run_pipeline,
    write_json,
    write_report,
)
from .codec import decode, json_chunks, read_json
from .errors import TalkmetricsError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_FATAL = 3

# The pipeline verbs: help, whether the run computes agreement, whether a run
# without agreement statistics exits 3, and the line a successful run prints
_PIPELINE_VERBS = {
    "features": ("compute the language-feature table", False, False,
                 "wrote features for {n_recordings} recordings to {out}"),
    "reliability": ("compute agreement statistics", True, True,
                    "wrote reliability for {n_agreement} recordings to {out}"),
    "batch": ("run the whole pipeline and emit all reports", True, False,
              "processed {n_recordings} recordings ({n_failed} failed), reports in {out}"),
}


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", type=Path, help="directory tree of recording triples")
    parser.add_argument("--manifest", type=Path, help="explicit manifest JSON")


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

    for verb, (summary, *_) in _PIPELINE_VERBS.items():
        p = sub.add_parser(verb, help=summary)
        _add_corpus_flags(p)
        p.add_argument("--config", type=Path, help="JSON file of analysis parameters")
        p.add_argument(
            "--response-window",
            type=float,
            help="seconds after an utterance ends in which a reply counts (default 2.5)",
        )
        p.add_argument(
            "--ld-window",
            type=float,
            help="lexical diversity window length in seconds, at least 1 (default 60)",
        )
        p.add_argument("--workers", type=int, help="parallel worker count")
        _add_out_flags(p)

    p = sub.add_parser("report", help="re-render reports from a saved results file")
    p.add_argument("results", type=Path, help="results.json from a previous run")
    _add_out_flags(p)
    return parser


# each run flag's destination and the RunConfig field it sets
_RUN_FLAGS = dict(response_window="response_window", ld_window="ld_window", workers="parallelism")


def _load_run(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[CorpusManifest, RunConfig]:
    """The corpus and run config a corpus verb names, checked in this order:
    each run flag by RunConfig, a value it refuses being a usage error that
    names the flag; the corpus flags; the corpus; the config file, whose
    faults are fatal. A flag the verb lacks counts as not given."""
    overrides = {name: getattr(args, dest, None) for dest, name in _RUN_FLAGS.items()}
    for dest, name in _RUN_FLAGS.items():
        try:
            if overrides[name] is not None:
                RunConfig(**{name: overrides[name]})
        except ValueError as exc:
            parser.error(f"argument --{dest.replace('_', '-')}: {exc}")
    if (args.root is None) == (args.manifest is None):
        parser.error("exactly one of --root or --manifest is required")
    manifest = discover(root_dir=args.root, manifest_path=args.manifest)
    path = getattr(args, "config", None)
    data = {} if path is None else read_json(path, TalkmetricsError)
    if not isinstance(data, dict):
        raise TalkmetricsError(f"{path}: config must be a JSON object")
    try:
        return manifest, RunConfig.from_mapping(data, **overrides)
    except ValueError as exc:
        raise TalkmetricsError(f"{path}: {exc}") from None


def _cmd_ingest_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest, cfg = _load_run(args, parser)
    stages = ("meta", "machine", "expert", "validate")
    outcomes = process_recordings(manifest.entries, cfg, stages)
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
    manifest, cfg = _load_run(args, parser)
    with_expert = [entry for entry in manifest.entries if entry.expert_path is not None]
    if not with_expert:
        print("talkmetrics: no recording has an expert transcript", file=sys.stderr)
        return EXIT_FATAL
    args.out.mkdir(parents=True, exist_ok=True)
    outcomes = process_recordings(with_expert, cfg, ("meta", "machine", "expert", "align"))
    n_failed = 0
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
        try:
            write_alignment_jsonl(corpus, args.out / f"{entry.recording_id}.alignment.jsonl")
        except OSError as exc:  # such as a name the filesystem refuses
            n_failed += 1
            print(f"{entry.recording_id}: FAIL cannot write its audit: {exc}", file=sys.stderr)
            continue
        print(
            f"{entry.recording_id}: {len(corpus.matched)} pairs,"
            f" {len(corpus.machine) - len(corpus.matched)} machine-only,"
            f" {len(corpus.expert) - len(corpus.matched)} expert-only"
        )
    return EXIT_PARTIAL if n_failed else EXIT_OK


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _, agreement, needs_agreement, line = _PIPELINE_VERBS[args.verb]
    manifest, cfg = _load_run(args, parser)
    result = run_pipeline(manifest, cfg, agreement)
    if needs_agreement and result.reliability is None:
        if result.errors:
            write_report(result, args.out, ())
            print(
                "talkmetrics: no recording yielded agreement statistics;"
                f" {result.corpus.n_failed} recordings failed, see errors.json",
                file=sys.stderr,
            )
        else:
            print("talkmetrics: no recording has an expert transcript", file=sys.stderr)
        return EXIT_FATAL
    write_report(result, args.out, VERB_REPORTS[args.verb][args.format])
    n_agreement = len(result.reliability.rows) if result.reliability else 0
    print(line.format(**asdict(result.corpus), n_agreement=n_agreement, out=args.out))
    return EXIT_PARTIAL if result.errors else EXIT_OK


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        data = read_json(args.results, TalkmetricsError)
    except OSError as exc:
        raise TalkmetricsError(f"cannot read {args.results}: {exc}") from None
    try:
        result = decode(PipelineResult, data)
        check_results(result)
    except (KeyError, TypeError, ValueError) as exc:
        raise TalkmetricsError(f"{args.results}: not a results file: {exc}") from None
    written = emit_report(result, args.out, args.format)
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "ingest-check": _cmd_ingest_check,
    "align": _cmd_align,
    "report": _cmd_report,
    **dict.fromkeys(_PIPELINE_VERBS, _cmd_run),
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
