"""Corpus-scale orchestration: discover recordings, fan out per-recording
work, merge deterministically, and emit reports.

A corpus is a set of recordings, each a file triple: ``<id>.machine.jsonl``
(required), ``<id>.meta.json`` (required) and ``<id>.expert.tsv``
(optional; without it a recording gets language features only, no
agreement statistics). An explicit manifest JSON can stand in for
directory-convention discovery.

Recordings are processed independently, possibly in parallel, and merged
in manifest order, so outputs are byte-identical regardless of worker
count. One bad file is recorded in the errors report and the run
continues; year-scale corpora must not abort on a single damaged
recording.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .align import AlignConfig, AlignedCorpus, align
from .codec import Codec, decode, field_values, json_chunks, read_json
from .errors import TalkmetricsError, describe
from .features import (
    DEFAULT_LD_WINDOW,
    DEFAULT_RESPONSE_WINDOW,
    FEATURE_COLUMNS,
    MIN_LD_WINDOW,
    FeatureSummary,
    detect_responses,
    icc_feature_values,
    response_proportion,
    summarize,
)
from .ingest import MetaError, ValidationWarning, load_meta, parse_expert, parse_machine, validate
from .reliability import (
    MetricSet,
    RecordingReliability,
    ReliabilityReport,
    build_report,
    recording_reliability,
    sequential_sum,
)
from .transcript import RecordingMeta, SpeakerRole, Transcript, iter_roles

log = logging.getLogger(__name__)

# Logging verbosity: the first of these variables that is set names a level.
LOG_VARIABLES = ("TALKMETRICS_LOG", "WSW_LOG")
LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

MACHINE_SUFFIX = ".machine.jsonl"
EXPERT_SUFFIX = ".expert.tsv"
META_SUFFIX = ".meta.json"


def configure_logging(note_unknown: bool = False) -> None:
    """Send log records to stderr at the level the environment names.

    ``TALKMETRICS_LOG`` wins over the older ``WSW_LOG``; the default is
    ``warn``. An unknown value falls back to ``warn``, with a note on
    stderr when ``note_unknown`` is set. Worker processes run this too, so
    they log the way the parent does.
    """
    name = next((name for name in LOG_VARIABLES if name in os.environ), None)
    raw = os.environ[name].strip().lower() if name else "warn"
    level = LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
        if note_unknown:
            print(f"talkmetrics: unknown {name} value {raw!r}, using warn", file=sys.stderr)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


class MissingFile(TalkmetricsError):
    """The corpus root or the manifest does not exist or cannot be read."""


class EmptyCorpus(TalkmetricsError):
    """Discovery found no recordings."""


class ManifestError(TalkmetricsError):
    """The manifest is malformed (bad JSON, duplicate ids, missing or
    mistyped keys)."""


class IoError(TalkmetricsError):
    """Report emission failed at the filesystem."""


@dataclass(frozen=True)
class ManifestEntry:
    """One recording's file triple."""

    recording_id: str
    machine_path: Path
    meta_path: Path
    expert_path: Path | None = None


@dataclass(frozen=True)
class CorpusManifest:
    """The recordings of one run, sorted by recording id."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        ids = [entry.recording_id for entry in self.entries]
        if len(set(ids)) != len(ids):
            seen = set()
            duplicate = next(i for i in ids if i in seen or seen.add(i))
            raise ManifestError(f"duplicate recording_id {duplicate!r}")
        ordered = tuple(sorted(self.entries, key=lambda entry: entry.recording_id))
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs beyond the manifest.

    ``parallelism`` steers execution only; it never reaches the result
    payload, keeping outputs identical across machines and worker counts.
    """

    align: AlignConfig = field(default_factory=AlignConfig)
    response_window: float = DEFAULT_RESPONSE_WINDOW
    ld_window: float = DEFAULT_LD_WINDOW
    parallelism: int = 1
    wer_wearer_match: bool = True

    def __post_init__(self) -> None:
        for name, least in (("response_window", 0.0), ("ld_window", MIN_LD_WINDOW)):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive: {value}")
            if value > sys.float_info.max:  # infinite, or an integer past the floats
                raise ValueError(f"{name} is out of range: {value}")
            if value < least:
                raise ValueError(f"{name} must be at least {least:g} second: {value}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1: {self.parallelism}")

    def semantic_dict(self) -> dict:
        """The analysis parameters, without execution plumbing."""
        data = asdict(self)
        del data["parallelism"]
        return data

    @classmethod
    def from_mapping(cls, data: Mapping, **overrides) -> "RunConfig":
        """Build from a config-file mapping, which holds the keys of
        ``semantic_dict`` or some of them; keyword overrides that are not
        None win. Raises ValueError for an unknown key, a value of the wrong
        type, or one out of range."""
        if "parallelism" in data:  # set by the caller, never by a file
            raise ValueError("unknown key 'parallelism'")
        return decode(cls, {**data, **{k: v for k, v in overrides.items() if v is not None}})


def _entry_from_mapping(record: Mapping, base: Path) -> ManifestEntry:
    for key in ("recording_id", "machine_path", "meta_path"):
        if key not in record:
            raise ManifestError(f"manifest entry is missing {key!r}: {record!r}")
    recording_id = record["recording_id"]
    # the id names the align audit file under --out, so it must be a plain
    # file name that stays there
    if not isinstance(recording_id, str) or recording_id in ("", ".", "..") or any(
        c in recording_id for c in "/\\\0"
    ):
        raise ManifestError(
            f"manifest entry recording_id must be a plain file name: {record!r}"
        )
    for key in ("machine_path", "meta_path", "expert_path"):
        value = record.get(key)
        if key == "expert_path" and value is None:
            continue
        if not isinstance(value, str) or not value:
            raise ManifestError(f"manifest entry {key} must be a non-empty string: {record!r}")
    expert = record.get("expert_path")

    def resolve(value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else base / path

    return ManifestEntry(
        recording_id=recording_id,
        machine_path=resolve(record["machine_path"]),
        meta_path=resolve(record["meta_path"]),
        expert_path=None if expert is None else resolve(expert),
    )


def discover(
    root_dir: Path | str | None = None, manifest_path: Path | str | None = None
) -> CorpusManifest:
    """Enumerate recordings, either from a manifest or by convention.

    Convention: every ``*.machine.jsonl`` under ``root_dir`` is a
    recording; the meta sidecar must sit next to it, the expert file may.
    Nothing is read or checked here, so year-scale corpora enumerate
    instantly; a missing file fails only its own recording, later.
    """
    entries: list[ManifestEntry] = []
    if manifest_path is not None:
        manifest_path = Path(manifest_path)
        try:
            data = read_json(manifest_path, ManifestError)
        except OSError as exc:
            raise MissingFile(f"cannot read manifest: {exc}") from None
        records = data.get("entries") if isinstance(data, dict) else data
        if not isinstance(records, list):
            raise ManifestError(f"{manifest_path}: expected a list of entries")
        base = manifest_path.parent
        for record in records:
            if not isinstance(record, Mapping):
                raise ManifestError(f"{manifest_path}: entry is not an object: {record!r}")
            entries.append(_entry_from_mapping(record, base))
    elif root_dir is not None:
        root = Path(root_dir)
        if not root.is_dir():
            raise MissingFile(f"no such directory: {root}")
        for machine_path in sorted(root.rglob(f"*{MACHINE_SUFFIX}")):
            stem = machine_path.name[: -len(MACHINE_SUFFIX)]
            meta_path = machine_path.with_name(stem + META_SUFFIX)
            expert_path = machine_path.with_name(stem + EXPERT_SUFFIX)
            entries.append(
                ManifestEntry(
                    recording_id=stem,
                    machine_path=machine_path,
                    meta_path=meta_path,
                    expert_path=expert_path if expert_path.is_file() else None,
                )
            )
    else:
        raise ValueError("discover needs a root_dir or a manifest_path")
    if not entries:
        raise EmptyCorpus("no recordings found")
    return CorpusManifest(entries=tuple(entries))


@dataclass(frozen=True)
class EntryError(Codec):
    """One recording's failure: which stage broke and how."""

    recording_id: str
    stage: str
    message: str


@dataclass(frozen=True)
class RecordingOutcome:
    """What one worker hands back for its recording.

    A field keeps its default unless a stage that ran fills it.
    ``features`` is empty when the machine side failed.
    """

    recording_id: str
    duration_minutes: float = 0.0
    n_machine_utterances: int = 0
    n_expert_utterances: int = 0
    features: tuple[FeatureSummary, ...] = ()
    alignment: AlignedCorpus | None = None
    reliability: RecordingReliability | None = None
    findings: tuple[tuple[str, ValidationWarning], ...] = ()
    errors: tuple[EntryError, ...] = ()


def load_entry_meta(entry: ManifestEntry) -> RecordingMeta:
    """The entry's metadata sidecar, whose ``recording_id`` must be the
    entry's own id, so no recording reports under another's name."""
    meta = load_meta(entry.meta_path)
    if meta.recording_id != entry.recording_id:
        raise MetaError(
            f"{entry.meta_path}: recording_id {meta.recording_id!r} does not match"
            f" {entry.recording_id!r}"
        )
    return meta


def _source_features(transcript: Transcript, cfg: RunConfig) -> tuple[FeatureSummary, ...]:
    """Both roles' feature rows for one transcript, in ``iter_roles`` order."""
    links = detect_responses(transcript, cfg.response_window)
    return tuple(
        summarize(transcript, role, links, cfg.response_window, cfg.ld_window)
        for role in iter_roles()
    )


def _findings(done: dict) -> tuple[tuple[str, ValidationWarning], ...]:
    """Each ``validate`` warning of the parsed transcripts, with its source."""
    sources = [source for source in ("machine", "expert") if source in done]
    return tuple((source, warning) for source in sources for warning in validate(done[source]))


# The stages in run order: name, the side a failure voids (``ingest`` the
# whole recording, ``expert`` only its expert side), and the function of
# (entry, config, earlier stages' products) that makes the stage's product.
_STAGES = (
    ("meta", "ingest", lambda e, cfg, done: load_entry_meta(e)),
    ("machine", "ingest", lambda e, cfg, done: parse_machine(e.machine_path, done["meta"])),
    ("machine_features", "ingest", lambda e, cfg, done: _source_features(done["machine"], cfg)),
    ("expert", "expert", lambda e, cfg, done: parse_expert(e.expert_path, done["meta"])),
    ("align", "expert", lambda e, cfg, done: align(done["machine"], done["expert"], cfg.align)),
    # consumes the alignment, so no aligned utterances outlive the row or
    # travel back from a worker
    (
        "reliability",
        "expert",
        lambda e, cfg, done: recording_reliability(done.pop("align"), cfg.wer_wearer_match),
    ),
    ("expert_features", "expert", lambda e, cfg, done: _source_features(done["expert"], cfg)),
    ("validate", "ingest", lambda e, cfg, done: _findings(done)),
)
_INGEST_STAGES = {name for name, side, _ in _STAGES if side == "ingest"}


def _outcome(recording_id: str, done: dict) -> RecordingOutcome:
    """The reported fields of one recording's stage products."""
    features = done.get("machine_features", ()) + done.get("expert_features", ())
    return RecordingOutcome(
        recording_id,
        duration_minutes=done["meta"].duration_minutes,
        n_machine_utterances=len(done.get("machine", ())),
        n_expert_utterances=len(done.get("expert", ())),
        features=features,
        alignment=done.get("align"),
        reliability=done.get("reliability"),
        findings=done.get("validate", ()),
    )


def _process_entry(
    entry: ManifestEntry, cfg: RunConfig, stages: tuple[str, ...]
) -> RecordingOutcome:
    """Run the named ``stages`` of one recording, in ``_STAGES`` order.

    Expert-side stages are skipped when the entry has no expert table. Any
    exception is recorded against the side of the stage that raised it: an
    ``ingest`` failure voids the whole entry; an ``expert`` failure keeps
    the machine side and drops every expert-side product.
    """
    done: dict = {}
    for name, side, run in _STAGES:
        if name not in stages or (side == "expert" and entry.expert_path is None):
            continue
        try:
            done[name] = run(entry, cfg, done)
        except Exception as exc:
            log.debug("%s: %s stage failed", entry.recording_id, side, exc_info=True)
            error = EntryError(entry.recording_id, side, describe(exc))
            if side == "ingest":
                return RecordingOutcome(entry.recording_id, errors=(error,))
            kept = {key: value for key, value in done.items() if key in _INGEST_STAGES}
            return replace(_outcome(entry.recording_id, kept), errors=(error,))
    return _outcome(entry.recording_id, done)


def process_recordings(
    entries: Sequence[ManifestEntry], cfg: RunConfig, stages: tuple[str, ...]
) -> Iterator[RecordingOutcome]:
    """Run the named ``_STAGES`` on every entry, in ``cfg.parallelism``
    worker processes, but no more than there are entries, when that is
    above one; yields each entry's outcome, in entry order, as soon as it
    is done."""
    # a pool starts all its workers at once, busy or not
    workers = min(cfg.parallelism, len(entries))
    if workers <= 1:
        for entry in entries:
            yield _process_entry(entry, cfg, stages)
        return
    chunk = max(1, len(entries) // (workers * 4))
    # this attribute lookup is what loads concurrent.futures.process, and
    # with it multiprocessing, so a serial run never pays for either
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=configure_logging
    ) as pool:
        yield from pool.map(_process_entry, entries, repeat(cfg), repeat(stages), chunksize=chunk)


_POOLED_COUNTS = (
    "n_utterances",
    "n_questions",
    "n_non_questions",
    "n_responded_questions",
    "n_responded_non_questions",
    "n_responses_given",
)


def _pool_source(rows: Sequence[tuple[FeatureSummary, float]]) -> dict:
    """Pool one source's per-recording feature rows into corpus-level features.

    Each row comes with its recording's minutes.
    """
    pooled: dict = {}
    for role in iter_roles():
        mine = [row for row in rows if row[0].role is role]
        counts = {key: sum(getattr(s, key) for s, _ in mine) for key in _POOLED_COUNTS}
        counts["total_words"] = sum(
            round(s.mlu_overall * s.n_utterances) if s.n_utterances else 0 for s, _ in mine
        )
        minutes = sequential_sum(row_minutes for _, row_minutes in mine)
        pct_values = [s.pct_questions for s, _ in mine if s.pct_questions is not None]
        ld_values = [s.lexical_diversity_per_minute for s, _ in mine]
        pooled[role.value] = {
            "n_recordings": len(mine),
            **counts,
            "mlu_pooled": (
                counts["total_words"] / counts["n_utterances"]
                if counts["n_utterances"]
                else None
            ),
            "words_per_minute_pooled": counts["total_words"] / minutes if minutes else None,
            "prop_responded_questions_pooled": response_proportion(
                counts["n_responded_questions"], counts["n_questions"]
            ),
            "prop_responded_non_questions_pooled": response_proportion(
                counts["n_responded_non_questions"], counts["n_non_questions"]
            ),
            "pct_questions_pooled": response_proportion(
                counts["n_questions"], counts["n_utterances"]
            ),
            "pct_questions_mean": (
                sequential_sum(pct_values) / len(pct_values) if pct_values else None
            ),
            "mean_lexical_diversity_per_minute": (
                sequential_sum(ld_values) / len(ld_values) if ld_values else None
            ),
        }
    teacher_n = pooled[SpeakerRole.TEACHER.value]["n_utterances"]
    child_n = pooled[SpeakerRole.CHILD.value]["n_utterances"]
    pooled["teacher_child_utterance_ratio"] = teacher_n / child_n if child_n else None
    return pooled


@dataclass(frozen=True)
class PipelineResult(Codec):
    """Everything a run produced, ready to serialize.

    Carries only analysis parameters in ``config``; worker counts and
    output paths are execution details and stay out so identical inputs
    serialize identically everywhere.
    """

    config: dict
    corpus: dict[str, float]
    features: tuple[FeatureSummary, ...]
    reliability: ReliabilityReport | None
    aggregate: dict
    errors: tuple[EntryError, ...]


def run_pipeline(
    manifest: CorpusManifest, cfg: RunConfig, agreement: bool = True
) -> PipelineResult:
    """Process every manifest entry and merge in manifest order.

    ``agreement=False`` skips alignment and the agreement statistics, for
    callers that report features only: the result's features, corpus
    counts, aggregate and errors are those of a full run, its
    ``reliability`` is ``None``.
    """
    if not manifest.entries:
        raise EmptyCorpus("manifest has no entries")
    stages = ("meta", "machine", "machine_features", "expert", "expert_features")
    stages += ("align", "reliability") if agreement else ()
    outcomes = list(process_recordings(manifest.entries, cfg, stages))

    done = [outcome for outcome in outcomes if outcome.features]
    errors = tuple(error for outcome in outcomes for error in outcome.errors)
    rows = [outcome.reliability for outcome in done if outcome.reliability is not None]
    feature_pairs: dict[str, list[tuple[float | None, float | None]]] = {}
    pooled: dict[str, list[tuple[FeatureSummary, float]]] = {"machine": []}
    for outcome in done:
        minutes = outcome.duration_minutes
        if outcome.reliability is not None:
            # the machine rows, then the expert rows, each in iter_roles order
            half = len(outcome.features) // 2
            for machine, expert in zip(outcome.features[:half], outcome.features[half:]):
                expert_values = icc_feature_values(expert, minutes)
                for name, value in icc_feature_values(machine, minutes).items():
                    key = f"{machine.role.value}_{name}"
                    feature_pairs.setdefault(key, []).append((value, expert_values[name]))
        for summary in outcome.features:
            pooled.setdefault(summary.source, []).append((summary, minutes))
    corpus = {
        "n_recordings": len(done),
        "n_failed": len({error.recording_id for error in errors}),
        "hours": sequential_sum(outcome.duration_minutes / 60.0 for outcome in done),
        "n_machine_utterances": sum(outcome.n_machine_utterances for outcome in done),
        "n_expert_utterances": sum(outcome.n_expert_utterances for outcome in done),
    }
    return PipelineResult(
        config=cfg.semantic_dict(),
        corpus=corpus,
        features=tuple(summary for outcome in done for summary in outcome.features),
        reliability=build_report(rows, feature_pairs) if rows else None,
        aggregate={source: _pool_source(source_rows) for source, source_rows in pooled.items()},
        errors=errors,
    )


def _fmt(value: object) -> str:
    """CSV cell: blank None, 3-decimal floats, everything else verbatim."""
    if isinstance(value, float):
        return repr(round(value, 3))
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Iterable[object]]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)
    return path


def write_json(path: Path, data: object) -> Path:
    """Write ``data`` as indented JSON in the codec's encoding, with a
    trailing newline, streamed from the objects themselves."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json_chunks(data))
        handle.write("\n")
    return path


RELIABILITY_COLUMNS = ("recording_id", "duration_minutes", *(f.name for f in fields(MetricSet)))

# _pool_source names the pooled keys: each role's, then the one across roles
_POOLED = _pool_source(())
AGGREGATE_COLUMNS = (
    "source",
    "role",
    *_POOLED[SpeakerRole.TEACHER.value],
    *(key for key in _POOLED if key not in {role.value for role in iter_roles()}),
)

ICC_COLUMNS = ("feature", "icc", "n_used", "n_dropped", "zero_variance")


def feature_table(features: Iterable[FeatureSummary]) -> Iterator[list[object]]:
    """One row per (recording, source, role), in ``FEATURE_COLUMNS`` order."""
    return map(field_values, features)


def reliability_table(report: ReliabilityReport | None) -> list[list[object]]:
    """Per-recording metric rows plus the two summary rows; none without a
    report."""
    if report is None:
        return []

    def row(label: str, minutes: float | None, metrics: MetricSet) -> list[object]:
        return [label, minutes, *field_values(metrics)]

    rows = [row(r.recording_id, r.duration_minutes, r.metrics) for r in report.rows]
    total_minutes = sequential_sum(r.duration_minutes for r in report.rows)
    rows.append(row("Time-Weighted Mean", total_minutes, report.time_weighted))
    rows.append(row("Overall", None, report.overall))
    return rows


def icc_table(report: ReliabilityReport | None) -> list[list[object]]:
    """One row per feature in the rater-agreement grid; none without a report."""
    if report is None:
        return []
    return [[name, *field_values(entry)] for name, entry in report.iccs.items()]


def aggregate_table(aggregate: Mapping[str, dict]) -> list[list[object]]:
    """One row per pooled (source, role)."""
    rows: list[list[object]] = []
    for source in ("machine", "expert"):
        pooled = aggregate.get(source)
        if pooled is None:
            continue
        for role in iter_roles():
            stats = pooled[role.value]
            rows.append(
                [source, role.value]
                + [stats[col] for col in AGGREGATE_COLUMNS[2:-1]]
                + [pooled[AGGREGATE_COLUMNS[-1]]]
            )
    return rows


def check_aggregate(aggregate: Mapping[str, Mapping]) -> None:
    """Raise KeyError, TypeError or ValueError unless each source of
    ``aggregate`` holds every cell an empty pool holds, as a number, or as
    null where the empty pool's is null."""
    for source, pooled in aggregate.items():
        _check_cells(pooled, _POOLED, f"aggregate[{source!r}]")


def _check_cells(cells: Mapping, blank: Mapping, path: str) -> None:
    for key, empty in blank.items():
        if isinstance(empty, dict):
            _check_cells(cells[key], empty, f"{path}[{key!r}]")
        else:
            decode(float if empty is not None else float | None, cells[key], f"{path}[{key!r}]")


# Every CSV report: file name -> (header, rows of a result)
TABLES: dict[str, tuple[Sequence[str], Callable[[PipelineResult], Iterable[list[object]]]]] = {
    "features.csv": (FEATURE_COLUMNS, lambda result: feature_table(result.features)),
    "reliability_per_recording.csv": (
        RELIABILITY_COLUMNS,
        lambda result: reliability_table(result.reliability),
    ),
    "icc.csv": (ICC_COLUMNS, lambda result: icc_table(result.reliability)),
    "aggregate_features.csv": (
        AGGREGATE_COLUMNS,
        lambda result: aggregate_table(result.aggregate),
    ),
}


def write_report(
    result: PipelineResult,
    out_dir: Path | str,
    documents: Mapping[str, object],
    tables: Sequence[str],
) -> list[Path]:
    """Write ``documents`` (file name -> data for ``write_json``),
    ``errors.json`` when the run had failures, and the named ``TABLES`` to
    ``out_dir``; returns the files written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = [write_json(out / name, data) for name, data in documents.items()]
        if result.errors:
            written.append(write_json(out / "errors.json", result.errors))
        for name in tables:
            header, rows = TABLES[name]
            written.append(_write_csv(out / name, header, rows(result)))
        return written
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from None


def emit_report(result: PipelineResult, out_dir: Path | str, format: str = "csv") -> list[Path]:
    """Write results to ``out_dir``; returns the files written.

    ``json`` emits the full-precision results file alone; ``csv`` adds the
    per-recording feature table, the per-recording reliability table with
    time-weighted and pooled summary rows, the ICC grid, and the corpus
    aggregate table. CSV cells are rounded to 3 decimals; the JSON is not.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json: {format!r}")
    tables = tuple(TABLES) if format == "csv" else ()
    return write_report(result, out_dir, {"results.json": result}, tables)
