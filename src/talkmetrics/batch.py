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
import math
import os
import sys
from array import array
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .align import AlignConfig, AlignedCorpus, align
from .codec import decode, field_values, json_chunks, read_json
from .errors import TalkmetricsError, describe
from .features import (
    DEFAULT_LD_WINDOW,
    DEFAULT_RESPONSE_WINDOW,
    FEATURE_COLUMNS,
    MIN_LD_WINDOW,
    FeatureSummary,
    detect_responses,
    icc_feature_values,
    ratio,
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
from .transcript import ROLES, RecordingMeta, SpeakerRole, Transcript

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
    """A manifest has no recordings."""


class ManifestError(TalkmetricsError):
    """The manifest is malformed (bad JSON, duplicate ids, missing,
    mistyped or unknown keys)."""


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
    """The recordings of one run, at least one, sorted by recording id."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise EmptyCorpus("no recordings found")
        ids = [entry.recording_id for entry in self.entries]
        if len(set(ids)) != len(ids):
            seen = set()
            duplicate = next(i for i in ids if i in seen or seen.add(i))
            raise ManifestError(f"duplicate recording_id {duplicate!r}")
        ordered = tuple(sorted(self.entries, key=lambda entry: entry.recording_id))
        object.__setattr__(self, "entries", ordered)


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
        """Build from a config-file mapping: defaults fill the keys of
        ``semantic_dict``, ``align``'s too, that it leaves out, and keyword
        overrides that are not None win. Raises ValueError for an unknown
        key, a value of the wrong type, or one out of range."""
        if "parallelism" in data:  # set by the caller, never by a file
            raise ValueError("unknown key 'parallelism'")
        defaults = asdict(cls())
        if isinstance(data.get("align"), dict):
            data = {**data, "align": {**defaults["align"], **data["align"]}}
        given = {k: v for k, v in overrides.items() if v is not None}
        return decode(cls, {**defaults, **data, **given})


@dataclass(frozen=True)
class _ManifestRecord:
    """One manifest entry as the file holds it: these keys and no others."""

    recording_id: str
    machine_path: str
    meta_path: str
    expert_path: str | None


def _entry_from_mapping(record: object, manifest_path: Path) -> ManifestEntry:
    if not isinstance(record, dict):
        raise ManifestError(f"{manifest_path}: manifest entry must be an object: {record!r}")
    try:
        raw = decode(_ManifestRecord, {"expert_path": None, **record})
        # the id names the align audit file under --out, so it must be a plain
        # file name that stays there
        if raw.recording_id in ("", ".", "..") or any(c in raw.recording_id for c in "/\\\0"):
            raise ValueError("recording_id must be a plain file name")
        for key in ("machine_path", "meta_path", "expert_path"):
            if getattr(raw, key) == "":  # it would name the manifest's directory
                raise ValueError(f"{key} must not be empty")
    except ValueError as exc:
        raise ManifestError(f"{manifest_path}: manifest entry: {exc}: {record!r}") from None
    # ``base / path`` is ``path`` itself when that is absolute
    base = manifest_path.parent
    return ManifestEntry(
        recording_id=raw.recording_id,
        machine_path=base / raw.machine_path,
        meta_path=base / raw.meta_path,
        expert_path=None if raw.expert_path is None else base / raw.expert_path,
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
        entries = [_entry_from_mapping(record, manifest_path) for record in records]
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
    return CorpusManifest(entries=tuple(entries))


@dataclass(frozen=True)
class EntryError:
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
    """Both roles' feature rows for one transcript, in ``ROLES`` order."""
    links = detect_responses(transcript, cfg.response_window)
    return tuple(summarize(transcript, role, links, ld_window=cfg.ld_window) for role in ROLES)


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


def _process_task(
    entries: Sequence[ManifestEntry], cfg: RunConfig, stages: tuple[str, ...]
) -> list[RecordingOutcome]:
    """One pooled task: ``_process_entry`` on each of a few entries."""
    return [_process_entry(entry, cfg, stages) for entry in entries]


def _process_alone(
    entry: ManifestEntry, cfg: RunConfig, stages: tuple[str, ...]
) -> RecordingOutcome:
    """``_process_entry`` on one entry in a fresh one-worker pool, or one
    ``ingest`` error when that worker dies, with its exit code where the
    pool kept its worker process."""
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=1, initializer=configure_logging
    ) as pool:
        future = pool.submit(_process_task, [entry], cfg, stages)
        # the pool keeps its worker processes in an undocumented attribute,
        # gone after shutdown, so read it while the pool is open
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            return future.result()[0]
        except concurrent.futures.BrokenExecutor:
            pass
    codes = [str(process.exitcode) for process in processes if process.exitcode is not None]
    exit_code = f" (exit code {', '.join(codes)})" if codes else ""
    error = EntryError(entry.recording_id, "ingest", f"its worker process died{exit_code}")
    return RecordingOutcome(entry.recording_id, errors=(error,))


def _pool_outcomes(
    entries: Sequence[ManifestEntry],
    todo: Sequence[int],
    cfg: RunConfig,
    stages: tuple[str, ...],
    workers: int,
    chunk: int,
) -> Iterator[tuple[int, RecordingOutcome]]:
    """(i, outcome) for each ``entries[i]`` whose index is in ``todo``, in a
    pool of up to ``workers`` processes, ``chunk`` entries per task, as each
    task finishes. When a worker dies, yields those of the tasks that had
    finished, then that of the first entry of ``todo`` that had not, run by
    ``_process_alone``, and stops."""
    tasks = [todo[k : k + chunk] for k in range(0, len(todo), chunk)]
    lost: list[Sequence[int]] = []
    # this attribute lookup is what loads concurrent.futures.process, and
    # with it multiprocessing, so a serial run never pays for either
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(todo)), initializer=configure_logging
    ) as pool:
        futures = {}
        try:
            for task in tasks:
                futures[pool.submit(_process_task, [entries[i] for i in task], cfg, stages)] = task
        except concurrent.futures.BrokenExecutor:
            lost = tasks[len(futures) :]
        for future in concurrent.futures.as_completed(futures):
            task = futures.pop(future)
            if isinstance(future.exception(), concurrent.futures.BrokenExecutor):
                lost.append(task)
            else:
                yield from zip(task, future.result())
            del future  # its outcomes, once yielded, are the caller's alone
    if lost:
        first = min(task[0] for task in lost)
        yield first, _process_alone(entries[first], cfg, stages)


def process_recordings(
    entries: Sequence[ManifestEntry], cfg: RunConfig, stages: tuple[str, ...]
) -> Iterator[RecordingOutcome]:
    """Run the named ``_STAGES`` on every entry, in ``cfg.parallelism``
    worker processes, but no more than there are entries, when that is
    above one; yields each entry's outcome, in entry order, as soon as it
    is done, and each exactly once.

    A worker that dies (killed for memory, or crashed in an extension)
    breaks its pool, but not the run. Outcomes already yielded stand, and
    those of tasks that finished are kept, so a break loses only the tasks
    in flight. The first entry not yet yielded then runs alone in a fresh
    one-worker pool, and becomes one ``ingest`` error, which says its
    worker died, if that pool breaks too. Pooled work then resumes on the
    entries left, one entry per task. Every break settles one entry, and
    an entry that kills its worker breaks at most ``workers + 1`` pools:
    the first, then at most one more for each other worker, since an entry
    before it that is unfinished when it dies runs on another worker.
    """
    # a pool starts all its workers at once, busy or not
    workers = min(cfg.parallelism, len(entries))
    if workers <= 1:
        for entry in entries:
            yield _process_entry(entry, cfg, stages)
        return
    # finished outcomes that wait for an earlier entry's
    finished: dict[int, RecordingOutcome] = {}
    position = 0
    todo: Sequence[int] = range(len(entries))
    chunk = max(1, len(entries) // (workers * 4))
    while todo:
        for i, outcome in _pool_outcomes(entries, todo, cfg, stages, workers, chunk):
            finished[i] = outcome
            while position in finished:
                yield finished.pop(position)
                position += 1
        todo = [i for i in range(position, len(entries)) if i not in finished]
        chunk = 1


@dataclass(frozen=True)
class PooledRole:
    """One role's feature rows of one source, pooled over the corpus: counts
    summed, rates over the summed counts, and two means of the recordings'
    own values. A rate or mean with nothing to divide by is None."""

    n_recordings: int
    n_utterances: int
    n_questions: int
    n_non_questions: int
    n_responded_questions: int
    n_responded_non_questions: int
    n_responses_given: int
    total_words: int
    mlu_pooled: float | None
    words_per_minute_pooled: float | None
    prop_responded_questions_pooled: float | None
    prop_responded_non_questions_pooled: float | None
    pct_questions_pooled: float | None
    pct_questions_mean: float | None
    mean_lexical_diversity_per_minute: float | None


@dataclass(frozen=True)
class PooledSource:
    """One source's pooled features: each role's, then the one across roles."""

    teacher: PooledRole
    child: PooledRole
    teacher_child_utterance_ratio: float | None


def _pool_role(rows: Sequence[tuple[FeatureSummary, float]], role: SpeakerRole) -> PooledRole:
    """Pool one role's feature rows, each with its recording's minutes."""
    mine = [row for row in rows if row[0].role is role]
    n_utterances = sum(s.n_utterances for s, _ in mine)
    n_questions = sum(s.n_questions for s, _ in mine)
    n_non_questions = sum(s.n_non_questions for s, _ in mine)
    responded = sum(s.n_responded_questions for s, _ in mine)
    responded_non = sum(s.n_responded_non_questions for s, _ in mine)
    words = sum(round(s.mlu_overall * s.n_utterances) if s.n_utterances else 0 for s, _ in mine)
    minutes = sequential_sum(row_minutes for _, row_minutes in mine)
    pct_values = [s.pct_questions for s, _ in mine if s.pct_questions is not None]
    ld_values = [s.lexical_diversity_per_minute for s, _ in mine]
    return PooledRole(
        n_recordings=len(mine),
        n_utterances=n_utterances,
        n_questions=n_questions,
        n_non_questions=n_non_questions,
        n_responded_questions=responded,
        n_responded_non_questions=responded_non,
        n_responses_given=sum(s.n_responses_given for s, _ in mine),
        total_words=words,
        mlu_pooled=ratio(words, n_utterances),
        words_per_minute_pooled=ratio(words, minutes),
        prop_responded_questions_pooled=response_proportion(responded, n_questions),
        prop_responded_non_questions_pooled=response_proportion(responded_non, n_non_questions),
        pct_questions_pooled=response_proportion(n_questions, n_utterances),
        pct_questions_mean=ratio(sequential_sum(pct_values), len(pct_values)),
        mean_lexical_diversity_per_minute=ratio(sequential_sum(ld_values), len(ld_values)),
    )


def _pool_source(rows: Sequence[tuple[FeatureSummary, float]]) -> PooledSource:
    """Pool one source's per-recording feature rows into corpus-level features."""
    teacher = _pool_role(rows, SpeakerRole.TEACHER)
    child = _pool_role(rows, SpeakerRole.CHILD)
    return PooledSource(teacher, child, ratio(teacher.n_utterances, child.n_utterances))


@dataclass(frozen=True)
class CorpusCounts:
    """What a run processed: the recordings with features, the recordings
    that failed, their hours, and their utterances."""

    n_recordings: int
    n_failed: int
    hours: float
    n_machine_utterances: int
    n_expert_utterances: int


@dataclass(frozen=True)
class PipelineResult:
    """Everything a run produced, ready to serialize.

    Carries only analysis parameters in ``config``; worker counts and
    output paths are execution details and stay out so identical inputs
    serialize identically everywhere.
    """

    config: dict
    corpus: CorpusCounts
    features: tuple[FeatureSummary, ...]
    reliability: ReliabilityReport | None
    aggregate: dict[str, PooledSource]
    errors: tuple[EntryError, ...]


class _IccGrid:
    """The ICC grid as outcomes arrive: each feature key's machine and expert
    values, one per recording in arrival order, in two ``array('d')``, with
    NaN for None, which ``build_report`` drops alike."""

    def __init__(self) -> None:
        self.columns: dict[str, tuple[array, array]] = {}

    def add(self, key: str, machine: float | None, expert: float | None) -> None:
        columns = self.columns.get(key)
        if columns is None:
            columns = self.columns[key] = (array("d"), array("d"))
        columns[0].append(math.nan if machine is None else machine)
        columns[1].append(math.nan if expert is None else expert)

    def pairs(self) -> dict[str, Iterator[tuple[float, float]]]:
        """Each key's (machine, expert) pairs, made as ``build_report`` reads them."""
        return {key: zip(*columns) for key, columns in self.columns.items()}


def run_pipeline(
    manifest: CorpusManifest, cfg: RunConfig, agreement: bool = True
) -> PipelineResult:
    """Process every manifest entry and merge in manifest order.

    Each outcome is folded into the result as it arrives and then dropped:
    the parent keeps the feature rows, reliability rows and errors the
    reports need, running counts, and the ICC grid's values, never the
    outcomes themselves.

    ``agreement=False`` skips alignment and the agreement statistics, for
    callers that report features only: the result's features, corpus
    counts, aggregate and errors are those of a full run, its
    ``reliability`` is ``None``.
    """
    stages = ("meta", "machine", "machine_features", "expert", "expert_features")
    stages += ("align", "reliability") if agreement else ()
    features: list[FeatureSummary] = []
    errors: list[EntryError] = []
    rows: list[RecordingReliability] = []
    grid = _IccGrid()
    pooled: dict[str, list[tuple[FeatureSummary, float]]] = {"machine": []}
    # ``hours`` adds as ``sequential_sum`` does: from the int 0, left to right
    n_recordings = hours = n_machine_utterances = n_expert_utterances = 0
    for outcome in process_recordings(manifest.entries, cfg, stages):
        errors.extend(outcome.errors)
        if outcome.features:
            minutes = outcome.duration_minutes
            n_recordings += 1
            hours += minutes / 60.0
            n_machine_utterances += outcome.n_machine_utterances
            n_expert_utterances += outcome.n_expert_utterances
            features.extend(outcome.features)
            if outcome.reliability is not None:
                rows.append(outcome.reliability)
                # the machine rows, then the expert rows, each in ROLES order
                half = len(outcome.features) // 2
                for machine, expert in zip(outcome.features[:half], outcome.features[half:]):
                    expert_values = icc_feature_values(expert, minutes)
                    for name, value in icc_feature_values(machine, minutes).items():
                        grid.add(f"{machine.role.value}_{name}", value, expert_values[name])
            for summary in outcome.features:
                pooled.setdefault(summary.source.value, []).append((summary, minutes))
        del outcome  # so no outcome outlives its turn
    return PipelineResult(
        config=cfg.semantic_dict(),
        corpus=CorpusCounts(
            n_recordings=n_recordings,
            n_failed=len({error.recording_id for error in errors}),
            hours=hours,
            n_machine_utterances=n_machine_utterances,
            n_expert_utterances=n_expert_utterances,
        ),
        features=tuple(features),
        reliability=build_report(rows, grid.pairs()) if rows else None,
        aggregate={source: _pool_source(source_rows) for source, source_rows in pooled.items()},
        errors=tuple(errors),
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

AGGREGATE_COLUMNS = (
    "source",
    "role",
    *(f.name for f in fields(PooledRole)),
    "teacher_child_utterance_ratio",
)

ICC_COLUMNS = ("feature", "icc", "n_used", "n_dropped", "zero_variance")


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


def aggregate_table(aggregate: Mapping[str, PooledSource]) -> list[list[object]]:
    """One row per pooled (source, role), sources in the aggregate's order."""
    return [
        [source, role, *field_values(stats), pooled.teacher_child_utterance_ratio]
        for source, pooled in aggregate.items()
        for role, stats in (("teacher", pooled.teacher), ("child", pooled.child))
    ]


def check_results(result: PipelineResult) -> None:
    """Raise ValueError unless ``result``, whose other cells ``decode`` typed,
    holds what a run writes: a ``config`` that decodes as a ``RunConfig``
    without ``parallelism``, which a run never writes, feature rows of the
    ``ROLES`` only, and an ``aggregate`` of a ``machine`` source and,
    optionally, an ``expert`` one after it."""
    if "parallelism" in result.config:
        raise ValueError("unknown key 'config.parallelism'")
    decode(RunConfig, {**result.config, "parallelism": 1}, "config")
    for i, summary in enumerate(result.features):
        if summary.role not in ROLES:
            roles = ", ".join(repr(role.value) for role in ROLES)
            raise ValueError(f"features[{i}].role must be one of {roles}: {summary.role.value!r}")
    sources = list(result.aggregate)
    if sources not in (["machine"], ["machine", "expert"]):
        raise ValueError(f"aggregate sources must be machine and, optionally, expert: {sources}")


# Every report file, and how it is written from a result
_REPORT_FILES: dict[str, Callable[[Path, PipelineResult], Path]] = {
    "results.json": write_json,
    "features.json": lambda path, result: write_json(path, {"features": result.features}),
    "reliability.json": lambda path, result: write_json(path, {"reliability": result.reliability}),
    "errors.json": lambda path, result: write_json(path, result.errors),
    "features.csv": lambda path, result: _write_csv(
        path, FEATURE_COLUMNS, map(field_values, result.features)
    ),
    "reliability_per_recording.csv": lambda path, result: _write_csv(
        path, RELIABILITY_COLUMNS, reliability_table(result.reliability)
    ),
    "icc.csv": lambda path, result: _write_csv(path, ICC_COLUMNS, icc_table(result.reliability)),
    "aggregate_features.csv": lambda path, result: _write_csv(
        path, AGGREGATE_COLUMNS, aggregate_table(result.aggregate)
    ),
}

# The report files of each pipeline verb, per format; ``report`` writes ``batch``'s
VERB_REPORTS = {
    "features": {"csv": ("features.csv",), "json": ("features.json",)},
    "reliability": {
        "csv": ("reliability_per_recording.csv", "icc.csv"),
        "json": ("reliability.json",),
    },
    "batch": {
        "csv": (
            "results.json",
            "features.csv",
            "reliability_per_recording.csv",
            "icc.csv",
            "aggregate_features.csv",
        ),
        "json": ("results.json",),
    },
}


def write_report(result: PipelineResult, out_dir: Path | str, names: Sequence[str]) -> list[Path]:
    """Write the named report files, and ``errors.json`` when the run had
    failures, to ``out_dir``; returns the files written."""
    out = Path(out_dir)
    names = (*names, "errors.json") if result.errors else names
    try:
        out.mkdir(parents=True, exist_ok=True)
        return [_REPORT_FILES[name](out / name, result) for name in names]
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
    return write_report(result, out_dir, VERB_REPORTS["batch"][format])
