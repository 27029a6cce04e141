"""Alignment, language features and reliability statistics for classroom
speech transcripts.

The pipeline: ingest machine (ASR) and expert transcripts, align them
utterance by utterance, extract teacher and child language features, and
quantify machine-expert agreement (word error rate, speaker-classification
metrics, intraclass correlations) per recording and corpus-wide.
"""

import os

# numpy starts OpenBLAS's thread pool when it is first imported, and no
# talkmetrics code calls BLAS; every submodule import below runs after this
# line, so the pool never starts unless the caller asked for one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .align import (
    AlignConfig,
    AlignedCorpus,
    AlignedPair,
    NotLinked,
    align,
    align_by_index,
    align_by_time,
    text_similarity,
    time_iou,
    write_alignment_jsonl,
)
from .batch import (
    CorpusManifest,
    EmptyCorpus,
    EntryError,
    ManifestEntry,
    MissingFile,
    PipelineResult,
    RunConfig,
    discover,
    emit_report,
    run_pipeline,
)
from .errors import TalkmetricsError
from .features import (
    FEATURE_COLUMNS,
    ICC_FEATURES,
    FeatureSummary,
    ResponseLink,
    detect_responses,
    icc_feature_values,
    response_proportion,
    summarize,
)
from .ingest import (
    InvalidTimestamps,
    MalformedRecord,
    MetaError,
    MissingHeader,
    ParseError,
    UnknownSpeakerLabel,
    ValidationWarning,
    dump_meta,
    load_meta,
    load_recording,
    parse_expert,
    parse_machine,
    validate,
    write_expert_table,
    write_machine_jsonl,
)
from .reliability import (
    ConfusionMatrix,
    IccEntry,
    MetricSet,
    RecordingReliability,
    ReliabilityReport,
    ZeroVarianceWarning,
    accuracy,
    build_report,
    cohen_kappa,
    corpus_wer,
    cross_classify,
    icc_absolute,
    recording_reliability,
    time_weighted_mean,
    utterance_wer,
    weighted_f1,
)
from .transcript import (
    RecordingMeta,
    SpeakerRole,
    Source,
    Transcript,
    Utterance,
    is_question,
    levenshtein,
    normalize,
    tokenize,
)

__version__ = "0.1.0"
