"""The traced pass: per-layer times and counts from outside the program.

The program has no tracing of its own yet. This module wraps the public
calls ``batch._process_entry`` makes (``load_meta``, ``parse_machine``,
``parse_expert``, ``detect_responses``, ``summarize``, ``align_by_index`` /
``align_by_time``, ``recording_reliability``) and ``build_report`` by
replacing the names the program looks up at call time, runs
``discover`` -> ``run_pipeline`` -> ``emit_report`` in this process with one
worker, and restores every name afterwards. Each wrapped call is timed with
``perf_counter`` around the call and its result counted at the same
boundary.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from talkmetrics.batch import RunConfig, discover, emit_report, run_pipeline

# the package re-exports a function named ``align``, so fetch the modules
align_mod = importlib.import_module("talkmetrics.align")
batch_mod = importlib.import_module("talkmetrics.batch")

# (module, attribute, span name): the lookups the pipeline makes at call time
WRAPPED = (
    (batch_mod, "load_meta", "ingest.load_meta"),
    (batch_mod, "parse_machine", "ingest.parse_machine"),
    (batch_mod, "parse_expert", "ingest.parse_expert"),
    (batch_mod, "detect_responses", "features.detect_responses"),
    (batch_mod, "summarize", "features.summarize"),
    (align_mod, "align_by_index", "align.by_index"),
    (align_mod, "align_by_time", "align.by_time"),
    (batch_mod, "recording_reliability", "reliability.recording_reliability"),
    (batch_mod, "build_report", "reliability.build_report"),
    (batch_mod, "_process_entry", "batch.recording"),
)
STAGES = tuple(span for _, _, span in WRAPPED if span != "batch.recording")


class Tracer:
    """Span durations and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.counting_s = 0.0  # time spent counting, kept out of the stage spans

    def wrap(self, name: str, fn):
        spans = self.spans[name]

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = time.perf_counter()
                spans.append(stop - start)
            self._count(name, args, result)
            self.counting_s += time.perf_counter() - stop
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name in ("ingest.parse_machine", "ingest.parse_expert"):
            side = "machine" if name.endswith("machine") else "expert"
            counts[f"ingest.{side}_utterances"] += len(result.utterances)
            counts["transcript.tokens"] += sum(len(u.tokens) for u in result.utterances)
        elif name == "features.detect_responses":
            counts["features.response_links"] += len(result)
        elif name.startswith("align."):
            counts["align.pairs"] += len(result.pairs)
            counts["align.residue"] += len(result.machine_only) + len(result.expert_only)
            machine, expert = args[0], args[1]
            if name == "align.by_time":
                counts["align.dp_cells"] += len(machine.utterances) * len(expert.utterances)
            else:
                counts["align.index_pairs"] += len(result.pairs)
                counts["align.index_links"] += sum(
                    u.linked_id is not None for u in expert.utterances
                )
        elif name == "reliability.build_report":
            counts["reliability.rows"] += len(result.rows)

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for module, attr, name in WRAPPED:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def run_pass(root: Path, out: Path, traced: bool) -> tuple[float, Tracer]:
    """One discover -> run_pipeline -> emit_report pass; returns its wall
    time and, when traced, the filled tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    if traced:
        with tracer.installed():
            t0 = time.perf_counter()
            manifest = discover(root_dir=root)
            t1 = time.perf_counter()
            result = run_pipeline(manifest, RunConfig(parallelism=1))
            t2 = time.perf_counter()
            written = emit_report(result, out, "csv")
            t3 = time.perf_counter()
        tracer.spans["batch.discover"].append(t1 - t0)
        tracer.spans["batch.run_pipeline"].append(t2 - t1)
        tracer.spans["batch.emit_report"].append(t3 - t2)
        tracer.counts["batch.report_bytes"] = sum(path.stat().st_size for path in written)
    else:
        emit_report(run_pipeline(discover(root_dir=root), RunConfig(parallelism=1)), out, "csv")
    return time.perf_counter() - start, tracer


def tail_percentile(n: int) -> int:
    """The highest of 99/95/90/80 with at least ten samples beyond it, else
    50 (the median)."""
    for pct in (99, 95, 90, 80):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list[float], pct: int) -> float:
    """Interpolated percentile; p50 is the median."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (name -> value)."""
    total = {name: sum(tracer.spans.get(name, ())) for name in STAGES}
    counts = tracer.counts
    parsed = counts["ingest.machine_utterances"] + counts["ingest.expert_utterances"]
    parse_s = total["ingest.parse_machine"] + total["ingest.parse_expert"]
    cells = counts["align.dp_cells"]
    recordings = tracer.spans["batch.recording"]
    pipeline_s = tracer.spans["batch.run_pipeline"][0]
    tail = tail_percentile(len(recordings))
    aligns = tracer.spans["align.by_index"] + tracer.spans["align.by_time"]
    return {
        "ingest.load_meta_s": total["ingest.load_meta"],
        "ingest.parse_machine_s": total["ingest.parse_machine"],
        "ingest.parse_expert_s": total["ingest.parse_expert"],
        "ingest.machine_utterances": counts["ingest.machine_utterances"],
        "ingest.expert_utterances": counts["ingest.expert_utterances"],
        "ingest.utterances_per_s": parsed / parse_s if parse_s else 0.0,
        "transcript.tokens": counts["transcript.tokens"],
        "features.detect_responses_s": total["features.detect_responses"],
        "features.summarize_s": total["features.summarize"],
        "features.response_links": counts["features.response_links"],
        "align.by_index_s": total["align.by_index"],
        "align.by_time_s": total["align.by_time"],
        "align.dp_cells": cells,
        "align.ns_per_cell": total["align.by_time"] / cells * 1e9 if cells else 0.0,
        "align.slowest_recording_s": max(aligns, default=0.0),
        "align.pairs": counts["align.pairs"],
        "align.residue": counts["align.residue"],
        "align.index_links_kept_ratio": (
            counts["align.index_pairs"] / counts["align.index_links"]
            if counts["align.index_links"] else 0.0
        ),
        "reliability.recording_reliability_s": total["reliability.recording_reliability"],
        "reliability.build_report_s": total["reliability.build_report"],
        "reliability.rows": counts["reliability.rows"],
        "batch.discover_s": tracer.spans["batch.discover"][0],
        "batch.run_pipeline_s": pipeline_s,
        # no wrapped stage calls another, so the stage totals do not overlap
        "batch.merge_overhead_s": pipeline_s - sum(total.values()) - tracer.counting_s,
        "batch.emit_report_s": tracer.spans["batch.emit_report"][0],
        "batch.report_bytes": counts["batch.report_bytes"],
        "batch.recordings": len(recordings),
        "batch.recording_p50_s": statistics.median(recordings),
        "batch.recording_tail_pct": tail,
        "batch.recording_tail_s": percentile(recordings, tail),
    }
