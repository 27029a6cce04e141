"""Benchmark for talkmetrics: the real ``batch`` and ``features`` commands on
seeded synthetic corpora, with every output checked.

    python3 bench/run.py --workload linked_corpus --seed 1 --seconds 20 --trace 0

Run from a source checkout: the program is imported from ``src/`` next to
this directory, never from an installed copy. Each run generates its
corpus from ``--seed`` under ``bench/.work/`` and deletes it at the end.

``--trace 0`` times the commands as subprocesses, with no tracing, and
prints the end-to-end metrics. ``--trace 1`` runs the traced pass of
``tracing.py`` in this process and prints the per-layer metrics. Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one manifest
entry in one ``batch`` run, and it failed when ``errors.json`` lists it.
The exit code is 0 only when every output check passed. See README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKERS = {"linked_corpus": 1, "unlinked_align": 1, "many_small": 2}
# set-up is probed once per round, spread over the run like the commands,
# and at least this often
SETUP_PROBES = 5

# What every run pays before the first recording is read: importing the
# command line and discovering the corpus, in a fresh interpreter.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import talkmetrics.cli
from talkmetrics.batch import discover
imported = time.perf_counter()
discover(root_dir=sys.argv[1])
print(imported - start, time.perf_counter() - imported)
"""


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int


class Bench:
    """One benchmark run: a generated corpus, its expectations, and the
    commands run on it."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import corpus

        self.workers = WORKERS[workload]
        self.work = work
        self.root = work / "corpus"
        self.recordings = corpus.generate(workload, seed)
        corpus.write_corpus(self.recordings, self.root)
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "WSW_LOG": "error"}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._outputs = 0

    def out_dir(self) -> Path:
        self._outputs += 1
        return self.work / f"out{self._outputs}"

    def cli(self, verb: str, out: Path, workers: int) -> Invocation:
        """Run one command to completion through ``launch.py``."""
        command = [sys.executable, str(BENCH / "launch.py"), sys.executable, "-m",
                   "talkmetrics.cli", verb, "--root", str(self.root), "--out", str(out),
                   "--format", "csv", "--workers", str(workers)]
        with open(self.work / "cli.log", "ab") as log:
            report = subprocess.run(command, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=log, check=True).stdout
        return Invocation(**json.loads(report))

    def setup_probe(self) -> tuple[float, float]:
        """(import_s, discover_s) in a fresh interpreter."""
        line = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(self.root)], env=self.env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        return float(line[0]), float(line[1])

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def prepare_checks(self) -> None:
        import checks

        failures, alignments = checks.check_alignments(self.recordings, self.root)
        self.failures += failures
        self.expected = checks.Expected(self.recordings, alignments)

    def check_batch(self, out: Path, run: Invocation) -> None:
        """Full checks of one batch output; it becomes the reference that
        later outputs must equal byte for byte."""
        import checks
        import selftest

        results, errors = checks.load_outputs(out)
        self.expect(run.exit_code == (2 if errors else 0), f"batch exit code {run.exit_code}")
        self.failures += checks.check_results(results, errors, self.expected)
        self.failures += checks.check_tables(out, results)
        self.failures += selftest.corruption_caught(results, errors, self.expected)
        self.reference = out
        self.n_failed = len({error["recording_id"] for error in errors})
        corpus_info = results["corpus"]
        self.utterances = corpus_info["n_machine_utterances"] + corpus_info["n_expert_utterances"]

    def same_output(self, out: Path, names: list[str] | None = None) -> None:
        """``out`` holds the reference's files (or just ``names``), byte
        for byte."""
        if names is None:
            names = sorted(path.name for path in self.reference.iterdir())
            got = sorted(path.name for path in out.iterdir())
            self.expect(got == names, f"{out.name}: files {got} != {names}")
        _, mismatch, errors = filecmp.cmpfiles(self.reference, out, names, shallow=False)
        self.expect(not mismatch and not errors, f"{out.name}: {mismatch + errors} differ")

    def count_batch(self) -> None:
        self.attempted += len(self.recordings)
        self.failed += self.n_failed


def run_untraced(bench: Bench, seconds: float) -> dict:
    bench.setup_probe()  # warm-up: fills the file cache (and bytecode cache, if written)
    bench.prepare_checks()

    batches: list[Invocation] = []
    features: list[Invocation] = []
    setup: list[float] = []
    measured = 0.0
    while measured < seconds or not batches:
        out = bench.out_dir()
        batch = bench.cli("batch", out, bench.workers)
        if not batches:
            bench.check_batch(out, batch)
            if bench.workers > 1:
                serial = bench.out_dir()
                bench.cli("batch", serial, 1)
                bench.same_output(serial)
                shutil.rmtree(serial)
        else:
            bench.expect(batch.exit_code == batches[0].exit_code,
                         f"batch exit code {batch.exit_code}")
            bench.same_output(out)
            shutil.rmtree(out)
        bench.count_batch()
        batches.append(batch)

        out = bench.out_dir()
        feat = bench.cli("features", out, bench.workers)
        bench.expect(feat.exit_code == batches[0].exit_code, f"features exit code {feat.exit_code}")
        bench.same_output(out, ["features.csv"] + (["errors.json"] if bench.n_failed else []))
        shutil.rmtree(out)
        features.append(feat)
        measured += batch.wall_s + feat.wall_s
        setup.append(sum(bench.setup_probe()))
    while len(setup) < SETUP_PROBES:
        setup.append(sum(bench.setup_probe()))

    batch_s = statistics.median(b.wall_s for b in batches)
    return {
        "batch_s": (batch_s, "s"),
        "batch_cpu_s": (statistics.median(b.cpu_s for b in batches), "s"),
        "utterances_per_s": (bench.utterances / batch_s, "utt/s"),
        "features_s": (statistics.median(f.wall_s for f in features), "s"),
        "peak_rss_mib": (statistics.median(b.peak_rss_mib for b in batches), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def run_traced(bench: Bench, seconds: float) -> dict:
    import tracing

    bench.setup_probe()  # warm-up: fills the file cache (and bytecode cache, if written)
    bench.prepare_checks()

    reference = bench.out_dir()
    untraced_batch = bench.cli("batch", reference, 1)
    bench.check_batch(reference, untraced_batch)
    bench.count_batch()

    traced_walls, plain_walls, layers, imports = [], [], [], []
    measured = 0.0
    while measured < seconds:
        imports.append(bench.setup_probe()[0])
        for traced in (False, True):
            out = bench.out_dir()
            wall, tracer = tracing.run_pass(bench.root, out, traced)
            bench.same_output(out)
            shutil.rmtree(out)
            bench.count_batch()
            measured += wall
            if traced:
                traced_walls.append(wall)
                layers.append(tracing.layer_metrics(tracer))
            else:
                plain_walls.append(wall)

    metrics = {name: (statistics.median(layer[name] for layer in layers), unit_of(name))
               for name in layers[0]}
    while len(imports) < SETUP_PROBES:
        imports.append(bench.setup_probe()[0])
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.untraced_batch_s"] = (untraced_batch.wall_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "utt/s"
    if name.endswith("_s"):
        return "s"
    return {"align.ns_per_cell": "ns", "align.index_links_kept_ratio": "ratio",
            "batch.report_bytes": "bytes", "batch.recording_tail_pct": "%"}.get(name, "count")


def main() -> int:
    parser = argparse.ArgumentParser(description="talkmetrics benchmark")
    parser.add_argument("--workload", choices=sorted(WORKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "talkmetrics" / "cli.py").is_file():
        print(f"bench: no talkmetrics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import talkmetrics

    if Path(talkmetrics.__file__).resolve().parent != SRC / "talkmetrics":
        print(f"bench: imported talkmetrics from {talkmetrics.__file__}", file=sys.stderr)
        return 2
    import selftest

    problems = selftest.run()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        measure = run_traced if args.trace else run_untraced
        metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for failure in bench.failures[:50]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted {bench.attempted}, failed {bench.failed}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
