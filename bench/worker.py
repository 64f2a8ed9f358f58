"""One workload's measured job, in a fresh process: ``worker.py SPEC.json RESULT.json``.

run.py starts this process after prepare.py has written the inputs, so peak
RSS and import cost belong to the job alone. For the in-process workloads
the worker runs one untimed iteration first: it warms the caches, and its
artifacts become the reference every timed iteration must reproduce byte
for byte. For cli-chain the reference is the library path that prepare.py
ran, so the CLI must agree with the library; the worker itself never
imports the package there, and stays small (see chain.py).

Then it repeats the job until ``seconds`` would be exceeded. With tracing on
it alternates untraced and traced iterations: end-to-end numbers come from
the untraced ones only, per-layer numbers from the traced ones.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import chain
from tracing import Tracer, merge_snapshots


# What a fresh interpreter imports to get ready, per workload.
READY = {
    "cli-chain": "import ganitprep.cli; ganitprep.cli.build_parser()",
    "library-prep": "import ganitprep.corpus, ganitprep.classify, ganitprep.decompose, "
                    "ganitprep.curriculum",
    "grade-many": "import ganitprep.corpus, ganitprep.evaluate",
    "augment-provider": "import ganitprep.corpus, ganitprep.llm_client, ganitprep.structure; "
                        "ganitprep.structure.get_template('augment')",
}
SETUP_EVERY_S = 2.5  # one timed start per this much run time
SETUP_MIN_STARTS = 7


class SetupProbe:
    """Times fresh interpreters getting ready for the workload (``setup_s``).

    The starts are spread over the run instead of bunched at its beginning,
    so the median samples the machine in the same states as the job does.
    The first start only warms the bytecode and file caches.
    """

    def __init__(self, workload: str):
        self.command = [sys.executable, "-c", READY[workload]]
        self.walls: list[float] = []
        self._last = 0.0
        self._start()

    def _start(self) -> float:
        # A blocking wait4, not subprocess.run(timeout=...): waiting with a
        # timeout polls in sleeps of up to 50 ms, which rounds every start up
        # to the next poll. run.py bounds the whole worker's time instead.
        start = time.perf_counter()
        proc = subprocess.Popen(self.command, stdout=subprocess.DEVNULL)
        _, status, _ = os.wait4(proc.pid, 0)
        self._last = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, self.command)
        return self._last - start

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.walls.append(self._start())

    def median(self) -> float:
        while len(self.walls) < SETUP_MIN_STARTS:
            self.walls.append(self._start())
        return statistics.median(self.walls)


def _reset(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


class Workload:
    """Adapts one job to the loop: ``run(trace_dir)`` -> (artifacts, problems, operations)."""

    def __init__(self, spec: dict):
        self.name = spec["workload"]
        self.inp = Path(spec["inputs"])
        self.out = Path(spec["outputs"])
        self.truth = spec["truth"]
        self.seed = spec["seed"]
        self.stages: list = []
        self.stats: dict = {}
        self.probe = SetupProbe(self.name)
        # The in-process jobs import the package; cli-chain must not (chain.py).
        self.jobs = None if self.name == "cli-chain" else importlib.import_module("jobs")
        if self.name == "augment-provider":
            self.seeds = self.jobs.corpus.load_manifest(self.inp / "seeds.manifest.jsonl")

    def run(self, trace_dir: Path | None = None):
        if self.name == "library-prep":
            return self.jobs.library_prep(self.inp, self.out, self.truth, self.seed)[:3]
        if self.name == "grade-many":
            return self.jobs.grade_many(self.inp, self.out, self.truth)
        if self.name == "augment-provider":
            artifacts, problems, operations, self.stats = self.jobs.augment(
                self.seeds, self.out, self.seed, self.truth["units"])
            return artifacts, problems, operations
        artifacts, problems, operations, self.stages = chain.cli_chain(
            self.inp, self.out, self.truth, self.seed, trace_dir, between=self.probe.maybe)
        return artifacts, problems, operations


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_loop(workload: Workload, seconds: float, trace: bool) -> dict:
    result = {"walls": [], "traced_walls": [], "operations": 0, "problems": [],
              "stage_walls": [], "snapshots": [], "stats": {}}
    # Artifacts every timed iteration must reproduce; None: the warm-up sets them.
    reference = workload.truth.get("reference")
    deadline_start = time.perf_counter()
    warm = reference is None
    while True:
        traced = trace and not warm and len(result["traced_walls"]) < len(result["walls"])
        _reset(workload.out)
        tracer = None
        trace_dir = None
        if traced:
            if workload.name == "cli-chain":
                trace_dir = workload.out / "trace"
                trace_dir.mkdir()
            else:
                tracer = Tracer()
                tracer.install()
        start = time.perf_counter()
        try:
            artifacts, problems, operations = workload.run(trace_dir)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if workload.name == "cli-chain":  # the stages alone, without set-up probes
            wall = sum(stage_wall for _, stage_wall, _ in workload.stages)
        else:
            workload.probe.maybe()
        if warm:
            reference, warm = artifacts, False
            result["problems"] += [f"warm-up: {p}" for p in problems]
            deadline_start = time.perf_counter()
            continue
        result["operations"] += operations
        result["problems"] += problems
        if artifacts != reference:
            differing = sorted(k for k in set(artifacts) | set(reference)
                               if artifacts.get(k) != reference.get(k))
            result["problems"].append(f"artifacts differ from the reference: {differing}")
        if traced:
            result["traced_walls"].append(wall)
            if tracer is not None:
                result["snapshots"].append(tracer.snapshot())
            else:
                result["snapshots"].append(merge_snapshots(
                    json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))))
        else:
            result["walls"].append(wall)
            result["stage_walls"].append(workload.stages)
        result["stats"] = workload.stats
        if result["problems"]:
            break
        elapsed = time.perf_counter() - deadline_start
        enough = result["walls"] and (not trace or result["traced_walls"])
        if enough and elapsed + wall > seconds:
            break
    return result


def layer_metrics(result: dict, workload: Workload) -> dict:
    setup_s = workload.probe.median()
    iterations = len(result["snapshots"])
    snap = merge_snapshots(result["snapshots"])

    def inclusive(name):
        return snap["total"].get(name, 0.0) / iterations

    def own(name):
        return snap["self"].get(name, 0.0) / iterations

    def calls(name):
        return snap["calls"].get(name, 0) / iterations

    def count(name):
        return snap["counts"].get(name, 0) / iterations

    def ratio(a, b):
        return a / b if b else 0.0

    rewritten, flagged = count("decompose.rewritten"), count("decompose.flagged")
    graded = count("evaluate.graded")
    metrics = {
        "corpus.ingest_s": own("corpus.ingest"),
        "corpus.save_s": own("corpus.save"),
        "corpus.save_bytes": count("corpus.save_bytes"),
        "corpus.load_s": own("corpus.load"),
        "corpus.load_calls": calls("corpus.load"),
        "corpus.load_records_per_s": ratio(count("corpus.load_records"), inclusive("corpus.load")),
        "corpus.from_records_s": own("corpus.from_records"),
        "corpus.checksum_s": own("corpus.checksum"),
        "corpus.checksum_records": count("corpus.checksum_records"),
        "corpus.checksum_per_output_record": ratio(count("corpus.checksum_records"),
                                                   workload.truth["output_records"]),
        "classify.score_s": own("classify.score"),
        "classify.score_records_per_s": ratio(count("classify.scored"),
                                              inclusive("classify.score")),
        "classify.levels_s": own("classify.levels"),
        "classify.annotate_s": own("classify.annotate"),
        "decompose.apply_s": own("decompose.apply"),
        "decompose.records_per_s": ratio(count("decompose.records"), inclusive("decompose.apply")),
        "decompose.rewritten": rewritten,
        "decompose.flagged": flagged,
        "decompose.rewrite_yield": ratio(rewritten, rewritten + flagged),
        "structure.render_prompt_calls": calls("structure.render_prompt"),
        "structure.render_prompt_s": own("structure.render_prompt"),
        "curriculum.exported": count("curriculum.exported"),
        "curriculum.export_bytes": count("curriculum.export_bytes"),
        "evaluate.read_predictions_s": own("evaluate.read_predictions"),
        "evaluate.grade_s": own("evaluate.grade") + own("evaluate.reference"),
        "evaluate.graded_per_s": ratio(graded, inclusive("evaluate.grade")),
        "evaluate.extract_s": inclusive("evaluate.extract"),
        "evaluate.save_grades_s": own("evaluate.save_grades"),
        "evaluate.report_s": own("evaluate.report"),
        "evaluate.unparseable_share": ratio(count("evaluate.unparseable"), graded),
        "evaluate.reference_extractions_per_problem": ratio(calls("evaluate.reference"),
                                                            len(snap["graded_ids"])),
    }
    for step in ("pair", "merge", "split", "build", "export"):
        metrics[f"curriculum.{step}_s"] = own(f"curriculum.{step}")

    stats = result["stats"]
    requests = calls("llm_client.generate")
    samples = sorted(snap["samples"].get("llm_client.generate", []))
    cuts = statistics.quantiles(samples, n=100) if len(samples) >= 2 else [0.0] * 99
    metrics.update({
        "llm_client.requests": requests,
        "llm_client.attempts": stats.get("attempts", 0),
        "llm_client.retry_share": ratio(stats.get("attempts", 0) - stats.get("requests", 0),
                                        stats.get("attempts", 0)),
        "llm_client.accepted": stats.get("accepted", 0),
        "llm_client.discarded": stats.get("discarded", 0),
        "llm_client.parse_yield": ratio(stats.get("accepted", 0), stats.get("requests", 0)),
        "llm_client.peak_in_flight": stats.get("peak_in_flight", 0),
        "llm_client.transport_wait_s": stats.get("transport_wait_s", 0.0),
        "llm_client.request_p50_ms": cuts[49] * 1000,
        "llm_client.request_p99_ms": cuts[98] * 1000,
        "llm_client.request_samples": len(samples),
    })

    groups = ("ingest", "classify", "decompose", "pair", "merge", "split", "build", "export",
              "grade", "report")
    chains = result["stage_walls"] if workload.name == "cli-chain" else []
    for group in groups:
        walls = [sum(w for g, w, _ in stages if g == group) for stages in chains]
        rss = [max((r for g, _, r in stages if g == group), default=0) for stages in chains]
        metrics[f"cli.{group}.wall_s"] = _median(walls)
        metrics[f"cli.{group}.rss_mb"] = max(rss, default=0) / 1024
    stage_count = len(chains[0]) if chains else 0
    metrics["cli.startup_share"] = ratio(stage_count * setup_s, _median(result["walls"])) \
        if chains else 0.0
    metrics["bench.trace_overhead_share"] = ratio(_median(result["traced_walls"]),
                                                  _median(result["walls"])) - 1
    return metrics


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    output = {"error": None}
    try:
        workload = Workload(spec)
        result = run_loop(workload, spec["seconds"], spec["trace"])
    except Exception:
        output["error"] = traceback.format_exc()
        Path(result_path).write_text(json.dumps(output), encoding="utf-8")
        return 0
    walls = result["walls"]
    if workload.name == "cli-chain":
        peak_kib = max(r for stages in result["stage_walls"] for _, _, r in stages)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    output.update({
        "setup_s": workload.probe.median(),
        "problems": result["problems"],
        "iterations": len(walls),
        "operations": result["operations"],
        "records_per_s": workload.truth["units"] / _median(walls),
        "peak_rss_mb": peak_kib / 1024,
        "walls": walls,
    })
    if spec["trace"] and not result["problems"]:
        output["layers"] = layer_metrics(result, workload)
    Path(result_path).write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
