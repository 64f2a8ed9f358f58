"""One-off run at the ROADMAP baseline size: ``python3 bench/roadmap100k.py [--size N]``.

Not a workload. Builds N HAWP-style Mul/Div problems (default 100,000) with
the benchmark's generator and times, in one process, each layer of the
ROADMAP open-items table: ``CorpusManifest.from_records`` (and its
checksum), ``rank_bottom_k``, ``apply_decomposition``, ``save_manifest``,
``load_manifest``, ``split``, ``export_stage`` and ``grade_predictions``.
Prints one line per layer: inclusive wall time and records per second.
Run from the repository root; inputs go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import logging
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
from ganitprep import classify, corpus, curriculum, decompose, evaluate  # noqa: E402


def timed(label: str, records: int, call):
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    print(f"{label:<32} {wall:8.2f} s  {records / wall:10,.0f} records/s", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    logging.getLogger("ganitprep").addHandler(logging.NullHandler())

    work = ROOT / ".bench_work" / f"roadmap-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rng = random.Random(f"roadmap:{args.seed}")
        rows, truths = [], {}
        for index in range(args.size):
            row, truth = gen.hawp_record(rng, ("mul", "div")[index % 2], flagged=False)
            rows.append(row)
            truths[f"hawp-{index + 1:06d}"] = truth
        gen.write_jsonl(work / "hawp.jsonl", rows)
        gen.write_predictions(work / "pred.tsv", rng, truths, 0.75)
        n = args.size

        manifest = timed("ingest_hawp", n, lambda: corpus.ingest_hawp(work / "hawp.jsonl"))
        timed("CorpusManifest.from_records", n, lambda: corpus.CorpusManifest.from_records(
            manifest.records, manifest.source_format, created_at=manifest.created_at))
        timed("  records_checksum", n, lambda: corpus.records_checksum(manifest.records))
        manifest = timed("rank_bottom_k", n, lambda: classify.rank_bottom_k(manifest, n * 2 // 5))
        medium = {p.id: corpus.Difficulty.MEDIUM for p in manifest
                  if p.difficulty is corpus.Difficulty.UNCLASSIFIED}
        manifest = timed("apply_annotations", n,
                         lambda: classify.apply_annotations(manifest, medium).manifest)
        manifest = timed("apply_decomposition", n,
                         lambda: decompose.apply_decomposition(manifest).manifest)
        timed("save_manifest", n, lambda: corpus.save_manifest(manifest, work / "m.jsonl"))
        manifest = timed("load_manifest", n, lambda: corpus.load_manifest(work / "m.jsonl"))
        assignment = timed("split", n, lambda: curriculum.split(manifest, seed=args.seed))
        built = timed("build_curriculum", n,
                      lambda: curriculum.build_curriculum(manifest, assignment))
        for stage in built.stages:
            count = len(stage.train_ids)
            timed(f"export_stage {stage.name}", count, lambda: curriculum.export_stage(
                built, stage.name, manifest, work / "train.jsonl", seed=args.seed))
        predictions = timed("read_predictions", n,
                            lambda: evaluate.read_predictions(work / "pred.tsv"))
        timed("grade_predictions", n,
              lambda: evaluate.grade_predictions(predictions, manifest, "model-a"))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"peak RSS {peak:.0f} MB, Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:  # only when no other run is using it
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
