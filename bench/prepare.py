"""Write one workload's inputs: ``prepare.py SPEC.json TRUTH.json``.

Runs in its own process, so the library work done here (IndiMathQA
manifests, the graded manifest, the cli-chain reference) leaves no memory
high-water mark in the processes that are measured.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys
from pathlib import Path

import gen
import jobs

# Sizes per workload: big enough that per-record work, not interpreter
# start-up, dominates the CLI chain as a whole, small enough for four or five
# chains in a 55 s run. ``--scale`` shrinks them for the self-tests.
SIZES = {
    "prep": 8000,           # cli-chain and library-prep: input problems
    "grade": 3000,          # grade-many: problems in the graded manifest
    "augment_seeds": 1400,  # augment-provider: seed problems
    "augment_target": 1000, # augment-provider: accepted synthetic problems
}
GRADE_MODELS = 6            # grade-many: models, each predicting every problem


def _library_outputs(inp: Path, truth: dict, seed: int, grade: bool):
    scratch = inp / "library"
    scratch.mkdir()
    artifacts, problems, _, merged = jobs.library_prep(inp, scratch, truth, seed)
    if grade:
        graded, grade_problems, _ = jobs.grade_models(merged, inp, scratch, truth)
        artifacts.update(graded)
        problems += grade_problems
    shutil.rmtree(scratch)
    return artifacts, problems, merged


def prepare(workload: str, inp: Path, seed: int, scale: float) -> dict:
    """Write the workload's inputs; returns the truth the output check uses."""
    # Decompose logs one warning per flagged record; set-up output stays quiet.
    logging.getLogger("ganitprep").addHandler(logging.NullHandler())
    size = {name: max(20, int(value * scale)) for name, value in SIZES.items()}

    if workload == "library-prep":
        truth = gen.write_prep_inputs(inp, seed, size["prep"])
        return {**truth, "units": size["prep"], "output_records": size["prep"]}
    if workload == "cli-chain":
        truth = gen.write_prep_inputs(inp, seed, size["prep"])
        for lang, language in (("en", jobs.corpus.Language.ENGLISH),
                               ("hi", jobs.corpus.Language.HINDI)):
            manifest = jobs.indimathqa_manifest(inp / f"imqa_{lang}.jsonl", language)
            jobs.corpus.save_manifest(manifest, inp / f"imqa_{lang}.manifest.jsonl")
        # The reference is the library path: the CLI must reproduce it exactly.
        artifacts, problems, merged = _library_outputs(inp, truth, seed, grade=True)
        return {**truth, "units": size["prep"], "output_records": size["prep"],
                "reference": artifacts, "setup_problems": problems}
    if workload == "grade-many":
        truth = gen.write_prep_inputs(inp, seed, size["grade"], models=gen.MODELS[:GRADE_MODELS])
        _, problems, merged = _library_outputs(inp, truth, seed, grade=False)
        jobs.corpus.save_manifest(merged, inp / "graded.jsonl")
        return {**truth, "units": truth["graded_problems"] * GRADE_MODELS,
                "output_records": len(merged), "setup_problems": problems}
    truth = gen.write_augment_seeds(inp, seed, size["augment_seeds"])
    seeds = jobs.indimathqa_manifest(inp / "seeds.jsonl", jobs.corpus.Language.ENGLISH)
    jobs.corpus.save_manifest(seeds, inp / "seeds.manifest.jsonl")
    return {**truth, "units": size["augment_target"], "output_records": size["augment_target"]}


def main(spec_path: str, truth_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    inp = Path(spec["inputs"])
    inp.mkdir(parents=True)
    truth = prepare(spec["workload"], inp, spec["seed"], spec["scale"])
    Path(truth_path).write_text(json.dumps(truth), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
