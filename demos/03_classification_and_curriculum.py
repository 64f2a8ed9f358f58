#!/usr/bin/env python3
"""Classify corpora, build the stratified split, and stage the curriculum.

Difficulty arrives three ways: published levels map deterministically,
unleveled corpora are scored on five criteria and cut bottom-k, and curated
sets carry human annotations. The split is stratified and pair-co-assigned;
the two training stages chain checkpoints SFT_easy -> SFT_easy+medium.
``ganitprep run --out DIR`` does all of it over the bundled corpora, running
the stage commands of the bundled plan; this script runs it, reads back what
it wrote and prints it.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from ganitprep.classify import score_complexity
from ganitprep.cli import main
from ganitprep.corpus import load_manifest
from ganitprep.curriculum import load_curriculum, load_split

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    with contextlib.redirect_stdout(io.StringIO()):  # the stage lines
        status = main(["run", "--out", str(out)])
    if status:
        raise SystemExit(status)
    merged = load_manifest(out / "merged.jsonl")
    split = load_split(out / "split.json")
    curriculum = load_curriculum(out / "curriculum.json")
    exported = (out / "train_SFT_easy.jsonl").read_text(encoding="utf-8").splitlines()[1:]

print("=== complexity scoring ===")
for problem in (merged.records[0], merged.records[23]):
    score = score_complexity(problem)
    print(f"{problem.id}: total {score.total:.2f} "
          f"(language {score.language_understanding:.2f}, "
          f"math {score.mathematical_complexity:.2f}, "
          f"reasoning {score.reasoning_complexity:.2f})")

print()
print("=== merged corpus ===")
for difficulty, count in sorted(merged.difficulty_counts().items(),
                                key=lambda item: item[0].value):
    print(f"{difficulty.value}: {count}")

print()
print("=== stratified 70/30 split ===")
for (source, difficulty, language), (train, test) in sorted(split.strata.items()):
    print(f"{source:<10} {difficulty:<12} {language:<8} train={train:<3} test={test}")

print()
print("=== curriculum stages ===")
for stage in curriculum.stages:
    parent = stage.parent_checkpoint or "(fresh model)"
    print(f"{stage.name}: {len(stage.train_ids)} training problems,"
          f" parent checkpoint {parent}")

print()
print(f"exported {len(exported)} instruction-tuning records; first record"
      f" begins: {exported[0][:80]} ...")
