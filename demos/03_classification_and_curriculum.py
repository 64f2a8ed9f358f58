#!/usr/bin/env python3
"""Classify corpora, build the stratified split, and stage the curriculum.

Difficulty arrives three ways: published levels map deterministically,
unleveled corpora are scored on five criteria and cut bottom-k, and curated
sets carry human annotations. The split is stratified and pair-co-assigned;
the two training stages chain checkpoints SFT_easy -> SFT_easy+medium.
"""

import tempfile
from importlib import resources
from pathlib import Path

from ganitprep.classify import (
    apply_annotations,
    apply_math_levels,
    rank_bottom_k,
    read_annotations,
    score_complexity,
)
from ganitprep.corpus import (
    Difficulty,
    Language,
    ingest_gsm8k,
    ingest_indimathqa,
    ingest_math,
)
from ganitprep.curriculum import (
    PairKey,
    build_curriculum,
    export_stage,
    merge_sources,
    pair_bilingual,
    split,
)

data = Path(str(resources.files("ganitprep") / "data" / "demo"))

gsm8k = ingest_gsm8k(data / "gsm8k.jsonl")
math = ingest_math(data / "math.jsonl")
imqa_en = ingest_indimathqa(data / "indimathqa_en.jsonl", Language.ENGLISH)
imqa_hi = ingest_indimathqa(data / "indimathqa_hi.jsonl", Language.HINDI)

print("=== complexity scoring ===")
for problem in (gsm8k.records[0], gsm8k.records[23]):
    score = score_complexity(problem)
    print(f"{problem.id}: total {score.total:.2f} "
          f"(language {score.language_understanding:.2f}, "
          f"math {score.mathematical_complexity:.2f}, "
          f"reasoning {score.reasoning_complexity:.2f})")

gsm8k = rank_bottom_k(gsm8k, 10)
math = apply_math_levels(math)
annotations = read_annotations(data / "annotations.tsv")
imqa_en = apply_annotations(imqa_en, {k: v for k, v in annotations.items()
                                      if k.endswith("-en")}).manifest
imqa_hi = apply_annotations(imqa_hi, {k: v for k, v in annotations.items()
                                      if k.endswith("-hi")}).manifest

paired = pair_bilingual(imqa_en, imqa_hi, PairKey.BY_INDEX)
merged = merge_sources([gsm8k, math, paired]).manifest
print()
print("=== merged corpus ===")
for difficulty, count in sorted(merged.difficulty_counts().items(),
                                key=lambda item: item[0].value):
    print(f"{difficulty.value}: {count}")

assignment = split(merged, seed=7)
print()
print("=== stratified 70/30 split ===")
for (source, difficulty, language), (train, test) in sorted(assignment.strata.items()):
    print(f"{source:<10} {difficulty:<12} {language:<8} train={train:<3} test={test}")

curriculum = build_curriculum(merged, assignment)
print()
print("=== curriculum stages ===")
for stage in curriculum.stages:
    parent = stage.parent_checkpoint or "(fresh model)"
    print(f"{stage.name}: {len(stage.train_ids)} training problems,"
          f" parent checkpoint {parent}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "stage.jsonl"
    outcome = export_stage(curriculum, "SFT_easy", merged, out, seed=7)
    record = out.read_text(encoding="utf-8").splitlines()[1]
    print()
    print(f"exported {outcome.exported} instruction-tuning records; first record"
          f" begins: {record[:80]} ...")
