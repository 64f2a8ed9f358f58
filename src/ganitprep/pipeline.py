"""The paper's preparation chain over the bundled fixtures, run in one process.

``run`` ingests the four corpora under :data:`DEMO_DATA_DIR`, classifies
them by difficulty, decomposes HAWP's Mul/Div solutions by place value,
pairs and merges the corpora, splits the result, stages the Easy ->
Easy+Medium curriculum, exports each stage for fine-tuning, and grades the
bundled predictions. ``ganitprep demo`` is ``run``; the stage commands run
the same chain on other inputs and settings, one process per stage.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

from ganitprep import classify, corpus, curriculum, decompose, evaluate, structure
from ganitprep.common import StageSummary, write_text_atomic

DEMO_DATA_DIR = Path(str(resources.files("ganitprep") / "data" / "demo"))
_SEED = 7  # of the split and of each stage's export order


class RunOutcome(NamedTuple):
    merged: corpus.CorpusManifest
    split: curriculum.SplitAssignment
    curriculum: curriculum.CurriculumManifest
    stages: tuple[StageSummary, ...]


def run(out_dir) -> RunOutcome:
    """Run the chain over the bundled fixtures, writing ten files into ``out_dir``.

    Nothing is printed. The split is 70/30 with seed 7, and the curriculum
    is bilingual and not cumulative. GSM8K's ten
    lowest-complexity problems (all of them, if fewer) become Easy, MATH
    maps its published levels, and IndiMathQA takes the one annotation
    file, whose ids end in ``-en`` or ``-hi``. HAWP is decomposed and
    written to ``hawp_decomposed.jsonl`` but not merged: its problems carry
    no difficulty label, so in the merge they would only add Unclassified
    rows that no curriculum stage trains on and no prediction grades.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = []

    gsm8k = corpus.ingest_gsm8k(DEMO_DATA_DIR / "gsm8k.jsonl")
    stages.append(StageSummary("ingest-gsm8k", len(gsm8k), len(gsm8k)))
    math = corpus.ingest_math(DEMO_DATA_DIR / "math.jsonl")
    stages.append(StageSummary("ingest-math", len(math), len(math)))
    hawp = corpus.ingest_hawp(DEMO_DATA_DIR / "hawp.jsonl")
    stages.append(StageSummary("ingest-hawp", len(hawp), len(hawp)))
    imqa_en = corpus.ingest_indimathqa(DEMO_DATA_DIR / "indimathqa_en.jsonl",
                                       corpus.Language.ENGLISH)
    imqa_hi = corpus.ingest_indimathqa(DEMO_DATA_DIR / "indimathqa_hi.jsonl",
                                       corpus.Language.HINDI)
    imqa_total = len(imqa_en) + len(imqa_hi)
    stages.append(StageSummary("ingest-indimathqa", imqa_total, imqa_total))

    gsm8k = classify.rank_bottom_k(gsm8k, k=min(10, len(gsm8k)))
    math = classify.apply_math_levels(math)
    annotations = classify.read_annotations(DEMO_DATA_DIR / "annotations.tsv")
    en_notes = {k: v for k, v in annotations.items() if k.endswith("-en")}
    hi_notes = {k: v for k, v in annotations.items() if k.endswith("-hi")}
    imqa_en = classify.apply_annotations(imqa_en, en_notes).manifest
    imqa_hi = classify.apply_annotations(imqa_hi, hi_notes).manifest
    classified_total = len(gsm8k) + len(math) + imqa_total
    stages.append(StageSummary("classify", classified_total, classified_total))

    decomposed = decompose.apply_decomposition(hawp)
    corpus.save_manifest(decomposed.manifest, out_dir / "hawp_decomposed.jsonl")
    stages.append(decomposed.summary("decompose"))

    paired = curriculum.pair_bilingual(imqa_en, imqa_hi, curriculum.PairKey.BY_INDEX)
    merged = curriculum.merge_sources([gsm8k, math, paired]).manifest
    corpus.save_manifest(merged, out_dir / "merged.jsonl")
    stages.append(StageSummary("merge", len(gsm8k) + len(math) + len(paired), len(merged)))

    assignment = curriculum.split(merged, seed=_SEED, ratio=0.70)
    curriculum.save_split(assignment, out_dir / "split.json")
    stages.append(StageSummary("split", len(merged), len(assignment.assignments)))

    built = curriculum.build_curriculum(merged, assignment,
                                         mode=curriculum.TrainingMode.BILINGUAL_COMBINED,
                                         cumulative=False)
    curriculum.save_curriculum(built, out_dir / "curriculum.json")
    stages.append(StageSummary("build", len(merged),
                               sum(len(stage.train_ids) for stage in built.stages)))

    for stage in built.stages:
        safe = stage.name.replace("+", "_")
        export = curriculum.export_stage(built, stage.name, merged,
                                         out_dir / f"train_{safe}.jsonl", seed=_SEED)
        stages.append(export.summary(f"export-{stage.name}"))
    structure.emit_training_config(out_dir / "training_config.txt")

    predictions = evaluate.read_predictions(DEMO_DATA_DIR / "predictions.tsv")
    grades = evaluate.grade_predictions(predictions, merged, "demo-model")
    evaluate.save_grades(grades, out_dir / "grades.jsonl")
    report = evaluate.accuracy_report(grades, merged)
    table = report.render_table()
    write_text_atomic(out_dir / "report.txt", table)
    write_text_atomic(out_dir / "report.csv", report.to_csv())
    stages.append(StageSummary("evaluate", len(grades), len(report.cells), text=table))
    return RunOutcome(merged, assignment, built, tuple(stages))
