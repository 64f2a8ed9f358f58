"""The paper's preparation chain over the bundled fixtures, as stage commands.

``run`` runs the rows of :data:`STAGES` in order: ingest, classify by
difficulty, decompose HAWP's Mul/Div solutions, pair and merge, split, build
the Easy -> Easy+Medium curriculum, export each stage, and grade. Each row is
parsed by ``cli.build_parser()`` and run by its handler, as ``cli.main`` runs
it, so ``ganitprep demo`` runs the code that the stage commands run.
"""

from __future__ import annotations

import dataclasses
import tempfile
from importlib import resources
from pathlib import Path

from ganitprep import cli

DEMO_DATA_DIR = Path(str(resources.files("ganitprep") / "data" / "demo"))

# (label, command): the stage commands, in order. In a command, {data} is
# DEMO_DATA_DIR, {tmp} a directory for the per-corpus files, removed after
# the run, and {out} the output directory.
STAGES = (
    ("ingest-gsm8k", "ingest --format gsm8k --in {data}/gsm8k.jsonl --out {tmp}/gsm8k.jsonl"),
    ("ingest-math", "ingest --format math --in {data}/math.jsonl --out {tmp}/math.jsonl"),
    ("ingest-hawp", "ingest --format hawp --in {data}/hawp.jsonl --out {tmp}/hawp.jsonl"),
    ("ingest-indimathqa-en", "ingest --format indimathqa-en "
                             "--in {data}/indimathqa_en.jsonl --out {tmp}/imqa_en.jsonl"),
    ("ingest-indimathqa-hi", "ingest --format indimathqa-hi "
                             "--in {data}/indimathqa_hi.jsonl --out {tmp}/imqa_hi.jsonl"),
    ("classify-gsm8k", "classify --in {tmp}/gsm8k.jsonl --score --bottom-k 10 "
                       "--out {tmp}/gsm8k_c.jsonl"),
    ("classify-math", "classify --in {tmp}/math.jsonl --math-levels --out {tmp}/math_c.jsonl"),
    ("classify-indimathqa-en", "classify --in {tmp}/imqa_en.jsonl "
                               "--annotations {data}/annotations_en.tsv "
                               "--out {tmp}/imqa_en_c.jsonl"),
    ("classify-indimathqa-hi", "classify --in {tmp}/imqa_hi.jsonl "
                               "--annotations {data}/annotations_hi.tsv "
                               "--out {tmp}/imqa_hi_c.jsonl"),
    # HAWP is decomposed but not merged: its problems carry no difficulty
    # label, so in the merge they would only add Unclassified rows that no
    # curriculum stage trains on and no prediction grades.
    ("decompose", "decompose --in {tmp}/hawp.jsonl --out {out}/hawp_decomposed.jsonl"),
    ("pair", "curriculum pair --en {tmp}/imqa_en_c.jsonl --hi {tmp}/imqa_hi_c.jsonl "
             "--key byindex --out {tmp}/paired.jsonl"),
    ("merge", "curriculum merge --in {tmp}/gsm8k_c.jsonl {tmp}/math_c.jsonl "
              "{tmp}/paired.jsonl --out {out}/merged.jsonl"),
    ("split", "curriculum split --in {out}/merged.jsonl --seed 7 --ratio 0.7 "
              "--out {out}/split.json"),
    ("build", "curriculum build --in {out}/merged.jsonl --split {out}/split.json "
              "--mode bilingual --out {out}/curriculum.json"),
    ("export-SFT_easy", "curriculum export --curriculum {out}/curriculum.json "
                        "--manifest {out}/merged.jsonl --stage SFT_easy --seed 7 "
                        "--out {out}/train_SFT_easy.jsonl"),
    ("export-SFT_easy+medium", "curriculum export --curriculum {out}/curriculum.json "
                               "--manifest {out}/merged.jsonl --stage SFT_easy+medium "
                               "--seed 7 --out {out}/train_SFT_easy_medium.jsonl"),
    ("emit-config", "structure emit-config --out {out}/training_config.txt"),
    ("grade", "evaluate grade --pred {data}/predictions.tsv --manifest {out}/merged.jsonl "
              "--model demo-model --out {out}/grades.jsonl"),
    ("evaluate", "evaluate report --grades {out}/grades.jsonl --manifest {out}/merged.jsonl "
                 "--out {out}/report.txt"),
)


def run(out_dir) -> tuple[cli.StageSummary, ...]:
    """Run :data:`STAGES` over the bundled fixtures, writing ten files into
    ``out_dir``, and return each command's summary named by its row's label.

    Nothing is printed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parser = cli.build_parser()
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command in STAGES:
            args = parser.parse_args([arg.format(data=DEMO_DATA_DIR, tmp=tmp, out=out_dir)
                                      for arg in command.split()])
            summaries.append(dataclasses.replace(args.func(args), name=label))
    return tuple(summaries)
