#!/usr/bin/env python3
"""Render the fixed prompt templates and run a mock augmentation round.

The fine-tuning prompt is a frozen fixture (instruction/response markers
plus a caution against repeating bad arithmetic). Augmentation cycles seed
problems through the provider, keeps only generations that parse into a
question/answer block, and gates everything behind a review status.
"""

import tempfile

from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Problem,
    Source,
    SourceFormat,
    passes_review,
)
from ganitprep.llm_client import (
    MockProvider,
    augment_batch,
    set_review_status,
    write_mock_fixture,
)
from ganitprep.structure import (
    PromptName,
    emit_training_config,
    get_template,
    render_prompt,
)

print("=== fine-tuning prompt ===")
print(render_prompt(get_template(PromptName.FINE_TUNE),
                    {"Question": "What is 6 x 7?", "Response": "6 x 7 = 42"}))

print("=== augmentation prompt ===")
augment = get_template(PromptName.AUGMENT)
prompt = render_prompt(augment, {
    "Example": "A box holds 6 eggs. How many eggs are in 4 boxes?",
    "refined_solution": "6 x 4 = 24\n#### 24",
    "Question": "",
})
print(prompt)

seeds = [
    Problem(id=f"seed-{i}", language=Language.ENGLISH, source=Source.GSM8K,
            question=f"A box holds {i + 2} eggs. How many eggs are in 4 boxes?",
            raw_solution=f"{i + 2} x 4 = {(i + 2) * 4}\n#### {(i + 2) * 4}",
            difficulty=Difficulty.EASY)
    for i in range(4)
]
manifest = CorpusManifest.from_records(seeds, SourceFormat.GSM8K,
                                       created_at="2024-01-01T00:00:00+00:00")

print("=== mock augmentation round ===")
with tempfile.TemporaryDirectory() as tmp:
    for seed in seeds:
        seed_prompt = render_prompt(augment, {
            "Example": seed.question,
            "refined_solution": seed.raw_solution,
            "Question": "",
        })
        write_mock_fixture(tmp, seed_prompt,
                           f"Question: A crate holds {len(seed.question)} apples. "
                           f"How many apples are in 3 crates?\n"
                           f"Answer: {len(seed.question) * 3}")
    outcome = augment_batch(manifest, augment, 4, MockProvider(tmp))
    print(f"attempts={outcome.attempts} kept={len(outcome.manifest)} "
          f"discarded={outcome.discarded}")
    for problem in outcome.manifest:
        print(f"  {problem.id} (seed {problem.extras['seed_id']}, "
              f"review {problem.extras['review_status']})")

    reviewed = set_review_status(outcome.manifest,
                                 {"syn-000001": "approved", "syn-000002": "corrected"})
    print("after review gate:", [p.id for p in reviewed if passes_review(p)])

with tempfile.NamedTemporaryFile(mode="r", suffix=".txt") as handle:
    emit_training_config(handle.name)
    print()
    print("=== training config ===")
    print(handle.read())
