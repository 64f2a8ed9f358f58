#!/usr/bin/env python3
"""Ingest the bundled corpora and show manifest persistence guarantees.

Each external layout (grade-school QA, leveled competition records, Hindi
single-operator word problems) lands in the same internal manifest: an
ordered, checksummed record list that round-trips byte-for-byte and rejects
corrupted files at load time.
"""

import tempfile
from pathlib import Path

from ganitprep.cli import DEMO_PLAN
from ganitprep.corpus import (
    ingest_gsm8k,
    ingest_hawp,
    ingest_math,
    load_manifest,
    save_manifest,
)
from ganitprep.errors import PipelineError

fixtures = DEMO_PLAN.parent  # the bundled corpora sit beside the demo plan
gsm8k = ingest_gsm8k(fixtures / "gsm8k.jsonl")
math = ingest_math(fixtures / "math.jsonl")
hawp = ingest_hawp(fixtures / "hawp.jsonl")

print("=== ingested corpora ===")
for name, manifest in (("grade-school", gsm8k), ("competition", math),
                       ("Hindi word problems", hawp)):
    first = manifest.records[0]
    print(f"{name}: {len(manifest)} problems, first id {first.id},"
          f" language {first.language.value}")

print()
print("=== sample records ===")
print("question:", gsm8k.records[0].question)
print("solution:", gsm8k.records[0].raw_solution.replace("\n", " | "))
print("question:", hawp.records[16].question)
print("operation tag:", hawp.records[16].operation.value)

print()
print("=== persistence round trip ===")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "manifest.jsonl"
    save_manifest(math, path)
    reloaded = load_manifest(path)
    print("round trip equal:", reloaded == math)
    print("checksum:", math.checksum[:23], "...")

    corrupted = path.read_bytes().replace(b"Level 1", b"Level 2", 1)
    broken = Path(tmp) / "broken.jsonl"
    broken.write_bytes(corrupted)
    try:
        load_manifest(broken)
    except PipelineError as exc:
        print("corrupted file rejected:", str(exc)[:60], "...")
