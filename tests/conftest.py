import json
from pathlib import Path

import pytest

from ganitprep import corpus
from ganitprep.corpus import CorpusManifest, Language, Problem, Source, SourceFormat

DATA_DIR = Path(__file__).parent / "data"


def make_problem(pid, language=Language.ENGLISH, source=Source.GSM8K,
                 question="How many?", **kwargs):
    if source is Source.MATH and "math_level" not in kwargs:
        kwargs["math_level"] = 1
    return Problem(id=pid, language=language, source=source, question=question,
                   **kwargs)


def make_manifest(problems, source_format=SourceFormat.MIXED, created_at="2024-01-01T00:00:00+00:00"):
    return CorpusManifest.from_records(problems, source_format, created_at=created_at)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_record_lines(path, lines) -> None:
    """A manifest file holding ``lines`` as records, under a valid header."""
    header = {"format": corpus.MANIFEST_FORMAT, "version": corpus.MANIFEST_VERSION,
              "source_format": "mixed", "created_at": "2024-01-01T00:00:00+00:00",
              "count": len(lines), "checksum": corpus._lines_checksum(lines)}
    path.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")


@pytest.fixture
def data_dir():
    return DATA_DIR
