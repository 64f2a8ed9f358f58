"""Problem model, corpus ingestion, and line-delimited manifest persistence.

Four external corpus layouts are supported, all UTF-8 JSONL:

* grade-school QA records: ``{"question", "answer"}`` where the answer text
  ends with a final-answer marker line beginning ``"#### "``;
* competition records: ``{"problem", "level", "type", "solution"}`` with
  level strings like ``"Level 3"``;
* Hindi word-problem records: ``{"question", "operation"}`` plus an optional
  ``"solution"``, the operation tag being one of add/sub/mul/div
  (case-insensitive);
* curated bilingual records: ``{"id", "question"}`` plus an optional
  ``"solution"`` and ``"topic"``, one file per language, the ids carrying
  over into the manifest.

One loop reads them all, driven by a per-layout table of field names; only
the marker, level and operation-tag checks are layout-specific.

Internally every corpus is a :class:`CorpusManifest`: an immutable, ordered,
checksummed tuple of :class:`Problem` records. Manifests persist as one JSON
object per line behind a single JSON header line carrying the format version
and a sha256 checksum over the record lines. The checksum is derived from
the records and computed at most once per manifest. Save makes one pass
and holds one record line at a time: every header field but the checksum
is known up front and the checksum has a fixed width (``sha256:`` and 64 hex
digits), so a placeholder header of the final length goes first, each
record is then serialised, hashed and written once, and the real header is
written over the placeholder. Load hashes each record line as it reads it
and checks the checksum over the lines as read, so a stale, corrupted or
hand-edited file is rejected. A loaded manifest is the one copy of its
records a stage holds; every other stream (predictions, grades) is read one
line at a time. Every line-delimited artifact (manifests, grades, training
exports) goes through one canonical encoder (sorted keys, raw UTF-8, no
spaces) and one line writer; split and curriculum files are sorted-key UTF-8
JSON indented by one space, encoded straight to the file.

Question and solution text is normalized to Unicode NFC at ingestion so
Devanagari text from mixed sources compares stably. Unknown fields in source
records are preserved in the ``extras`` map.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ganitprep.common import (
    Difficulty,
    Language,
    Operation,
    Source,
    canonical_json,
    write_lines_atomic,
)
from ganitprep.errors import MALFORMED, PipelineError, check_json_object, naming, numbered_lines
from ganitprep.structure import StructuredSolution

MANIFEST_FORMAT = "ganitprep/manifest"
MANIFEST_VERSION = 1


class SourceFormat(Enum):
    GSM8K = "gsm8k"
    MATH = "math"
    HAWP = "hawp"
    INDIMATHQA = "indimathqa"
    SYNTHETIC = "synthetic"
    MIXED = "mixed"


# value -> member for each enum a record persists; a plain dict lookup costs
# a fraction of an ``Enum(value)`` call.
_MEMBERS = {enum: {member.value: member for member in enum}
            for enum in (Language, Source, Difficulty, Operation)}


def _decode(enum: type[Enum], value):
    try:
        return _MEMBERS[enum][value]
    except (KeyError, TypeError):  # unknown or unhashable value
        return enum(value)  # raises the Enum's own ValueError


# (field, JSON type, may be null) for each field a record persists but the enums,
# checked at load; the exact type, so a bool is no int.
_FIELD_TYPES = (("id", str, False), ("question", str, False), ("pair_id", str, False),
                ("raw_solution", str, True), ("topic", str, True),
                ("math_level", int, True), ("extras", dict, False),
                ("structured_solution", dict, True))


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True, slots=True)
class Problem:
    id: str
    language: Language
    source: Source
    question: str
    pair_id: str = ""
    raw_solution: str | None = None
    structured_solution: StructuredSolution | None = None
    difficulty: Difficulty = Difficulty.UNCLASSIFIED
    topic: str | None = None
    operation: Operation = Operation.NONE
    math_level: int | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise PipelineError("problem id must be nonempty")
        if self.source is Source.MATH:
            if self.math_level is None or not 1 <= self.math_level <= 5:
                raise PipelineError(
                    f"problem {self.id}: MATH source requires math_level in 1..5, "
                    f"got {self.math_level!r}"
                )
        elif self.math_level is not None:
            raise PipelineError(
                f"problem {self.id}: math_level is only valid for MATH source"
            )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "pair_id": self.pair_id,
            "language": self.language.value,
            "source": self.source.value,
            "question": self.question,
            "raw_solution": self.raw_solution,
            "structured_solution": (
                self.structured_solution.to_dict() if self.structured_solution else None
            ),
            "difficulty": self.difficulty.value,
            "topic": self.topic,
            "operation": self.operation.value,
            "math_level": self.math_level,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Problem":
        for name, kind, nullable in _FIELD_TYPES:
            if name in data:
                value = data[name]
                if type(value) is not kind and not (nullable and value is None):
                    raise PipelineError(f"field {name!r} must be {kind.__name__}"
                                        f"{' or null' if nullable else ''}, "
                                        f"not {type(value).__name__}")
        structured = data.get("structured_solution")
        return cls(
            id=data["id"],
            pair_id=data.get("pair_id", ""),
            language=_decode(Language, data["language"]),
            source=_decode(Source, data["source"]),
            question=data["question"],
            raw_solution=data.get("raw_solution"),
            structured_solution=(
                StructuredSolution.from_dict(structured) if structured is not None else None
            ),
            difficulty=_decode(Difficulty, data.get("difficulty", "Unclassified")),
            topic=data.get("topic"),
            operation=_decode(Operation, data.get("operation", "None")),
            math_level=data.get("math_level"),
            extras=data.get("extras", {}),
        )


# Review gate on synthetic problems, kept in ``extras["review_status"]``.
REVIEW_PENDING = "pending"
REVIEW_APPROVED = "approved"
REVIEW_CORRECTED = "corrected"
REVIEW_STATUSES = (REVIEW_PENDING, REVIEW_APPROVED, REVIEW_CORRECTED)


def passes_review(problem: Problem) -> bool:
    """Approved or corrected; a problem without a review gate passes."""
    return problem.extras.get("review_status", REVIEW_APPROVED) in (REVIEW_APPROVED,
                                                                    REVIEW_CORRECTED)


def _record_line(problem: Problem) -> str:
    return canonical_json(problem.to_dict())


def _lines_checksum(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return "sha256:" + digest.hexdigest()


def records_checksum(records: Iterable[Problem]) -> str:
    return _lines_checksum(map(_record_line, records))


def _validate_records(records: tuple[Problem, ...]) -> None:
    seen: set[str] = set()
    pairs: dict[str, list[Problem]] = {}
    for problem in records:
        if problem.id in seen:
            raise PipelineError(f"duplicate problem id: {problem.id}")
        seen.add(problem.id)
        if problem.pair_id:
            pairs.setdefault(problem.pair_id, []).append(problem)
    for pair_id, members in pairs.items():
        languages = {p.language for p in members}
        if len(languages) != len(members):
            raise PipelineError(f"pair {pair_id}: members must have distinct languages")
        if len({p.source for p in members}) != 1:
            raise PipelineError(f"pair {pair_id}: members must share one source")
        if len({p.difficulty for p in members}) != 1:
            raise PipelineError(f"pair {pair_id}: members must share one difficulty")


@dataclass(frozen=True)
class CorpusManifest:
    records: tuple[Problem, ...]
    source_format: SourceFormat
    created_at: str

    def __post_init__(self):
        _validate_records(self.records)

    @classmethod
    def from_records(cls, records: Iterable[Problem], source_format: SourceFormat,
                     created_at: str) -> "CorpusManifest":
        return cls(tuple(records), source_format, created_at)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Problem]:
        return iter(self.records)

    @cached_property
    def checksum(self) -> str:
        return records_checksum(self.records)

    def by_id(self, problem_id: str) -> Problem:
        try:
            return self._index[problem_id]
        except KeyError:
            raise PipelineError(f"no problem with id {problem_id!r}") from None

    @cached_property
    def _index(self) -> dict[str, Problem]:
        return {p.id: p for p in self.records}

    def difficulty_counts(self) -> dict[Difficulty, int]:
        counts = {d: 0 for d in Difficulty}
        for problem in self.records:
            counts[problem.difficulty] += 1
        return {d: n for d, n in counts.items() if n}


def replace_records(manifest: CorpusManifest, records: Iterable[Problem]) -> CorpusManifest:
    """New manifest with the given records; source format and created_at carry over."""
    return CorpusManifest.from_records(records, manifest.source_format,
                                       created_at=manifest.created_at)


def save_manifest(manifest: CorpusManifest, path) -> None:
    # One pass: each record is serialised once, hashed and written. The header
    # goes first as a placeholder holding the empty input's digest, which has
    # the same width as the final one, and is overwritten once the last line
    # is hashed; that checksum becomes the manifest's cached one.
    digest = hashlib.sha256()

    def record_lines() -> Iterator[str]:
        for problem in manifest.records:
            line = _record_line(problem)
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
            yield line

    def header() -> str:
        return canonical_json({
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "source_format": manifest.source_format.value,
            "created_at": manifest.created_at,
            "count": len(manifest.records),
            "checksum": "sha256:" + digest.hexdigest(),
        })

    write_lines_atomic(path, record_lines(), header)
    manifest.__dict__["checksum"] = "sha256:" + digest.hexdigest()


_HEADER_TYPES = {"format": str, "version": int, "source_format": str, "created_at": str,
                 "count": int, "checksum": str}


def load_manifest(path) -> CorpusManifest:
    lines = numbered_lines(path, "record")
    _, _, header = next(lines, (0, "", None))
    if header is None:
        raise PipelineError(f"{path}: empty manifest file")
    with naming(path, "manifest header"):
        check_json_object(header, _HEADER_TYPES, "manifest header")
    if header.get("format") != MANIFEST_FORMAT:
        raise PipelineError(f"{path}: not a manifest file (format {header.get('format')!r})")
    if header.get("version") != MANIFEST_VERSION:
        raise PipelineError(f"{path}: unsupported manifest version {header.get('version')!r}")
    records = []

    def record_lines() -> Iterator[str]:
        for lineno, line, data in lines:
            try:
                records.append(Problem.from_dict(data))
            # MALFORMED: a missing key, an unknown enum value, a malformed answer.
            except (PipelineError, *MALFORMED) as exc:
                raise PipelineError(f"{path}:{lineno}: unreadable record: {exc}") from exc
            yield line

    # The record lines as read, hashed one at a time, not a re-serialisation
    # of the parsed records.
    checksum = _lines_checksum(record_lines())
    if header.get("count") != len(records):
        raise PipelineError(
            f"{path}: header count {header.get('count')} != {len(records)} records"
        )
    if checksum != header.get("checksum"):
        raise PipelineError(
            f"{path}: checksum mismatch (header {header.get('checksum')}, "
            f"recomputed {checksum})"
        )
    with naming(path, "manifest header"):
        return CorpusManifest.from_records(
            records,
            SourceFormat(header["source_format"]),
            created_at=header["created_at"],
        )


def file_created_at(path) -> str:
    # Derived from the source file, not the wall clock, so re-running an
    # ingest over the same input produces byte-identical output.
    mtime = Path(path).stat().st_mtime
    return datetime.fromtimestamp(mtime, tz=timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class _Layout:
    """How one external JSONL layout maps onto :class:`Problem` fields.

    Every field named here is consumed; any other field of a record is kept
    in ``extras``.
    """

    source: Source
    source_format: SourceFormat
    required: tuple[str, ...]  # nonblank string fields, checked in this order
    question: str
    solution: str
    id_prefix: str | None = None  # None: the record's own "id" field
    topic: str | None = None
    # Layout-specific validation returning extra Problem fields.
    check: Callable[[dict], dict] | None = None


_FINAL_MARKER_RE = re.compile(r"^#### ", re.MULTILINE)


def _check_gsm8k(record: dict) -> dict:
    if not _FINAL_MARKER_RE.search(record["answer"]):
        raise PipelineError("no final-answer marker")
    return {}


_LEVEL_RE = re.compile(r"^\s*Level\s+(\d+)\s*$")


def _check_math(record: dict) -> dict:
    level_text = record["level"]
    match = _LEVEL_RE.match(level_text)
    if not match:
        raise PipelineError(f"unparseable level {level_text!r}")
    level = int(match.group(1))
    if not 1 <= level <= 5:
        raise PipelineError(f"level {level} outside 1..5")
    return {"math_level": level}


_OPERATION_TAGS = {
    "add": Operation.ADD,
    "sub": Operation.SUB,
    "mul": Operation.MUL,
    "div": Operation.DIV,
}


def _check_hawp(record: dict) -> dict:
    tag = record["operation"]
    operation = _OPERATION_TAGS.get(tag.strip().lower())
    if operation is None:
        valid = ", ".join(sorted(_OPERATION_TAGS))
        raise PipelineError(f"unknown operation tag {tag!r} (valid tags: {valid})")
    return {"operation": operation}


_GSM8K = _Layout(Source.GSM8K, SourceFormat.GSM8K, ("question", "answer"),
                 question="question", solution="answer", id_prefix="gsm8k",
                 check=_check_gsm8k)
_MATH = _Layout(Source.MATH, SourceFormat.MATH, ("problem", "level", "solution"),
                question="problem", solution="solution", id_prefix="math",
                topic="type", check=_check_math)
_HAWP = _Layout(Source.HAWP, SourceFormat.HAWP, ("question", "operation"),
                question="question", solution="solution", id_prefix="hawp",
                check=_check_hawp)
_INDIMATHQA = _Layout(Source.INDIMATHQA, SourceFormat.INDIMATHQA, ("id", "question"),
                      question="question", solution="solution", topic="topic")


def _ingest(path, layout: _Layout, language: Language) -> CorpusManifest:
    consumed = {layout.question, layout.solution, layout.topic, *layout.required}
    records = []
    for lineno, _, record in numbered_lines(path, "record"):
        try:
            for name in layout.required:
                value = record.get(name)
                if not isinstance(value, str) or not value.strip():
                    raise PipelineError(f"missing field {name!r}")
            fields = layout.check(record) if layout.check else {}
        except PipelineError as exc:
            raise PipelineError(f"{path}:{lineno}: {exc}") from None
        solution = record.get(layout.solution)
        if isinstance(solution, str) and solution:  # an empty solution reads as absent
            fields["raw_solution"] = nfc(solution)
        topic = record.get(layout.topic)
        records.append(Problem(
            id=f"{layout.id_prefix}-{lineno:06d}" if layout.id_prefix else record["id"],
            language=language,
            source=layout.source,
            question=nfc(record[layout.question]),
            topic=topic if isinstance(topic, str) else None,
            extras={k: v for k, v in record.items() if k not in consumed},
            **fields,
        ))
    with naming(path):  # a duplicate id
        return CorpusManifest.from_records(records, layout.source_format,
                                           created_at=file_created_at(path))


def ingest_gsm8k(path) -> CorpusManifest:
    """Load grade-school QA records; each answer must carry a "#### " marker line."""
    return _ingest(path, _GSM8K, Language.ENGLISH)


def ingest_math(path) -> CorpusManifest:
    """Load competition records, parsing "Level N" strings to levels 1..5."""
    return _ingest(path, _MATH, Language.ENGLISH)


def ingest_hawp(path) -> CorpusManifest:
    """Load Hindi single-operator word problems with their operation tags."""
    return _ingest(path, _HAWP, Language.HINDI)


def ingest_indimathqa(path, language: Language) -> CorpusManifest:
    """Load curated id/question/solution/topic records written in ``language``."""
    return _ingest(path, _INDIMATHQA, language)
