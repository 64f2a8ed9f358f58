"""Answer extraction, grading, accuracy tables, and rater agreement.

Extraction searches model output in priority order: a LaTeX ``\\boxed{...}``
(last one wins), then the last line beginning "Final Answer" or its fixed
Hindi equivalents as a word of their own, then the last "#### " marker
line, then the last standalone number anywhere. Devanagari digits are
mapped to ASCII before parsing and thousands commas are stripped.

Grading compares exact rationals first and falls back to a symmetric
relative tolerance of 1e-6 for numeric pairs; expressions grade by
normalized text equality. Mixed kinds are Incorrect.
"""

from __future__ import annotations

import csv
import io
import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ganitprep.answers import (
    AnswerKind,
    AnswerValue,
    as_fraction,
    map_devanagari_digits,
    parse_candidate,
    parse_value,
)
from ganitprep.common import write_lines_atomic
from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Problem,
    Source,
    canonical_json,
)
from ganitprep.errors import PipelineError, numbered_lines

RELATIVE_TOLERANCE = Fraction(1, 10**6)

FINAL_ANSWER_MARKERS = ("Final Answer", "अंतिम उत्तर", "उत्तर")


class Verdict(Enum):
    CORRECT = "Correct"
    INCORRECT = "Incorrect"
    UNPARSEABLE = "Unparseable"


_MARKER_LINE_RE = re.compile(
    r"^\s*(?P<marker>" + "|".join(re.escape(m) for m in FINAL_ANSWER_MARKERS)
    + r")(?P<gap>\s*)[:=\-]?\s*(?P<value>.*)$",
    re.IGNORECASE,
)
# The bare marker also means "north" (उत्तर प्रदेश, उत्तर दिशा).
_HOMOGRAPH_MARKER = "उत्तर"
_HASH_LINE_RE = re.compile(r"^\s*####\s+(.*)$")
_ANY_NUMBER_RE = re.compile(
    r"[-+]?\\[dt]?frac\s*\{\s*-?\d+\s*\}\s*\{\s*-?\d+\s*\}"
    r"|[-+]?\d+\s*/\s*\d+"
    r"|[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?"
)
_TOKEN_TRIM = ".,;:!?()[]{}%₹$€"
_BOXED_RE = re.compile(r"\\boxed\s*\{")
_BRACE_RE = re.compile(r"[{}]")


def _last_boxed(text: str) -> str | None:
    """The body of the last ``\\boxed{`` whose brace is closed, or None.

    The braces are matched once, from the first marker on, so a text of many
    unclosed markers costs one pass rather than one scan per marker.
    """
    opens = {match.end() - 1 for match in _BOXED_RE.finditer(text)}
    if not opens:
        return None
    pending: list[int] = []  # the open braces not yet closed, innermost last
    closed: dict[int, int] = {}  # a marker's open brace -> its closing brace
    for brace in _BRACE_RE.finditer(text, min(opens)):
        if brace[0] == "{":
            pending.append(brace.start())
        elif pending and (begin := pending.pop()) in opens:
            closed[begin] = brace.start()
    if not closed:
        return None
    begin = max(closed)
    return text[begin + 1:closed[begin]]


def _is_word(token: str) -> bool:
    # Letters plus combining marks; isalpha() alone rejects Devanagari matras,
    # but is a sound fast yes: it holds only when every character is a letter.
    return token.isalpha() or all(unicodedata.category(ch)[0] in ("L", "M")
                                  for ch in token)


def _prose_tail_number(text: str) -> Fraction | None:
    """Last number of a prose sentence, or None if the text is not prose.

    Prose means every token is either a plain word or a number, so
    "543 multiplied by 27 equals 14661." yields 14661 while
    "100y^2 - 44x^2 = 275" yields None and stays an expression.
    """
    last: Fraction | None = None
    for raw in text.replace("।", " ").split():
        token = raw.strip(_TOKEN_TRIM)
        if not token:
            continue
        value = as_fraction(token)
        if value is not None:
            last = value
            continue
        if not _is_word(token):
            return None
    return last


def _value_from_line(remainder: str) -> AnswerValue | None:
    # ``remainder`` comes from digit-mapped text, so it needs no mapping here.
    parsed = parse_candidate(remainder)
    if isinstance(parsed, str):
        tail = _prose_tail_number(remainder)
        if tail is None:
            return AnswerValue.from_expression(parsed)
        parsed = tail
    return None if parsed is None else AnswerValue.from_rational(parsed)


def _marker_starts_prose(line: str, match: re.Match) -> bool:
    """Whether a word goes on where the marker ends, so the line states no answer.

    A letter or combining mark right after the marker continues its word
    ("उत्तरी", "Final Answers"). After the bare Hindi marker, which is also a
    word of its own, a word past the spaces does too ("उत्तर प्रदेश").
    """
    end = match.end("gap" if match["marker"] == _HOMOGRAPH_MARKER else "marker")
    return end < len(line) and unicodedata.category(line[end])[0] in "LM"


def extract_answer(text: str) -> AnswerValue | None:
    """Extract the final answer value from free-form solution text.

    Markers for both languages are always recognized. Text whose answer is a
    number past ``int()``'s digit limit has no readable answer.
    """
    if not text or not text.strip():
        return None
    try:
        return _extract(map_devanagari_digits(text))
    except ValueError:  # the digit limit of int()
        return None


def _extract(mapped: str) -> AnswerValue | None:
    if "\\boxed" in mapped:
        boxed = _last_boxed(mapped)
        if boxed is not None:
            return parse_value(boxed)

    lines = mapped.splitlines()
    for line in reversed(lines):
        match = _MARKER_LINE_RE.match(line)
        if match and not _marker_starts_prose(line, match):
            value = _value_from_line(match["value"])
            if value is not None:
                return value
            break

    for line in reversed(lines):
        match = _HASH_LINE_RE.match(line)
        if match:
            value = parse_value(match.group(1))
            if value is not None:
                return value
            break

    matches = list(_ANY_NUMBER_RE.finditer(mapped))
    if matches:
        return parse_value(matches[-1].group(0))
    return None


def grade(predicted: AnswerValue | None, reference: AnswerValue) -> Verdict:
    """Grade one prediction against its reference value."""
    if predicted is None:
        return Verdict.UNPARSEABLE
    if predicted.kind is AnswerKind.RATIONAL and reference.kind is AnswerKind.RATIONAL:
        a, b = predicted.rational, reference.rational
        if a == b:
            return Verdict.CORRECT
        scale = max(abs(a), abs(b))
        if scale and abs(a - b) / scale <= RELATIVE_TOLERANCE:
            return Verdict.CORRECT
        return Verdict.INCORRECT
    if predicted.kind is AnswerKind.EXPRESSION and reference.kind is AnswerKind.EXPRESSION:
        return Verdict.CORRECT if predicted == reference else Verdict.INCORRECT
    return Verdict.INCORRECT


@dataclass(frozen=True)
class GradeRecord:
    problem_id: str
    model_name: str
    predicted: AnswerValue | None
    reference: AnswerValue
    verdict: Verdict

    def __post_init__(self):
        if (self.verdict is Verdict.UNPARSEABLE) != (self.predicted is None):
            raise PipelineError(
                f"{self.problem_id}: Unparseable verdict must pair with an "
                "absent prediction"
            )

    def to_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "model_name": self.model_name,
            "predicted": self.predicted.to_dict() if self.predicted else None,
            "reference": self.reference.to_dict(),
            "verdict": self.verdict.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradeRecord":
        row = _verdict_row(data)  # the checks a report makes, with its messages
        predicted = data.get("predicted")
        return cls(
            problem_id=row.problem_id,
            model_name=row.model_name,
            predicted=AnswerValue.from_dict(predicted) if predicted is not None else None,
            reference=AnswerValue.from_dict(data["reference"]),
            verdict=row.verdict,
        )


def reference_answer(problem: Problem) -> AnswerValue | None:
    """The reference value for a problem, preferring the structured solution."""
    structured = problem.structured_solution
    if structured is not None:
        if structured.final_answer is not None:
            return structured.final_answer
        value = extract_answer(structured.answer)
        if value is not None:
            return value
    if problem.raw_solution:
        return extract_answer(problem.raw_solution)
    return None


def grade_prediction(problem_id: str, output: str, manifest: CorpusManifest,
                     model_name: str) -> GradeRecord:
    """Grade one model output against its problem's reference answer."""
    reference = reference_answer(manifest.by_id(problem_id))
    if reference is None:
        raise PipelineError(f"{problem_id}: no extractable reference answer")
    predicted = extract_answer(output)
    return GradeRecord(
        problem_id=problem_id,
        model_name=model_name,
        predicted=predicted,
        reference=reference,
        verdict=grade(predicted, reference),
    )


def grade_predictions(
    predictions: Iterable[tuple[str, str]],
    manifest: CorpusManifest,
    model_name: str,
) -> list[GradeRecord]:
    """Grade (problem_id, model_output_text) pairs against the corpus."""
    return [grade_prediction(problem_id, output, manifest, model_name)
            for problem_id, output in predictions]


def half_up_percent(correct: int, total: int) -> int:
    """Integer percentage, rounding halves up (2/3 -> 67)."""
    if total <= 0:
        raise PipelineError("percentage of an empty cell")
    return (200 * correct + total) // (2 * total)


class CellStats(NamedTuple):
    correct: int
    incorrect: int
    unparseable: int

    @property
    def total(self) -> int:
        return self.correct + self.incorrect + self.unparseable

    @property
    def percent(self) -> int:
        return half_up_percent(self.correct, self.total)


CellKey = tuple[str, Language, Source, Difficulty]

EMPTY_CELL = "—"

# Column plan mirroring the published table: English benchmarks first, then
# Hindi, with per-difficulty sub-columns for the curated corpus.
_COLUMN_PLAN: tuple[tuple[Language, tuple[tuple[Source, bool], ...]], ...] = (
    (Language.ENGLISH, ((Source.GSM8K, False), (Source.MATH, False),
                        (Source.INDIMATHQA, True))),
    (Language.HINDI, ((Source.HAWP, False), (Source.INDIMATHQA, True))),
)
_SUB_DIFFICULTIES = (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)


@dataclass(frozen=True)
class EvaluationReport:
    cells: Mapping[CellKey, CellStats]

    def models(self) -> list[str]:
        return sorted({model for model, _, _, _ in self.cells})

    def cell(self, model: str, language: Language, source: Source,
             difficulty: Difficulty | None = None) -> CellStats | None:
        """One table cell; difficulty None aggregates over all difficulties."""
        if difficulty is not None:
            return self.cells.get((model, language, source, difficulty))
        parts = [stats for (m, l, s, _), stats in self.cells.items()
                 if m == model and l is language and s is source]
        if not parts:
            return None
        return CellStats(
            correct=sum(p.correct for p in parts),
            incorrect=sum(p.incorrect for p in parts),
            unparseable=sum(p.unparseable for p in parts),
        )

    def _columns(self) -> list[tuple[Language, Source, Difficulty | None]]:
        """The planned columns, then one aggregate per other graded pair."""
        columns = [(language, source, difficulty)
                   for language, sources in _COLUMN_PLAN
                   for source, split_difficulty in sources
                   for difficulty in (_SUB_DIFFICULTIES if split_difficulty else (None,))]
        planned = {(language, source) for language, source, _ in columns}
        extra = sorted({(l, s) for _, l, s, _ in self.cells} - planned,
                       key=lambda item: (item[0].value, item[1].value))
        return columns + [(language, source, None) for language, source in extra]

    def render_table(self) -> str:
        columns = self._columns()
        rows = []
        for model in self.models():
            row = [model]
            for language, source, difficulty in columns:
                stats = self.cell(model, language, source, difficulty)
                row.append(f"{stats.percent}%" if stats else EMPTY_CELL)
            rows.append(row)
        label_row = ["Model"] + [
            source.value if difficulty is None else f"{source.value} {difficulty.value}"
            for _, source, difficulty in columns]
        widths = [max(len(str(cell)) for cell in col)
                  for col in zip(label_row, *rows)]

        def fmt(cells):
            return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()

        # Group labels span their run of columns.
        group_cells = [" " * widths[0]]
        run_start = 0
        groups = [f"{language.value} Benchmarks" for language, _, _ in columns]
        for i in range(len(groups) + 1):
            if i == len(groups) or (i > run_start and groups[i] != groups[run_start]):
                span = sum(widths[run_start + 1:i + 1]) + 2 * (i - run_start - 1)
                group_cells.append(groups[run_start].ljust(span))
                run_start = i
        group_line = "  ".join(group_cells).rstrip()
        lines = [group_line, fmt(label_row), fmt(["-" * w for w in widths])]
        lines.extend(fmt(row) for row in rows)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["model", "language", "source", "difficulty",
                         "correct", "incorrect", "unparseable", "total", "percent"])
        for (model, language, source, difficulty), stats in sorted(
            self.cells.items(),
            key=lambda item: (item[0][0], item[0][1].value, item[0][2].value,
                              item[0][3].value),
        ):
            writer.writerow([model, language.value, source.value, difficulty.value,
                             stats.correct, stats.incorrect, stats.unparseable,
                             stats.total, stats.percent])
        return buffer.getvalue()


_VERDICT_COLUMN = {Verdict.CORRECT: 0, Verdict.INCORRECT: 1, Verdict.UNPARSEABLE: 2}


class AccuracyTally:
    """Per-cell verdict counts, fed one grade at a time, each problem counted
    once per model.

    Only ``problem_id``, ``model_name`` and ``verdict`` are read, so verdict
    rows serve as well as full grade records, and :meth:`add_file` tallies a
    grades file as it reads it, leaving the answers undecoded. Beyond the
    counts it holds one bit per model for each graded problem, keyed by the
    manifest's own id strings.
    """

    def __init__(self, manifest: CorpusManifest):
        self._manifest = manifest
        self._counts: dict[CellKey, list[int]] = {}
        self._bits: dict[str, int] = {}  # model name -> its bit
        self._graded: dict[str, int] = {}  # problem id -> the bits of its models

    def add(self, record: GradeRecord | VerdictRow) -> None:
        """Count one grade, refusing a second of the same problem for the same model."""
        problem = self._manifest.by_id(record.problem_id)
        bit = self._bits.setdefault(record.model_name, 1 << len(self._bits))
        mask = self._graded.get(problem.id, 0)
        if mask & bit:
            raise PipelineError(f"second grade of problem {problem.id!r} "
                                f"for model {record.model_name!r}")
        self._graded[problem.id] = mask | bit
        key = (record.model_name, problem.language, problem.source, problem.difficulty)
        self._counts.setdefault(key, [0, 0, 0])[_VERDICT_COLUMN[record.verdict]] += 1

    def add_file(self, path) -> None:
        """Count the grades of a grades file one line at a time.

        Each line is checked as :class:`GradeRecord` checks it, with its
        messages, and then counted; a fault, an unknown id or a second grade
        alike, is raised naming the file and line.
        """
        def count(data: dict) -> None:
            self.add(_verdict_row(data))

        for _ in numbered_lines(path, "grade", count):
            pass

    def report(self) -> EvaluationReport:
        return EvaluationReport(cells={
            key: CellStats(*counts) for key, counts in self._counts.items()
        })


def accuracy_report(grades: Iterable[GradeRecord | VerdictRow],
                    manifest: CorpusManifest) -> EvaluationReport:
    """Aggregate grade records into per-cell accuracy statistics, each
    problem counted once per model (see :class:`AccuracyTally`)."""
    tally = AccuracyTally(manifest)
    for record in grades:
        tally.add(record)
    return tally.report()


def save_grades(grades: Iterable[GradeRecord], path) -> None:
    write_lines_atomic(path, (canonical_json(g.to_dict()) for g in grades))


def load_grades(path) -> list[GradeRecord]:
    return [grade for _, _, grade in
            numbered_lines(path, "grade", GradeRecord.from_dict)]


class VerdictRow(NamedTuple):
    """The fields of a grade record that an accuracy report reads."""

    problem_id: str
    model_name: str
    verdict: Verdict


_VERDICTS = {verdict.value: verdict for verdict in Verdict}


def _verdict_row(data: dict) -> VerdictRow:
    """The verdict row of a decoded grade line, checked as a GradeRecord is."""
    for key in ("problem_id", "model_name"):
        if not isinstance(data.get(key, ""), str):
            raise PipelineError(f"{key} is not a string")
    value = data.get("verdict")
    try:
        verdict = _VERDICTS[value]
    except (KeyError, TypeError):  # unknown or unhashable value
        raise PipelineError(f"unknown verdict {value!r}") from None
    predicted = data.get("predicted")
    if (verdict is Verdict.UNPARSEABLE) == (predicted is not None):
        raise PipelineError("Unparseable verdict must pair with an absent prediction")
    try:
        row = VerdictRow(data["problem_id"], data["model_name"], verdict)
        reference = data["reference"]
    except KeyError as exc:
        raise PipelineError(f"missing field {exc}") from None
    # The answers' shapes, not their values: a report leaves them undecoded.
    if predicted is not None and type(predicted) is not dict:
        raise PipelineError(f"predicted must be an object or null, not {type(predicted).__name__}")
    if type(reference) is not dict:
        raise PipelineError(f"reference must be an object, not {type(reference).__name__}")
    return row


def iter_predictions(path) -> Iterator[tuple[str, str]]:
    r"""Yield the pairs of a ``problem_id<TAB>model_output`` file, one line per
    problem, as they are read; ``\n`` unescapes to newlines."""
    seen: set[str] = set()
    for lineno, line, _ in numbered_lines(path):
        if "\t" not in line:
            raise PipelineError(f"{path}:{lineno}: expected problem_id<TAB>output")
        problem_id, text = line.split("\t", 1)
        if problem_id in seen:
            raise PipelineError(f"{path}:{lineno}: duplicate problem id {problem_id!r}")
        seen.add(problem_id)
        yield problem_id, text.replace("\\n", "\n")


def read_predictions(path) -> list[tuple[str, str]]:
    """The pairs of :func:`iter_predictions`, as a list."""
    return list(iter_predictions(path))


def _row_fault(row: Sequence[int], categories: int, raters: int) -> str | None:
    if len(row) != categories:
        return f"has {len(row)} categories, expected {categories}"
    if any(n < 0 for n in row):
        return "has negative counts"
    if sum(row) != raters:
        return f"sums to {sum(row)}, expected {raters}"
    return "has fewer than two raters" if raters < 2 else None


def fleiss_kappa(counts: Sequence[Sequence[int]]) -> float:
    """Chance-corrected multi-rater agreement, computed in exact rationals.

    With n raters over N items and k categories, per-item agreement is
    P_i = sum_j n_ij (n_ij - 1) / (n (n - 1)), chance agreement is
    P_e = sum_j p_j^2 over the category marginals, and
    kappa = (mean(P_i) - P_e) / (1 - P_e).
    """
    if not counts or not counts[0]:
        raise PipelineError("counts matrix must be nonempty")
    items, categories, n = len(counts), len(counts[0]), sum(counts[0])
    for index, row in enumerate(counts):
        fault = _row_fault(row, categories, n)
        if fault:
            raise PipelineError(f"row {index} {fault}")
    total = items * n
    p_bar = Fraction(
        sum(sum(c * (c - 1) for c in row) for row in counts),
        items * n * (n - 1),
    )
    marginals = [
        Fraction(sum(row[j] for row in counts), total)
        for j in range(categories)
    ]
    p_expected = sum(p * p for p in marginals)
    if p_expected == 1:
        if p_bar == 1:
            return 1.0
        raise PipelineError("degenerate marginals")
    return float((p_bar - p_expected) / (1 - p_expected))


def read_counts_matrix(path) -> list[list[int]]:
    """Read a rater-counts matrix: one row per item, whitespace or commas, each
    row checked against the first as :func:`fleiss_kappa` checks it."""
    rows = []
    for lineno, line, _ in numbered_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        try:
            row = [int(tok) for tok in line.replace(",", " ").split()]
        except ValueError:
            raise PipelineError(f"{path}:{lineno}: non-integer count") from None
        first = rows[0] if rows else row
        fault = _row_fault(row, len(first), sum(first))
        if fault:
            raise PipelineError(f"{path}:{lineno}: row {fault}")
        rows.append(row)
    if not rows:
        raise PipelineError(f"{path}: counts matrix must be nonempty")
    return rows
