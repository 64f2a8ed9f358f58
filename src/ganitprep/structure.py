"""Six-phase structured solutions and the fixed prompt templates.

Solutions are organized under six ordered headings: Data Identification,
Problem Analysis, Theoretical Framework, Methodology Development,
Computation, and a final answer section. "Answer" is accepted as an alias
while parsing; canonical output uses "Solution". Hindi headings come from a
fixed translation table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from ganitprep.answers import AnswerValue
from ganitprep.common import Language, write_lines_atomic
from ganitprep.errors import PipelineError, check_json_object


SECTION_FIELDS = (
    "data_identification",
    "problem_analysis",
    "theoretical_framework",
    "methodology_development",
    "computation",
    "answer",
)

HEADINGS_EN = (
    "Data Identification",
    "Problem Analysis",
    "Theoretical Framework",
    "Methodology Development",
    "Computation",
    "Solution",
)

HEADINGS_HI = (
    "डेटा पहचान",
    "समस्या विश्लेषण",
    "सैद्धांतिक ढांचा",
    "विधि विकास",
    "गणना",
    "हल",
)

# Lowercased heading text -> section index; "Answer" is a parse-time alias
# for the final section.
_HEADING_INDEX = {name.lower(): index for headings in (HEADINGS_EN, HEADINGS_HI)
                  for index, name in enumerate(headings)} | {"answer": 5}

_HEADING_NAMES = sorted(_HEADING_INDEX, key=len, reverse=True)
_HEADING_LINE_RE = re.compile(
    r"^\s*(?:#{1,6}\s*)?(?:\*\*|__)?\s*(" +
    "|".join(re.escape(name) for name in _HEADING_NAMES) +
    r")\s*:?\s*(?:\*\*|__)?\s*:?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class StructuredSolution:
    data_identification: str
    problem_analysis: str
    theoretical_framework: str
    methodology_development: str
    computation: str
    answer: str
    final_answer: AnswerValue | None = None

    def __post_init__(self):
        for name in SECTION_FIELDS:
            if not getattr(self, name).strip():
                heading = HEADINGS_EN[SECTION_FIELDS.index(name)]
                raise PipelineError(f"empty section: {heading}")

    def sections(self) -> tuple[str, ...]:
        return tuple(getattr(self, name) for name in SECTION_FIELDS)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in SECTION_FIELDS}
        out["final_answer"] = self.final_answer.to_dict() if self.final_answer else None
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StructuredSolution":
        check_json_object(data, dict.fromkeys(SECTION_FIELDS, str), "structured solution")
        for name in SECTION_FIELDS:
            if name not in data:
                raise PipelineError(f"structured solution has no key {name!r}")
        final = data.get("final_answer")
        return cls(
            **{name: data[name] for name in SECTION_FIELDS},
            final_answer=AnswerValue.from_dict(final) if final is not None else None,
        )


def parse_structured(text: str) -> StructuredSolution:
    """Parse text containing the six headings into a structured solution.

    Markdown bold and hash markers around headings are tolerated. Raises
    :class:`PipelineError` on a missing, duplicated, out-of-order, or empty
    section.
    """
    lines = text.splitlines()
    found: list[tuple[int, int]] = []  # (section index, line number)
    seen: set[int] = set()
    for lineno, line in enumerate(lines):
        match = _HEADING_LINE_RE.match(line)
        # The match ignores case, so it also takes spellings such as
        # "ſolution" whose lowercase is no heading; those are body text.
        index = _HEADING_INDEX.get(match.group(1).lower()) if match else None
        if index is None:
            continue
        if index in seen:
            raise PipelineError(f"duplicated section: {HEADINGS_EN[index]}")
        seen.add(index)
        found.append((index, lineno))
    for index, heading in enumerate(HEADINGS_EN):
        if index not in seen:
            raise PipelineError(f"missing section: {heading}")
    order = [index for index, _ in found]
    if order != sorted(order):
        raise PipelineError(
            "sections out of order: " + " > ".join(HEADINGS_EN[i] for i in order)
        )
    bodies = []
    for position, (_, start) in enumerate(found):
        end = found[position + 1][1] if position + 1 < len(found) else len(lines)
        bodies.append("\n".join(lines[start + 1:end]).strip())
    return StructuredSolution(*bodies)  # which rejects an empty section


def render_structured(solution: StructuredSolution, language=None) -> str:
    """Canonical rendering: heading lines and section bodies, in fixed order."""
    headings = HEADINGS_HI if language is Language.HINDI else HEADINGS_EN
    blocks = [f"{heading}:\n{body}"
              for heading, body in zip(headings, solution.sections())]
    return "\n\n".join(blocks) + "\n"


class PromptName(Enum):
    FINE_TUNE = "finetune"
    AUGMENT = "augment"
    DECOMPOSE_MUL = "decompose-mul"
    DECOMPOSE_DIV = "decompose-div"


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: PromptName
    body: str

    @cached_property
    def placeholders(self) -> tuple[str, ...]:
        """The placeholder names in order of first use, each once."""
        return tuple(dict.fromkeys(_PLACEHOLDER_RE.findall(self.body)))


FINE_TUNE_BODY = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request.\n"
    "Be aware of wrong calculations and do not repeat them.\n"
    "\n"
    "### Instruction:\n"
    "{Question}\n"
    "\n"
    "### Response:\n"
    "{Response}\n"
)

# The transcription source hard-wrapped words mid-token ("conc-eptual",
# "simp-le"); the prose is joined back here.
AUGMENT_BODY = (
    "Your task is to create a similar conceptual question and answer with "
    "diverse difficulty levels (either similarly simple, the same, or more "
    "complex) using the provided problem.\n"
    "\n"
    "Problem:\n"
    "Question: {Example}\n"
    "Answer: {refined_solution}\n"
    "\n"
    "New Problem: {Question}\n"
)

# Same de-hyphenation applies below ("mathem-atical", "mu-ltiplicand").
DECOMPOSE_MUL_BODY = (
    "Your task is modify the following mathematical solution by breaking "
    "down the multiplicand into place value components (hundreds, tens, "
    "ones, etc.) and then multiplying each component by the other "
    "multiplicand. Then, sum the products to get the final result.\n"
    "\n"
    "Answer: {solution}\n"
    "\n"
    "New Answer: {updated_solution}\n"
)

DECOMPOSE_DIV_BODY = (
    "Your task is modify the following mathematical solution by decomposing "
    "the dividend into segments, then divide each by the divisor, and sum "
    "the quotients to obtain the final answer.\n"
    "\n"
    "Answer: {solution}\n"
    "\n"
    "New Answer: {updated_solution}\n"
)

TEMPLATES = {
    PromptName.FINE_TUNE: PromptTemplate(PromptName.FINE_TUNE, FINE_TUNE_BODY),
    PromptName.AUGMENT: PromptTemplate(PromptName.AUGMENT, AUGMENT_BODY),
    PromptName.DECOMPOSE_MUL: PromptTemplate(PromptName.DECOMPOSE_MUL, DECOMPOSE_MUL_BODY),
    PromptName.DECOMPOSE_DIV: PromptTemplate(PromptName.DECOMPOSE_DIV, DECOMPOSE_DIV_BODY),
}


def get_template(name: PromptName | str) -> PromptTemplate:
    if isinstance(name, str):
        name = PromptName(name)
    return TEMPLATES[name]


def render_prompt(template: PromptTemplate, bindings: dict) -> str:
    """Instantiate a template; every placeholder must be bound."""
    missing = [key for key in template.placeholders if key not in bindings]
    if missing:
        raise PipelineError(f"missing binding: {missing[0]}")

    def substitute(match):
        return str(bindings[match.group(1)])

    return _PLACEHOLDER_RE.sub(substitute, template.body)


TRAINING_CONFIG = (
    ("sampling", "true"),
    ("top_k", "40"),
    ("temperature", "0.8"),
    ("top_p", "0.90"),
    ("max_length", "4096"),
    ("epochs", "3"),
)


def emit_training_config(path) -> None:
    """Write the fine-tuning sampling configuration as key=value lines."""
    write_lines_atomic(path, (f"{key}={value}" for key, value in TRAINING_CONFIG))
