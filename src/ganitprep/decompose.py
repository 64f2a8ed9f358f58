"""Exact place-value decomposition of integer multiplication and division.

Multiplication splits the first operand into its nonzero place-value parts
(543 -> 500 + 40 + 3), multiplies each by the second operand, and sums the
products. Division emits one segment per nonzero long-division quotient
digit (segment = digit * place * divisor) plus, when the division is
inexact, a final remainder segment whose partial is an exact fraction. All
arithmetic is integer/rational; no floats touch the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from ganitprep.answers import format_exact, map_devanagari_digits, parse_value
from ganitprep.common import StageSummary
from ganitprep.corpus import (
    CorpusManifest,
    Language,
    Operation,
    Problem,
    replace_records,
)
from ganitprep.errors import PipelineError

OPERAND_LIMIT = 10**18


@dataclass(frozen=True)
class DecompositionTrace:
    kind: Operation  # Operation.MUL or Operation.DIV
    operand_a: int
    operand_b: int
    components: tuple[tuple[int, Fraction], ...]  # (segment, partial)
    total: Fraction

    @property
    def segments(self) -> tuple[int, ...]:
        return tuple(segment for segment, _ in self.components)

    @property
    def partials(self) -> tuple[Fraction, ...]:
        return tuple(partial for _, partial in self.components)


def _check_operand(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PipelineError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise PipelineError(f"{name} must be >= {minimum}, got {value}")
    if value >= OPERAND_LIMIT:
        raise PipelineError(f"{name} must be < 10^18, got {value}")
    return value


def _place_parts(n: int) -> list[int]:
    """Nonzero place-value parts of n, descending (507 -> [500, 7]); [0] for 0."""
    if n == 0:
        return [0]
    text = str(n)
    width = len(text)
    return [int(ch) * 10 ** (width - 1 - pos)
            for pos, ch in enumerate(text) if ch != "0"]


def decompose_mul(a: int, b: int) -> DecompositionTrace:
    """Decompose a * b by splitting ``a`` into place-value components."""
    a = _check_operand("multiplicand", a, 0)
    b = _check_operand("multiplier", b, 0)
    components = tuple((segment, Fraction(segment * b)) for segment in _place_parts(a))
    return DecompositionTrace(
        kind=Operation.MUL,
        operand_a=a,
        operand_b=b,
        components=components,
        total=Fraction(a * b),
    )


def decompose_div(a: int, b: int) -> DecompositionTrace:
    """Decompose a / b into long-division quotient-digit segments.

    Each nonzero quotient digit q at place p contributes segment q*p*b with
    partial q*p; a nonzero remainder r contributes the final segment r with
    the exact partial r/b.
    """
    a = _check_operand("dividend", a, 0)
    if type(b) is int and b == 0:
        raise PipelineError("division by zero")
    _check_operand("divisor", b, 1)
    quotient, remainder = divmod(a, b)
    components = [(part * b, Fraction(part)) for part in _place_parts(quotient) if part]
    if remainder:
        components.append((remainder, Fraction(remainder, b)))
    if not components:
        components = [(0, Fraction(0))]
    return DecompositionTrace(
        kind=Operation.DIV,
        operand_a=a,
        operand_b=b,
        components=tuple(components),
        total=Fraction(a, b),
    )


class _Wording(NamedTuple):
    breakdown: str
    step_mul: str
    step_div: str
    sum_mul: str
    sum_div: str
    final_mul: str
    final_div: str


_WORDING = {
    Language.ENGLISH: _Wording(
        breakdown="Break down {a} into place value components:",
        step_mul="Multiply each component by {b}:",
        step_div="Divide each component by {b}:",
        sum_mul="Add the products:",
        sum_div="Add the quotients:",
        final_mul="Final Answer: {a} multiplied by {b} equals {total}.",
        final_div="Final Answer: {a} divided by {b} equals {total}.",
    ),
    Language.HINDI: _Wording(
        breakdown="{a} को स्थानीय मान घटकों में विभाजित करें:",
        step_mul="प्रत्येक घटक को {b} से गुणा करें:",
        step_div="प्रत्येक घटक को {b} से भाग दें:",
        sum_mul="गुणनफलों को जोड़ें:",
        sum_div="भागफलों को जोड़ें:",
        final_mul="अंतिम उत्तर: {a} गुणा {b} बराबर {total} है।",
        final_div="अंतिम उत्तर: {a} भागा {b} बराबर {total} है।",
    ),
}


def render_trace(trace: DecompositionTrace, language: Language = Language.ENGLISH) -> str:
    """Render a trace as multi-line solution text; pure and deterministic."""
    words = _WORDING[language]
    mul = trace.kind is Operation.MUL
    symbol = "×" if mul else "÷"
    b = trace.operand_b
    total = format_exact(trace.total)
    segments = [str(segment) for segment, _ in trace.components]
    partials = [format_exact(partial) for _, partial in trace.components]
    lines = [
        words.breakdown.format(a=trace.operand_a),
        "",
        f"{trace.operand_a} = " + " + ".join(segments),
        "",
        (words.step_mul if mul else words.step_div).format(b=b),
        "",
    ]
    for segment, partial in zip(segments, partials):
        lines.append(f"{segment} {symbol} {b} = {partial}")
        lines.append("")
    lines.append(words.sum_mul if mul else words.sum_div)
    lines.append(" + ".join(partials) + f" = {total}")
    lines.append("")
    lines.append((words.final_mul if mul else words.final_div).format(
        a=trace.operand_a, b=b, total=total))
    return "\n".join(lines) + "\n"


# An operand starts where no digit, comma or point comes before it, so
# "1,234" and "12.5" are read whole (and refused) rather than as "234" and "5".
# The stated result is the rest of the line, if it holds a digit and no "=".
_CALC_LINE_RE = re.compile(
    r"(?<![\d,.])(\d[\d,.]*)\s*([×x*÷/])\s*(\d[\d,.]*)\s*=\s*(?!.*=)(.*\d.*)$"
)
_MUL_SYMBOLS = {"×", "x", "*"}


class OperandPair(NamedTuple):
    a: int
    b: int
    operation: Operation
    stated: str | None = None  # the result the solution line states


def extract_operands(problem: Problem) -> OperandPair | None:
    """Find the operand pair for a Mul/Div problem.

    Explicit ``extras["operand_a"/"operand_b"]`` win; otherwise the last
    line of the raw solution matching ``<int> <op> <int> = <result>``, with
    a digit in the result, is used, with Devanagari digits accepted, and the
    result it states is kept as written.
    Returns None when an explicit operand is not a JSON integer, when
    nothing matches, or when the line's operator disagrees with the
    problem's tag; raises PipelineError when the line's operand is not a
    plain integer.
    """
    extras = problem.extras
    if "operand_a" in extras and "operand_b" in extras:
        a, b = extras["operand_a"], extras["operand_b"]
        if type(a) is not int or type(b) is not int:  # a bool is no operand
            return None
        return OperandPair(a, b, problem.operation)
    if not problem.raw_solution:
        return None
    for line in reversed(map_devanagari_digits(problem.raw_solution).splitlines()):
        match = _CALC_LINE_RE.search(line.strip())
        if not match:
            continue
        op = Operation.MUL if match.group(2) in _MUL_SYMBOLS else Operation.DIV
        if op is not problem.operation:
            return None
        try:
            return OperandPair(int(match.group(1)), int(match.group(3)), op, match.group(4))
        except ValueError:
            raise PipelineError(f"operand extraction failed: {match.group(0)!r} has an "
                                "operand that is not a plain integer") from None
    return None


class DecompositionOutcome(NamedTuple):
    manifest: CorpusManifest
    rewritten: int
    flagged: dict[str, str]  # id -> why it was left unchanged

    @property
    def skipped(self) -> int:
        return len(self.flagged)

    def summary(self, name: str) -> StageSummary:
        """Every record is kept, rewritten or not: in and out are the manifest's size."""
        return StageSummary(name, len(self.manifest), len(self.manifest), self.flagged,
                            f"rewritten={self.rewritten} skipped={self.skipped}\n")


def apply_decomposition(manifest: CorpusManifest) -> DecompositionOutcome:
    """Rewrite Mul/Div solutions as decomposition text, each in its problem's language.

    Problems whose operands cannot be extracted or decomposed (a zero
    divisor, a negative operand, one at or past 10^18), or whose solution
    line states another result than the exact one, are flagged and kept
    unchanged; every other operation passes through untouched. Manifest size,
    order, and ids are preserved.
    """
    records = []
    rewritten = 0
    flagged = {}
    for problem in manifest:
        if problem.operation not in (Operation.MUL, Operation.DIV):
            records.append(problem)
            continue
        try:
            text = _decomposed_solution(problem)
        except (PipelineError, ValueError) as exc:  # ValueError: past int's digit limit
            flagged[problem.id] = str(exc)
            records.append(problem)
            continue
        records.append(replace(problem, raw_solution=text))
        rewritten += 1
    return DecompositionOutcome(replace_records(manifest, records), rewritten, flagged)


def _decomposed_solution(problem: Problem) -> str:
    """The decomposition text for a Mul/Div problem; PipelineError says why there is none."""
    pair = extract_operands(problem)
    if pair is None:
        raise PipelineError("operand extraction failed")
    decompose = decompose_mul if pair.operation is Operation.MUL else decompose_div
    try:
        trace = decompose(pair.a, pair.b)
    except PipelineError as exc:
        raise PipelineError(f"decomposition failed: {exc}") from None
    stated, exact = pair.stated, format_exact(trace.total)
    # Most lines state the result as it renders; only another spelling is read.
    if stated not in (None, exact) and parse_value(stated).rational != trace.total:
        raise PipelineError(f"stated result {stated} is not the exact {exact}")
    return render_trace(trace, problem.language)
