"""Final-answer values shared by solution rendering and grading.

A value is one of two kinds:

* ``RATIONAL``: an exact ``fractions.Fraction``. Integers, terminating
  decimals and simple ``a/b`` fractions all normalize here, so
  ``from_decimal("0.5")`` equals ``from_rational(Fraction(1, 2))``.
* ``EXPRESSION``: anything symbolic, stored as cleaned text.

Every candidate answer (a ``\\boxed{}`` body, the rest of a "Final Answer"
or "####" line, the last number of a text, the result a solution line
states) is read by ``parse_value``: one cleaning rule, one number grammar.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from ganitprep.errors import PipelineError

_DEVANAGARI_DIGITS = {0x0966 + i: ord("0") + i for i in range(10)}
_DEVANAGARI_DIGIT_RE = re.compile("[\u0966-\u096f]")


def map_devanagari_digits(text: str) -> str:
    """Translate the ten digit codepoints U+0966..U+096F to ASCII 0-9.

    Text that holds none of them (all English text, most Hindi text) is
    returned as it is, without the per-character table lookup.
    """
    if text.isascii() or _DEVANAGARI_DIGIT_RE.search(text) is None:
        return text
    return text.translate(_DEVANAGARI_DIGITS)


class AnswerKind(Enum):
    RATIONAL = "Rational"
    EXPRESSION = "Expression"


# Each number form once: \frac{a}{b}, a + b/c, a/b, and an integer or
# terminating decimal with thousands commas or none.
_FORMS = (
    r"(?P<sign>[-+]?)\\[dt]?frac\s*\{\s*(?P<fnum>-?\d+)\s*\}\s*\{\s*(?P<fden>-?\d+)\s*\}"
    r"|(?P<whole>\d+)\s*\+\s*(?P<mnum>\d+)\s*/\s*(?P<mden>\d+)"
    r"|(?P<num>[-+]?\d+)\s*/\s*(?P<den>-?\d+)"
    r"|(?P<decimal>[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?)"
)
_NUMBER_RE = re.compile(_FORMS)
# A number in running text is a whole one: no digit, ",", "." or "/" right
# before it (a spaced "/" is ``last_number``'s check), and after it no digit, nor
# a "," or "." before a digit, nor a "/", spaced or not, before a sign, digit or
# backslash, nor an ellipsis after its last digit ("12." may end a sentence;
# "12,34,567", "3 / 4 / 5" and "12/+4" are no numbers, and the digits of
# "0.333..." go on, so it states no value). The first look-ahead lets the
# search skip to a sign, backslash or digit, where forms start. Its one group
# is the number, so ``split`` is the one scan of a text: gap, number, gap, ...,
# number, gap.
_NUMBER_IN_TEXT_RE = re.compile(r"(?=[-+\\\d])(?<![\d,./])(" + re.sub(r"\?P<\w+>", "?:", _FORMS)
                                + r")(?!\d|[,.]\d|\s*/\s*[-+\\\d]|(?<=\d)(?:\.\.\.|…))")
_TRUNCATED_RE = re.compile(r"\d(?:\.\.\.|…)")  # digits that an ellipsis says go on
_PUNCTUATION = ".,;:!?()[]{}%₹$€"  # what may stand around a word or number of prose


def as_fraction(text: str) -> Fraction | None:
    """Parse ``text`` as an exact rational, or return None.

    Accepts one number form: an integer or terminating decimal (thousands
    commas allowed), ``a/b``, ``a + b/c`` or ``\\frac{a}{b}``. Integers and
    decimals are built from ints, not by parsing the string a second time
    in ``Fraction``; a bare digit run, the commonest answer, skips the forms.
    """
    s = text.strip()
    if s.isdecimal():  # what the decimal form's \d+ alone matches
        return Fraction(int(s))
    m = _NUMBER_RE.fullmatch(s)
    if m is None:
        return None
    if m["decimal"]:
        whole, _, frac = m["decimal"].replace(",", "").partition(".")
        return Fraction(int(whole + frac), 10 ** len(frac)) if frac else Fraction(int(whole))
    if m["den"]:
        whole, num, den = 0, int(m["num"]), int(m["den"])
    elif m["mden"]:
        whole, num, den = int(m["whole"]), int(m["mnum"]), int(m["mden"])
    else:
        whole, num, den = 0, int(m["fnum"]), int(m["fden"])
        num = -num if m["sign"] == "-" else num
    return whole + Fraction(num, den) if den != 0 else None


def format_exact(value: Fraction | int) -> str:
    """Render an exact rational without floating point.

    Integers render bare, terminating decimals as decimal strings
    ("121/2" -> "60.5"), anything else as a fraction with the whole part
    split off ("10/3" -> "3 + 1/3"). An ``int`` or integral ``Fraction``
    renders straight from its integer, with no ``Fraction`` arithmetic.
    """
    if type(value) is int:
        return str(value)
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    if value < 0:
        positive = format_exact(-value)
        if " + " in positive:
            # "-3 + 1/3" would read as addition; keep negatives as one fraction.
            return f"{value.numerator}/{value.denominator}"
        return "-" + positive
    den = value.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives)
        digits = str(value.numerator * 10**k // den).rjust(k + 1, "0")
        return f"{digits[:-k]}.{digits[-k:]}"
    whole = value.numerator // den
    part = value - whole
    if whole == 0:
        return f"{part.numerator}/{part.denominator}"
    return f"{whole} + {part.numerator}/{part.denominator}"


_WRAPPERS = (("\\boxed{", "}"), ("\\(", "\\)"), ("\\[", "\\]"), ("$", "$"))
_CLOSERS = ("।", *(close for _, close in _WRAPPERS))


def clean_answer(text: str) -> str:
    """``text`` with its ``\\boxed{}``, ``$…$``, ``\\(…\\)`` and ``\\[…\\]`` wrappers, a
    trailing ``।`` and the space beside them stripped until none is left, and
    each run of whitespace made one space: the one cleaning rule for an answer."""
    s, prev = text.strip(), None
    while s != prev and s.endswith(_CLOSERS):
        prev, s = s, s.removesuffix("।").rstrip()
        for open_, close in _WRAPPERS:
            if s.startswith(open_) and s.endswith(close) and len(s) >= len(open_) + len(close):
                s = s[len(open_):-len(close)].strip()
    return " ".join(s.split())


@dataclass(frozen=True, slots=True)
class AnswerValue:
    kind: AnswerKind
    rational: Fraction | None = None
    expression: str | None = None

    def __post_init__(self):
        if self.kind is AnswerKind.RATIONAL:
            if not isinstance(self.rational, Fraction):
                raise PipelineError("rational kind requires a Fraction")
        elif not self.expression:
            raise PipelineError("expression kind requires nonempty text")

    @classmethod
    def from_rational(cls, value) -> "AnswerValue":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return cls(kind=AnswerKind.RATIONAL, rational=value)

    @classmethod
    def from_decimal(cls, text: str) -> "AnswerValue":
        value = as_fraction(text)
        if value is None:
            raise PipelineError(f"not a decimal digit string: {text.strip()!r}")
        return cls.from_rational(value)

    @classmethod
    def from_expression(cls, text: str) -> "AnswerValue":
        return cls(kind=AnswerKind.EXPRESSION, expression=clean_answer(text))

    def render(self) -> str:
        if self.kind is AnswerKind.RATIONAL:
            return format_exact(self.rational)
        return self.expression

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.kind is AnswerKind.RATIONAL:
            out["rational"] = f"{self.rational.numerator}/{self.rational.denominator}"
        else:
            out["expression"] = self.expression
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AnswerValue":
        if type(data) is not dict:
            raise PipelineError(f"an answer must be an object, not {type(data).__name__}")
        kind = AnswerKind(data["kind"])
        if kind is AnswerKind.RATIONAL:
            num, den = data["rational"].split("/")
            return cls.from_rational(Fraction(int(num), int(den)))
        return cls.from_expression(data["expression"])


def parse_value(candidate: str) -> AnswerValue | None:
    """Read a candidate answer: the one rule that every reader goes through.

    Devanagari digits are mapped and the text cleaned by ``clean_answer``;
    None when nothing is left. A number is a Rational, and so is the last
    number of a prose sentence ("14661." and "543 multiplied by 27 equals
    14661." are 14661); other text is an Expression of the cleaned text, not
    cleaned again.
    """
    s = clean_answer(map_devanagari_digits(candidate))
    if not s:
        return None
    value = as_fraction(s)
    if value is None:
        parts = _NUMBER_IN_TEXT_RE.split(s)
        value = as_fraction(parts[-2]) if len(parts) > 1 and _is_prose(parts[::2]) else None
    if value is None:
        return AnswerValue(AnswerKind.EXPRESSION, expression=s)
    return AnswerValue(AnswerKind.RATIONAL, rational=value)


def last_number(text: str) -> str | None:
    """The last whole number in running text, or None: a number that a "/",
    spaced or before a sign, joins to digits before it is part of a longer run,
    and none is read before a truncated one ("12, then 0.333..." states no value)."""
    parts = _NUMBER_IN_TEXT_RE.split(text)
    if _TRUNCATED_RE.search(parts[-1]):
        return None
    for i in range(len(parts) - 2, 0, -2):  # each number, the last first
        head = parts[i - 1].rstrip().rstrip("+-").rstrip()
        if not (head.endswith("/") and head[:-1].rstrip()[-1:].isdecimal()):
            return parts[i]
    return None


def _is_word(token: str) -> bool:
    # Letters plus combining marks; isalpha() alone rejects Devanagari matras,
    # but is a sound fast yes: it holds only when every character is a letter.
    return token.isalpha() or all(unicodedata.category(ch)[0] in ("L", "M")
                                  for ch in token)


def _is_prose(gaps: list[str]) -> bool:
    """Whether the numbers between these gaps make a prose sentence: each gap holds
    only words within punctuation, no word touches a number ("x2", "3rd"), and a
    word stands between any two numbers ("7, 3" and "2 1/2" are lists)."""
    sentence = "0".join(gaps)  # each number one token, 0
    if sentence.count("0") >= len(gaps):  # a 0 left in a gap, as any digit, is no number
        return False
    words = 1  # since the last number
    for token in sentence.replace("।", " ").split():
        word = token.strip(_PUNCTUATION)
        if word == "0":
            if not words:
                return False
            words = 0
        elif word:
            if not _is_word(word):
                return False
            words += 1
    return True
