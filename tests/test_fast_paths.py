"""Each per-record fast path equals the plain form it stands in for.

Every property states the spec expression inline: ``Fraction(str)`` for
``as_fraction``, ``str.translate`` for ``map_devanagari_digits``, the
Unicode category rule for ``_is_word``, one ``str.count`` per word over
the full word lists for the feature scorer, and a rescan from every marker
for ``_last_boxed``.
"""

import re
import time
import unicodedata
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep import classify
from ganitprep.answers import as_fraction, format_exact, map_devanagari_digits
from ganitprep.classify import CRITERIA, DEFAULT_WEIGHTS, rank_bottom_k, score_complexity
from ganitprep.corpus import Difficulty, Language
from ganitprep.evaluate import _is_word, _last_boxed, extract_answer

# Ten-digit runs of Unicode Nd scripts: ASCII, Devanagari, Arabic-Indic,
# Bengali, fullwidth.
DIGIT_SCRIPTS = ("0123456789", "०१२३४५६७८९", "٠١٢٣٤٥٦٧٨٩", "০১২৩৪৫৬৭৮৯",
                 "０１２３４５６７８９")
DEVANAGARI_TABLE = str.maketrans("०१२३४५६७८९", "0123456789")


@st.composite
def _number_strings(draw):
    digits = draw(st.sampled_from(DIGIT_SCRIPTS))
    digit = st.sampled_from(digits)

    def run(lo, hi):
        return "".join(draw(st.lists(digit, min_size=lo, max_size=hi)))

    if draw(st.booleans()):
        whole = run(1, 3) + "".join("," + run(3, 3) for _ in range(draw(st.integers(1, 4))))
    else:
        whole = run(1, 25)
    frac = "." + run(1, 12) if draw(st.booleans()) else ""
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + draw(st.sampled_from(["", "-", "+"])) + whole + frac + draw(pad)


@settings(max_examples=400, deadline=None)
@given(_number_strings())
def test_as_fraction_equals_fraction_of_string(s):
    assert as_fraction(s) == Fraction(s.strip().replace(",", ""))


@settings(max_examples=300, deadline=None)
@given(st.text().filter(lambda t: not any(unicodedata.category(ch) == "Nd" for ch in t)))
def test_as_fraction_rejects_text_without_digits(text):
    assert as_fraction(text) is None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="०१२३४५६७८९ abcअ।\n0")))
def test_map_devanagari_digits_equals_translate(text):
    assert map_devanagari_digits(text) == text.translate(DEVANAGARI_TABLE)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10**30, max_value=10**30))
def test_format_exact_int_equals_fraction_form(n):
    assert format_exact(n) == format_exact(Fraction(n)) == str(n)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**4))
def test_format_exact_reads_back_exactly(value):
    assert as_fraction(format_exact(value)) == value


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(min_size=1, max_size=12),
                 st.text(alphabet="कखगािीुं्aZ1१.", min_size=1, max_size=8)))
def test_is_word_matches_category_rule(token):
    assert _is_word(token) == all(unicodedata.category(ch)[0] in ("L", "M") for ch in token)


_ENGLISH = ("plus", "minus", "times", "divided", "sum", "product", "ratio", "sqrt",
            "square root", "log", "cosin", "tangent", "prime", "and", "but", "if",
            "first", "then", "each", "per", "how many", "total", "left", "x", "y",
            "apples", "What", "Then", "PER", "7", "12.5", "3/4", "=", "+", "×", ",", ".", "?")
_HINDI = ("जोड़", "घटा", "गुणा", "भाग", "योग", "अंतर", "प्रायिकता", "समीकरण", "वर्गमूल",
          "और", "लेकिन", "अगर", "यदि", "तो", "कितने", "कितना", "पहले", "फिर", "बाद",
          "कुल", "प्रत्येक", "सेब", "१२", "४५.५", "।", "है")
_questions = st.one_of(
    st.lists(st.sampled_from(_ENGLISH), max_size=40).map(" ".join),
    st.lists(st.sampled_from(_HINDI), max_size=40).map(" ".join),
    st.lists(st.sampled_from(_ENGLISH + _HINDI), max_size=40).map(" ".join),
    st.text(max_size=80),
)


def _spec_count(text, words):
    # One str.count per word over the full list, ASCII text or not.
    return sum(text.count(word) for word in words[-1])


def _spec_total(problem) -> float:
    with mock.patch.object(classify, "_count_words", _spec_count):
        score = score_complexity(problem)
    return (sum(DEFAULT_WEIGHTS[name] * getattr(score, name) for name in CRITERIA)
            / sum(DEFAULT_WEIGHTS.values()))


@settings(max_examples=300, deadline=None)
@given(_questions, st.sampled_from([None, "Algebra", "Geometry", "Precalculus"]))
def test_score_total_equals_spec_scorer(question, topic):
    problem = make_problem("p", question=question, topic=topic)
    assert score_complexity(problem).total == _spec_total(problem)


@settings(max_examples=100, deadline=None)
@given(st.lists(_questions, min_size=1, max_size=12), st.data())
def test_rank_bottom_k_picks_spec_ids(questions, data):
    manifest = make_manifest([
        make_problem(f"p{i:02d}", question=q,
                     language=Language.ENGLISH if q.isascii() else Language.HINDI)
        for i, q in enumerate(questions)])
    k = data.draw(st.integers(0, len(questions)))
    spec = {p.id for p in sorted(manifest, key=lambda p: (_spec_total(p), p.id))[:k]}
    ranked = rank_bottom_k(manifest, k)
    assert {p.id for p in ranked if p.difficulty is Difficulty.EASY} == spec


def _spec_last_boxed(text):
    # From the last ``\\boxed`` back, scan each marker's braces to the text's end.
    starts = [m.start() for m in re.finditer(r"\\boxed", text)]
    for idx in reversed(starts):
        scan = idx + len("\\boxed")
        while scan < len(text) and text[scan].isspace():
            scan += 1
        if scan >= len(text) or text[scan] != "{":
            continue
        depth = 1
        scan += 1
        begin = scan
        while scan < len(text):
            if text[scan] == "{":
                depth += 1
            elif text[scan] == "}":
                depth -= 1
                if depth == 0:
                    return text[begin:scan]
            scan += 1
    return None


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(["\\boxed{", "\\boxed", "\\box", "ed", "{", "}", "}", " ",
                                 "\t", "\u2028", "\u0085", "\u3000", "1", "२"]),
                max_size=30).map("".join))
def test_last_boxed_equals_rescan(text):
    assert _last_boxed(text) == _spec_last_boxed(text)


def test_extract_answer_on_many_unclosed_boxes_is_linear():
    # A rescan from each of 20,000 unclosed markers takes minutes.
    text = "\\boxed{" * 20_000
    started = time.perf_counter()
    assert extract_answer(text) is None
    assert time.perf_counter() - started < 1
