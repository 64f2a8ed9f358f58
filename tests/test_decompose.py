import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep.answers import AnswerValue, format_exact
from ganitprep.corpus import Language, Operation, Source
from ganitprep.decompose import (
    apply_decomposition,
    decompose_div,
    decompose_mul,
    extract_operands,
    render_trace,
)
from ganitprep.errors import PipelineError
from ganitprep.evaluate import Verdict, extract_answer, grade


class TestDecomposeMul:
    def test_worked_example(self):
        trace = decompose_mul(543, 27)
        assert trace.segments == (500, 40, 3)
        assert trace.partials == (13500, 1080, 81)
        assert trace.total == 14661
        assert sum(trace.partials) == 543 * 27

    def test_zero_multiplicand(self):
        trace = decompose_mul(0, 7)
        assert trace.segments == (0,)
        assert trace.partials == (0,)
        assert trace.total == 0

    def test_zero_digit_omitted(self):
        # oracle: plain multiplication
        trace = decompose_mul(507, 12)
        assert trace.segments == (500, 7)
        assert trace.partials == (6000, 84)
        assert trace.total == 507 * 12 == 6084

    def test_zero_multiplier(self):
        trace = decompose_mul(5, 0)
        assert trace.total == 0
        assert trace.partials == (0,)

    @pytest.mark.parametrize("a,b", [(-1, 2), (2, -1)])
    def test_negative_rejected(self, a, b):
        with pytest.raises(PipelineError, match=r"^(multiplicand|multiplier) must be >= 0, "
                                                r"got -1$"):
            decompose_mul(a, b)

    def test_non_integer_rejected(self):
        with pytest.raises(PipelineError,
                           match=r"^multiplicand must be an integer, got 1\.5$"):
            decompose_mul(1.5, 2)

    def test_limit_rejected(self):
        with pytest.raises(PipelineError, match=r"^multiplicand must be < 10\^18, got "):
            decompose_mul(10**18, 2)


class TestDecomposeDiv:
    def test_worked_example_invariants(self):
        trace = decompose_div(968, 16)
        assert trace.total == Fraction(121, 2)
        assert sum(trace.segments) == 968
        assert sum(trace.partials) == Fraction(121, 2)

    def test_divisor_one(self):
        trace = decompose_div(42, 1)
        assert trace.segments == (40, 2)
        assert trace.partials == (40, 2)
        assert trace.total == 42

    def test_remainder_segment(self):
        # oracle: exact division 1234/5 = 246.8
        trace = decompose_div(1234, 5)
        assert trace.segments == (1000, 200, 30, 4)
        assert trace.partials == (200, 40, 6, Fraction(4, 5))
        assert trace.total == Fraction(1234, 5)

    def test_zero_dividend(self):
        trace = decompose_div(0, 9)
        assert trace.segments == (0,)
        assert trace.total == 0

    def test_dividend_smaller_than_divisor(self):
        trace = decompose_div(8, 16)
        assert trace.segments == (8,)
        assert trace.partials == (Fraction(1, 2),)

    def test_division_by_zero(self):
        with pytest.raises(PipelineError, match="^division by zero$"):
            decompose_div(10, 0)

    def test_negative_rejected(self):
        with pytest.raises(PipelineError, match="^dividend must be >= 0, got -4$"):
            decompose_div(-4, 2)
        with pytest.raises(PipelineError, match="^divisor must be >= 1, got -2$"):
            decompose_div(4, -2)


class TestSweeps:
    def test_mul_identity_sweep(self):
        rng = random.Random(20240101)
        for _ in range(2000):
            a = rng.randrange(10**9)
            b = rng.randrange(10**4)
            trace = decompose_mul(a, b)
            assert sum(trace.partials) == a * b
            assert sum(trace.segments) == a
            nonzero_digits = sum(ch != "0" for ch in str(a)) if a else 1
            assert len(trace.segments) == nonzero_digits

    def test_div_identity_sweep(self):
        rng = random.Random(20240102)
        for _ in range(2000):
            a = rng.randrange(10**9)
            b = rng.randrange(1, 10**4)
            trace = decompose_div(a, b)
            assert sum(trace.partials) == Fraction(a, b)
            assert sum(trace.segments) == a
            fractional = [p for p in trace.partials if p.denominator != 1]
            assert len(fractional) <= 1
            if fractional:
                assert trace.partials[-1] == fractional[0]

    def test_mul_segments_descending_distinct_places(self):
        rng = random.Random(20240103)
        for _ in range(500):
            a = rng.randrange(1, 10**9)
            trace = decompose_mul(a, 3)
            places = [len(str(s)) for s in trace.segments]
            assert places == sorted(places, reverse=True)
            assert len(set(places)) == len(places)


class TestFormatExact:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(121, 2), "60.5"),
        (Fraction(4, 5), "0.8"),
        (Fraction(10, 3), "3 + 1/3"),
        (Fraction(1, 3), "1/3"),
        (Fraction(7), "7"),
        (Fraction(1, 8), "0.125"),
        (Fraction(-121, 2), "-60.5"),
        (Fraction(-10, 3), "-10/3"),
    ])
    def test_rendering(self, value, expected):
        assert format_exact(value) == expected


class TestRenderTrace:
    def test_english_multiplication_layout(self):
        text = render_trace(decompose_mul(543, 27))
        lines = text.splitlines()
        assert "543 = 500 + 40 + 3" in lines
        assert "500 × 27 = 13500" in lines
        assert "40 × 27 = 1080" in lines
        assert "3 × 27 = 81" in lines
        assert "13500 + 1080 + 81 = 14661" in lines
        assert lines[-1] == "Final Answer: 543 multiplied by 27 equals 14661."

    def test_zero_case(self):
        text = render_trace(decompose_mul(0, 7))
        assert "0 × 7 = 0" in text
        assert text.rstrip().endswith("Final Answer: 0 multiplied by 7 equals 0.")

    def test_division_components(self):
        # derived from the division trace of 1234/5
        text = render_trace(decompose_div(1234, 5))
        lines = text.splitlines()
        assert "1000 ÷ 5 = 200" in lines
        assert "4 ÷ 5 = 0.8" in lines
        assert "200 + 40 + 6 + 0.8 = 246.8" in lines
        assert lines[-1] == "Final Answer: 1234 divided by 5 equals 246.8."

    def test_deterministic(self):
        trace = decompose_div(968, 16)
        assert render_trace(trace) == render_trace(trace)
        assert render_trace(trace, Language.HINDI) == render_trace(trace, Language.HINDI)

    def test_hindi_uses_ascii_digits_and_fixed_template(self):
        text = render_trace(decompose_div(968, 16), Language.HINDI)
        assert "968 को स्थानीय मान घटकों में विभाजित करें:" in text
        assert "960 ÷ 16 = 60" in text
        assert text.rstrip().endswith("अंतिम उत्तर: 968 भागा 16 बराबर 60.5 है।")
        assert not any("०" <= ch <= "९" for ch in text)


def _hawp_problem(pid, operation, solution):
    return make_problem(pid, language=Language.HINDI, source=Source.HAWP,
                        operation=operation, raw_solution=solution)


def _int_error(digits: str) -> str:
    """What int() says of a digit string past its digit limit (worded per version)."""
    with pytest.raises(ValueError) as caught:
        int(digits)
    return str(caught.value)


class TestApplyDecomposition:
    def _manifest(self):
        return make_manifest([
            _hawp_problem("p-add", Operation.ADD, "12 + 5 = 17"),
            _hawp_problem("p-sub", Operation.SUB, "50 - 23 = 27"),
            _hawp_problem("p-mul", Operation.MUL, "543 × 27 = 14661"),
            _hawp_problem("p-div", Operation.DIV, "968 ÷ 16 = 60.5"),
        ])

    def test_operation_filter(self):
        outcome = apply_decomposition(self._manifest())
        assert outcome.rewritten == 2
        assert outcome.skipped == 0
        by_id = {p.id: p for p in outcome.manifest}
        assert by_id["p-add"].raw_solution == "12 + 5 = 17"
        assert by_id["p-sub"].raw_solution == "50 - 23 = 27"
        assert "500 × 27 = 13500" in by_id["p-mul"].raw_solution
        assert "भागफलों" in by_id["p-div"].raw_solution

    def test_rewrite_matches_render(self):
        outcome = apply_decomposition(self._manifest())
        expected = render_trace(decompose_mul(543, 27), Language.HINDI)
        assert outcome.manifest.by_id("p-mul").raw_solution == expected

    def test_unparseable_flagged_and_kept(self):
        manifest = make_manifest([
            _hawp_problem("p-ok", Operation.MUL, "5 × 3 = 15"),
            _hawp_problem("p-bad", Operation.DIV, "no computation line"),
        ])
        outcome = apply_decomposition(manifest)
        assert outcome.rewritten == 1
        assert outcome.skipped == 1
        assert outcome.flagged == {"p-bad": "operand extraction failed"}
        assert outcome.manifest.by_id("p-bad").raw_solution == "no computation line"

    @pytest.mark.parametrize("operation,line,exact", [
        (Operation.MUL, "12 × 4 = 48.", 48),
        (Operation.MUL, "1000 × 5 = 5,000", 5000),
        (Operation.DIV, "10 / 4 = 5/2", Fraction(5, 2)),
        (Operation.DIV, "७ ÷ २ = ३.५", Fraction(7, 2)),
        # The stated result is read as any answer is: each spelling of the value.
        (Operation.DIV, "10 ÷ 3 = 3 + 1/3", Fraction(10, 3)),
        (Operation.DIV, "10 ÷ 4 = \\frac{5}{2}", Fraction(5, 2)),
        (Operation.MUL, "12 × 4 = ४८।", 48),
        (Operation.MUL, "12 × 4 = $48$", 48),
        (Operation.MUL, "12 × 4 = +48", 48),
        (Operation.MUL, "12 × 4 = 48 सेब", 48),  # prose, read as any answer is
        (Operation.MUL, "12 × 4 = 48,", 48),
        # A result with no digit states none: the line before it is read.
        (Operation.MUL, "5 × 3 = 15\n5 × 3 = fifteen", 15),
    ])
    def test_stated_exact_result_rewritten(self, operation, line, exact):
        outcome = apply_decomposition(make_manifest([_hawp_problem("p", operation, line)]))
        assert (outcome.rewritten, outcome.flagged) == (1, {})
        text = outcome.manifest.by_id("p").raw_solution
        assert f"बराबर {format_exact(exact)} है।" in text

    def test_preserves_size_and_ids(self):
        manifest = self._manifest()
        outcome = apply_decomposition(manifest)
        assert len(outcome.manifest) == len(manifest)
        assert [p.id for p in outcome.manifest] == [p.id for p in manifest]

    @pytest.mark.parametrize("problem,reason", [
        (_hawp_problem("p-bad", Operation.DIV, "5 ÷ 0 = 0"),
         "decomposition failed: division by zero"),
        (_hawp_problem("p-bad", Operation.MUL, f"{10**18} × 2 = {2 * 10**18}"),
         f"decomposition failed: multiplicand must be < 10^18, got {10**18}"),
        (make_problem("p-bad", operation=Operation.MUL,
                      extras={"operand_a": -3, "operand_b": 4}),
         "decomposition failed: multiplicand must be >= 0, got -3"),
        (make_problem("p-bad", operation=Operation.MUL,
                      extras={"operand_a": float("inf"), "operand_b": 4}),
         "operand extraction failed"),
        *((make_problem("p-bad", operation=Operation.MUL,
                        extras={"operand_a": value, "operand_b": 2}),
           "operand extraction failed") for value in (3.7, True, "12")),
        *((_hawp_problem("p-bad", Operation.MUL, line),
           f"operand extraction failed: {line.removeprefix('कुल = ')!r} has an operand "
           "that is not a plain integer")
          for line in ("कुल = 1,234 × 5 = 6,170", "12.5 × 4 = 50")),
        (_hawp_problem("p-bad", Operation.MUL, "Total 12 × 4 = 50"),
         "stated result 50 is not the exact 48"),
        (_hawp_problem("p-bad", Operation.MUL, "12 × 4 = -48"),
         "stated result -48 is not the exact 48"),
        # The last line states a wrong result; the line before it is not read instead.
        (_hawp_problem("p-bad", Operation.MUL, "5 × 3 = 15\n12 × 4 = -48"),
         "stated result -48 is not the exact 48"),
        # "a b/c" is no form the answer grammar reads, so it states no value.
        (_hawp_problem("p-bad", Operation.DIV, "10 ÷ 3 = 3 1/3"),
         "stated result 3 1/3 is not the exact 3 + 1/3"),
        (_hawp_problem("p-bad", Operation.MUL, f"12 × 4 = {'9' * 5000}"), _int_error("9" * 5000)),
    ], ids=["zero-divisor", "operand-at-limit", "negative-extras", "infinite-extras",
            "float-extras", "bool-extras", "string-extras", "thousands-comma",
            "decimal-point", "wrong-result", "negative-result", "last-line-wrong",
            "mixed-with-space", "result-past-digit-limit"])
    def test_undecomposable_flagged_and_kept(self, problem, reason):
        manifest = make_manifest([_hawp_problem("p-ok", Operation.MUL, "5 × 3 = 15"),
                                  problem])
        outcome = apply_decomposition(manifest)
        assert (outcome.rewritten, outcome.skipped) == (1, 1)
        assert outcome.flagged == {"p-bad": reason}
        assert outcome.manifest.by_id("p-bad") == problem


_TO_DEVANAGARI = str.maketrans("0123456789", "०१२३४५६७८९")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Operation.MUL, Operation.DIV]), st.integers(0, 10**9),
       st.integers(1, 10**4), st.sampled_from(list(Language)), st.booleans(), st.booleans(),
       st.booleans())
def test_decompose_accepts_the_result_it_would_write(operation, a, b, language, as_frac,
                                                    devanagari, danda):
    # Quotients that do not terminate included: format_exact writes them "q + r/b".
    mul = operation is Operation.MUL
    exact = Fraction(a * b) if mul else Fraction(a, b)
    stated = (f"\\frac{{{exact.numerator}}}{{{exact.denominator}}}" if as_frac
              else format_exact(exact))
    line = f"{a} {'×' if mul else '÷'} {b} = {stated}{'।' if danda else ''}"
    problem = make_problem("p", language=language, source=Source.HAWP, operation=operation,
                           raw_solution=line.translate(_TO_DEVANAGARI) if devanagari else line)
    outcome = apply_decomposition(make_manifest([problem]))
    assert (outcome.rewritten, outcome.flagged) == (1, {})
    assert f" {format_exact(exact)}" in outcome.manifest.by_id("p").raw_solution


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Operation.MUL, Operation.DIV]), st.integers(0, 10**6 - 1),
       st.integers(1, 10**4 - 1), st.sampled_from(list(Language)))
@example(Operation.DIV, 10, 3, Language.ENGLISH)
@example(Operation.DIV, 22, 7, Language.HINDI)
def test_decomposed_solution_grades_its_exact_result(operation, a, b, language):
    # A quotient that does not terminate ends "... equals 3 + 1/3.": still the value.
    mul = operation is Operation.MUL
    exact = Fraction(a * b) if mul else Fraction(a, b)
    reference = extract_answer(render_trace((decompose_mul if mul else decompose_div)(a, b),
                                            language))
    assert reference == AnswerValue.from_rational(exact)
    boxed = f"\\boxed{{{exact.numerator}/{exact.denominator}}}"
    assert grade(extract_answer(boxed), reference) is Verdict.CORRECT


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([Operation.MUL, Operation.DIV]),
                          st.integers(), st.integers()), max_size=6))
def test_apply_decomposition_never_raises(operand_pairs):
    manifest = make_manifest([
        make_problem(f"p{i}", operation=op, extras={"operand_a": a, "operand_b": b})
        for i, (op, a, b) in enumerate(operand_pairs)
    ])
    outcome = apply_decomposition(manifest)
    assert outcome.rewritten + outcome.skipped == len(operand_pairs)


class TestExtractOperands:
    def test_devanagari_digits(self):
        problem = _hawp_problem("p", Operation.MUL, "५४३ × २७ = १४६६१")
        assert extract_operands(problem) == (543, 27, Operation.MUL, "14661")

    def test_extras_override(self):
        problem = make_problem("p", source=Source.HAWP, language=Language.HINDI,
                               operation=Operation.DIV,
                               extras={"operand_a": 968, "operand_b": 16})
        assert extract_operands(problem) == (968, 16, Operation.DIV, None)

    def test_last_matching_line_wins(self):
        problem = _hawp_problem("p", Operation.MUL, "5 × 3 = 15\n20 × 4 = 80")
        assert extract_operands(problem) == (20, 4, Operation.MUL, "80")

    def test_ascii_operators(self):
        problem = _hawp_problem("p", Operation.DIV, "91 / 7 = 13")
        assert extract_operands(problem) == (91, 7, Operation.DIV, "13")

    def test_operator_mismatch_refused(self):
        problem = _hawp_problem("p", Operation.MUL, "91 / 7 = 13")
        assert extract_operands(problem) is None
