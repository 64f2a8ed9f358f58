import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep.answers import AnswerKind, AnswerValue, map_devanagari_digits
from ganitprep.corpus import Difficulty, Language, Source
from ganitprep.errors import PipelineError
from ganitprep.evaluate import (
    AccuracyTally,
    CellStats,
    GradeRecord,
    Verdict,
    accuracy_report,
    extract_answer,
    fleiss_kappa,
    grade,
    grade_predictions,
    half_up_percent,
    load_grades,
    read_counts_matrix,
    read_predictions,
    save_grades,
)
from ganitprep.structure import StructuredSolution


def _expected_value(expect):
    if expect is None:
        return None
    if expect["kind"] == "rational":
        num, _, den = expect["value"].partition("/")
        return AnswerValue.from_rational(Fraction(int(num), int(den or 1)))
    if expect["kind"] == "decimal":
        return AnswerValue.from_decimal(expect["value"])
    return AnswerValue.from_expression(expect["value"])


def _load_cases(data_dir):
    lines = (data_dir / "extraction_cases.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in lines.splitlines() if line.strip()]


class TestExtractionCorpus:
    def test_corpus_is_large_enough(self, data_dir):
        assert len(_load_cases(data_dir)) >= 40

    def test_full_agreement(self, data_dir):
        failures = []
        for case in _load_cases(data_dir):
            extracted = extract_answer(case["text"])
            expected = _expected_value(case["expect"])
            if expected is None:
                if extracted is not None:
                    failures.append((case["case"], "expected none", extracted))
                continue
            if extracted is None:
                failures.append((case["case"], "got none", expected))
            elif grade(extracted, expected) is not Verdict.CORRECT:
                failures.append((case["case"], extracted, expected))
        assert not failures, failures

    def test_contains_reference_values(self, data_dir):
        texts = " ".join(case["text"] for case in _load_cases(data_dir))
        for needle in ("14661", "60.5", "100y^2 - 44x^2 = 275"):
            assert needle in texts
        values = [case["expect"]["value"] for case in _load_cases(data_dir)
                  if case["expect"]]
        assert "2/3" in values
        assert "1/6" in values


class TestExtractAnswer:
    def test_trailing_text_after_boxed(self):
        value = extract_answer("\\boxed{100y^2 - 44x^2 = 275} as required.")
        assert value.kind is AnswerKind.EXPRESSION
        assert value.expression == "100y^2 - 44x^2 = 275"

    def test_devanagari_decimal(self):
        value = extract_answer("उत्तर: १२.५")
        assert value == AnswerValue.from_rational(Fraction(25, 2))

    def test_rendered_trace_round_trips(self):
        from ganitprep.decompose import decompose_div, decompose_mul, render_trace

        en = render_trace(decompose_mul(543, 27))
        assert extract_answer(en) == AnswerValue.from_rational(14661)
        hi = render_trace(decompose_div(968, 16), Language.HINDI)
        assert extract_answer(hi) == AnswerValue.from_rational(Fraction(121, 2))

    @pytest.mark.parametrize("text,expected", [
        ("Final Answer: 5\nthen 8 more\nFinal Answer:", 8),  # on to the last number
        ("#### 3\nso 9 in all\n#### ", 9),
        ("Final Answer:\n#### 12", 12),  # on to the marker line
    ])
    def test_empty_last_answer_line_falls_through(self, text, expected):
        assert extract_answer(text) == AnswerValue.from_rational(expected)

    def test_number_ending_a_sentence(self):
        assert extract_answer("#### 14661.") == AnswerValue.from_rational(14661)

    @pytest.mark.parametrize("text,expected", [
        ("उत्तर प्रदेश के 5 शहरों में 4 स्कूल हैं।\nकुल = 20", 20),  # "north", a word of its own
        ("उत्तरी भाग में 7 पेड़ हैं\nकुल 30", 30),  # a vowel sign goes on with the word
        ("Final Answers vary: 3\nso total 20", 20),
    ], ids=["uttar-pradesh", "uttari", "final-answers"])
    def test_marker_inside_a_longer_word_is_no_marker(self, text, expected):
        assert extract_answer(text) == AnswerValue.from_rational(expected)

    @pytest.mark.parametrize("text,expected", [
        ("उत्तर 42", 42), ("उत्तर:42", 42), ("Final Answer is 42", 42),
        ("अंतिम उत्तर - 42", 42), ("Final Answer42", 42),
        ("Final Answer = 42", 42), ("उत्तर = 42", 42), ("अंतिम उत्तर = 3/4", Fraction(3, 4)),
    ])
    def test_marker_followed_by_no_word_still_counts(self, text, expected):
        assert extract_answer(f"{text}\nthen 7") == AnswerValue.from_rational(expected)


_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=1000),
)
_expressions = st.from_regex(r"[0-9]{1,3}[a-z]\^[0-9] [+\-] [0-9]{1,3}[a-z] = [0-9]{1,3}",
                             fullmatch=True)


_decimals = st.from_regex(r"-?[0-9]{1,4}\.[0-9]{1,6}", fullmatch=True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.builds(AnswerValue.from_rational, _rationals),
    st.builds(AnswerValue.from_decimal, _decimals),
    st.builds(AnswerValue.from_expression, _expressions),
))
def test_extraction_idempotent_on_rendered_values(value):
    assert extract_answer(f"Final Answer: {value.render()}") == value


@settings(max_examples=80, deadline=None)
@given(_rationals, _rationals)
def test_grade_symmetry_numeric(a, b):
    va, vb = AnswerValue.from_rational(a), AnswerValue.from_rational(b)
    assert grade(va, vb) == grade(vb, va)


def test_devanagari_digit_bijection():
    devanagari = [chr(0x0966 + i) for i in range(10)]
    mapped = map_devanagari_digits("".join(devanagari))
    assert mapped == "0123456789"
    assert len(set(devanagari)) == 10


class TestGrade:
    def test_exact_rational(self):
        v = AnswerValue.from_rational(Fraction(2, 3))
        assert grade(v, AnswerValue.from_rational(Fraction(2, 3))) is Verdict.CORRECT

    def test_tolerance_boundary_accepts(self):
        # |1/3 - 0.333333| / (1/3) == 1e-6 exactly
        predicted = AnswerValue.from_rational(Fraction(1, 3))
        reference = AnswerValue.from_decimal("0.333333")
        rel = abs(Fraction(1, 3) - Fraction(333333, 10**6)) / Fraction(1, 3)
        assert rel == Fraction(1, 10**6)
        assert grade(predicted, reference) is Verdict.CORRECT

    def test_beyond_tolerance_rejects(self):
        predicted = AnswerValue.from_rational(Fraction(1, 3))
        reference = AnswerValue.from_decimal("0.333")
        assert grade(predicted, reference) is Verdict.INCORRECT

    def test_kind_mismatch(self):
        expr = AnswerValue.from_expression("x+1")
        two = AnswerValue.from_rational(2)
        assert grade(expr, two) is Verdict.INCORRECT

    def test_unparseable(self):
        assert grade(None, AnswerValue.from_rational(1)) is Verdict.UNPARSEABLE

    def test_expression_normalized_equality(self):
        a = AnswerValue.from_expression("\\boxed{100y^2 -  44x^2 = 275}")
        b = AnswerValue.from_expression("100y^2 - 44x^2 = 275")
        assert grade(a, b) is Verdict.CORRECT

    def test_zero_reference_exact_only(self):
        zero = AnswerValue.from_rational(0)
        assert grade(AnswerValue.from_rational(0), zero) is Verdict.CORRECT
        assert grade(AnswerValue.from_rational(Fraction(1, 10**9)), zero) \
            is Verdict.INCORRECT


class TestGradeRecord:
    def test_verdict_invariant(self):
        with pytest.raises(PipelineError, match="^p: Unparseable verdict must pair with an "
                                                "absent prediction$"):
            GradeRecord("p", "m", None, AnswerValue.from_rational(1), Verdict.CORRECT)

    def test_round_trip_file(self, tmp_path):
        records = [
            GradeRecord("p1", "m", AnswerValue.from_rational(Fraction(1, 2)),
                        AnswerValue.from_rational(Fraction(1, 2)), Verdict.CORRECT),
            GradeRecord("p2", "m", None, AnswerValue.from_expression("x+1"),
                        Verdict.UNPARSEABLE),
        ]
        path = tmp_path / "grades.jsonl"
        save_grades(records, path)
        assert load_grades(path) == records

    def test_round_trip_line_separators(self, tmp_path):
        records = [
            GradeRecord("p\u20281", "m\u0085", None,
                        AnswerValue.from_expression("x\u2029+1"), Verdict.UNPARSEABLE),
        ]
        path = tmp_path / "grades.jsonl"
        save_grades(records, path)
        assert load_grades(path) == records


def _grade_line(**changes) -> str:
    record = GradeRecord("p1", "m", AnswerValue.from_rational(2),
                         AnswerValue.from_rational(2), Verdict.CORRECT).to_dict()
    record.update(changes)
    return json.dumps(record, ensure_ascii=False)


_GRADED = make_manifest([make_problem(pid) for pid in ("p1", "p\u20282", "p3")])


def read_verdicts(*paths):
    """The report of grades files over ``_GRADED``, tallied as ``evaluate
    report`` tallies them: each line checked and counted as it is read."""
    tally = AccuracyTally(_GRADED)
    for path in paths:
        tally.add_file(path)
    return tally.report()


class TestReadVerdicts:
    def test_matches_full_records(self, tmp_path):
        records = [
            GradeRecord("p1", "m", AnswerValue.from_rational(Fraction(1, 2)),
                        AnswerValue.from_rational(Fraction(1, 3)), Verdict.INCORRECT),
            GradeRecord("p\u20282", "m\u0085", None,
                        AnswerValue.from_expression("x+1"), Verdict.UNPARSEABLE),
            GradeRecord("p3", "n", AnswerValue.from_expression("y"),
                        AnswerValue.from_expression("y"), Verdict.CORRECT),
        ]
        path = tmp_path / "grades.jsonl"
        save_grades(records, path)
        assert read_verdicts(path) == accuracy_report(load_grades(path), _GRADED)

    def test_answers_are_not_decoded(self, tmp_path):
        # A reference no AnswerValue can be built from does not stop a report.
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line(reference={"kind": "Bogus"}) + "\n", encoding="utf-8")
        assert read_verdicts(path).cells == {
            ("m", Language.ENGLISH, Source.GSM8K, Difficulty.UNCLASSIFIED): CellStats(1, 0, 0)}
        with pytest.raises(PipelineError, match=re.escape(
                f"{path}:1: unreadable grade: 'Bogus' is not a valid AnswerKind")):
            load_grades(path)

    def test_second_grade_across_files_names_its_line(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_text(_grade_line() + "\n", encoding="utf-8")
        second.write_text(_grade_line(model_name="n") + "\n" + _grade_line() + "\n",
                          encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(
                f"{second}:2: second grade of problem 'p1' for model 'm'")):
            read_verdicts(first, second)

    @pytest.mark.parametrize("changes,message", [
        ({"verdict": "Maybe"}, "unknown verdict 'Maybe'"),
        ({"verdict": ["Correct"]}, "unknown verdict ['Correct']"),
        ({"verdict": "Unparseable"}, "Unparseable verdict must pair"),
        ({"predicted": None}, "Unparseable verdict must pair"),
        ({"model_name": None}, "missing field 'model_name'"),
        *(pytest.param({"verdict": "Unparseable", "predicted": value},
                       "Unparseable verdict must pair", id=f"predicted-{value!r}")
          for value in ([], "", 0, False)),
        *(pytest.param(changes, message, id=id) for id, changes, message in [
            ("predicted-str", {"predicted": "7"},
             "predicted must be an object or null, not str"),
            ("predicted-list", {"predicted": []},
             "predicted must be an object or null, not list"),
            ("no-reference", {"reference": None}, "missing field 'reference'"),
            ("reference-str", {"verdict": "Unparseable", "predicted": None, "reference": "7"},
             "reference must be an object, not str"),
        ]),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, changes, message):
        record = json.loads(_grade_line(**changes))
        for key in ("model_name", "reference"):  # None here: the key is absent
            if key in changes and changes[key] is None:
                del record[key]
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        for reader in (read_verdicts, load_grades):  # one message from both
            with pytest.raises(PipelineError, match=re.escape(f"{path}:3: {message}")):
                reader(path)

    @pytest.mark.parametrize("changes", [
        {"reference": "text"},
        {"predicted": "7"},
        {"reference": {"kind": "Rational", "rational": "x"}},
        {"reference": {"kind": "Rational", "rational": 5}},
        {"reference": {"kind": "Rational", "rational": "1/0"}},
        {"reference": {"kind": "Decimal", "decimal_text": "abc"}},
        {"reference": None},
        {"reference": {"kind": "Decimal", "decimal_text": "0.50"}},  # the retired kind
        *({"predicted": value} for value in ([], "", 0, False)),
    ])
    def test_wrong_typed_answer_names_path_and_line(self, tmp_path, changes):
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n" + _grade_line(**changes) + "\n",
                        encoding="utf-8")
        # A wrong shape is refused before decoding, a malformed value in it after.
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: ")
                           + "(unreadable grade: |(predicted|reference) must be an object)"):
            load_grades(path)

    @pytest.mark.parametrize("reader", [read_verdicts, load_grades])
    @pytest.mark.parametrize("key,value", [
        ("problem_id", 5), ("problem_id", [1]), ("model_name", None), ("model_name", 3)])
    def test_non_string_id_names_path_and_line(self, tmp_path, reader, key, value):
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n" + _grade_line(**{key: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(PipelineError,
                           match=re.escape(f"{path}:2: {key} is not a string")):
            reader(path)

    @pytest.mark.parametrize("reader", [read_verdicts, load_grades])
    @pytest.mark.parametrize("line", ["[]", "1", "null"])
    def test_non_object_line_names_path_and_line(self, tmp_path, reader, line):
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(PipelineError,
                           match=re.escape(f"{path}:2: record is not an object")):
            reader(path)

    @pytest.mark.parametrize("reader", [read_verdicts, load_grades])
    def test_deeply_nested_line_names_path_and_line(self, tmp_path, reader):
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n" + "[" * 100_000 + "]" * 100_000 + "\n",
                        encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: unreadable grade")):
            reader(path)

    @pytest.mark.parametrize("reader", [read_verdicts, load_grades])
    def test_invalid_json_names_path_and_line(self, tmp_path, reader):
        path = tmp_path / "grades.jsonl"
        path.write_text(_grade_line() + "\n{oops\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: unreadable grade")):
            reader(path)


class TestHalfUpPercent:
    @pytest.mark.parametrize("correct,total,expected", [
        (71, 100, 71),
        (2, 3, 67),     # 66.67 rounds up
        (1, 3, 33),     # 33.33 rounds down
        (1, 200, 1),    # exactly 0.5 rounds up
        (0, 5, 0),
        (5, 5, 100),
    ])
    def test_rounding(self, correct, total, expected):
        assert half_up_percent(correct, total) == expected


def _report_fixture():
    problems = [
        make_problem(f"g{i}", source=Source.GSM8K, difficulty=Difficulty.UNCLASSIFIED)
        for i in range(100)
    ]
    problems.append(make_problem("i-easy", source=Source.INDIMATHQA,
                                 difficulty=Difficulty.EASY))
    problems.append(make_problem("h-hard", source=Source.INDIMATHQA,
                                 language=Language.HINDI, difficulty=Difficulty.HARD))
    manifest = make_manifest(problems)
    one = AnswerValue.from_rational(1)
    grades = []
    for i in range(100):
        verdict = Verdict.CORRECT if i < 71 else Verdict.INCORRECT
        grades.append(GradeRecord(f"g{i}", "model-a", one, one, verdict))
    grades.append(GradeRecord("i-easy", "model-a", one, one, Verdict.CORRECT))
    grades.append(GradeRecord("h-hard", "model-a", None, one, Verdict.UNPARSEABLE))
    return manifest, grades


class TestAccuracyReport:
    def test_seventy_one_percent_cell(self):
        manifest, grades = _report_fixture()
        report = accuracy_report(grades, manifest)
        table = report.render_table()
        assert "71%" in table

    def test_column_grouping(self):
        manifest, grades = _report_fixture()
        table = accuracy_report(grades, manifest).render_table()
        lines = table.splitlines()
        assert "English Benchmarks" in lines[0]
        assert "Hindi Benchmarks" in lines[0]
        assert lines[0].index("English Benchmarks") < lines[0].index("Hindi Benchmarks")
        header = lines[1]
        assert "GSM8K" in header and "MATH" in header and "HAWP" in header
        assert header.count("Easy") == 2
        assert header.count("Medium") == 2
        assert header.count("Hard") == 2

    def test_empty_cell_placeholder(self):
        manifest, grades = _report_fixture()
        table = accuracy_report(grades, manifest).render_table()
        assert "—" in table

    def test_unknown_problem_id(self):
        manifest, grades = _report_fixture()
        ghost = GradeRecord("ghost", "model-a", None,
                            AnswerValue.from_rational(1), Verdict.UNPARSEABLE)
        with pytest.raises(PipelineError, match="ghost"):
            accuracy_report(grades + [ghost], manifest)

    def test_cell_counts_sum(self):
        manifest, grades = _report_fixture()
        report = accuracy_report(grades, manifest)
        assert sum(stats.total for stats in report.cells.values()) == len(grades)
        for stats in report.cells.values():
            assert stats.total == stats.correct + stats.incorrect + stats.unparseable
            assert 0 <= stats.percent <= 100

    def test_csv_companion(self):
        manifest, grades = _report_fixture()
        csv_text = accuracy_report(grades, manifest).to_csv()
        header = csv_text.splitlines()[0]
        assert header == ("model,language,source,difficulty,correct,incorrect,"
                          "unparseable,total,percent")
        assert "model-a,English,GSM8K,Unclassified,71,29,0,100,71" in csv_text

    def test_one_grade_per_model_and_problem(self):
        manifest, grades = _report_fixture()
        with pytest.raises(PipelineError,
                           match="second grade of problem 'g0' for model 'model-a'"):
            accuracy_report(grades + grades[:1], manifest)
        other = GradeRecord("g0", "model-b", None, AnswerValue.from_rational(1),
                            Verdict.UNPARSEABLE)
        assert accuracy_report(grades + [other], manifest).models() == ["model-a", "model-b"]

    def test_unplanned_pair_gets_trailing_column_under_its_language(self):
        manifest, grades = _report_fixture()
        manifest = make_manifest([*manifest, make_problem("syn-1", source=Source.SYNTHETIC)])
        one = AnswerValue.from_rational(1)
        grades.append(GradeRecord("syn-1", "model-a", one, one, Verdict.CORRECT))
        group_line, label_row, *_ = accuracy_report(grades, manifest).render_table().splitlines()
        assert label_row.split()[-1] == "Synthetic"
        assert label_row.count("Synthetic") == 1
        assert group_line.count("English Benchmarks") == 2
        assert (group_line.index("English Benchmarks") < group_line.index("Hindi Benchmarks")
                < group_line.rindex("English Benchmarks"))
        # The column's group label starts above it.
        assert group_line.rindex("English Benchmarks") == label_row.rindex("Synthetic")


class TestGradePredictions:
    def test_references_and_verdicts(self):
        manifest = make_manifest([
            make_problem("p1", raw_solution="2 + 2 = 4\n#### 4"),
            make_problem("p2", raw_solution="Final Answer: 9"),
        ])
        grades = grade_predictions(
            [("p1", "the answer is 4"), ("p2", "no clue")], manifest, "m")
        assert grades[0].verdict is Verdict.CORRECT
        assert grades[1].verdict is Verdict.UNPARSEABLE

    @pytest.mark.parametrize("final_answer,answer_section,expected", [
        (AnswerValue.from_rational(7), "Final Answer: 9", 7),  # final_answer first
        (None, "Final Answer: 9", 9),  # then the answer section
    ])
    def test_structured_reference_precedes_raw_solution(self, final_answer,
                                                        answer_section, expected):
        solution = StructuredSolution("d", "a", "t", "m", "c", answer_section,
                                      final_answer=final_answer)
        manifest = make_manifest([make_problem("p1", raw_solution="#### 5",
                                               structured_solution=solution)])
        (record,) = grade_predictions([("p1", f"#### {expected}")], manifest, "m")
        assert record.reference == AnswerValue.from_rational(expected)
        assert record.verdict is Verdict.CORRECT

    def test_missing_reference_errors(self):
        manifest = make_manifest([make_problem("p1", raw_solution="nothing here")])
        with pytest.raises(PipelineError, match="reference"):
            grade_predictions([("p1", "4")], manifest, "m")


class TestReadPredictions:
    def test_lone_carriage_return_stays_in_output(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"p1\tstep one\rstep two\\n#### 4\n")
        assert read_predictions(path) == [("p1", "step one\rstep two\n#### 4")]

    def test_crlf_lines_read_as_lf_lines(self, tmp_path):
        crlf, lf = tmp_path / "crlf.tsv", tmp_path / "lf.tsv"
        crlf.write_bytes(b"p1\t4 \r\n\r\np2\tx\\ny\r\n")
        lf.write_bytes(b"p1\t4 \n\np2\tx\\ny\n")
        assert read_predictions(crlf) == read_predictions(lf) == [
            ("p1", "4 "), ("p2", "x\ny")]

    @pytest.mark.parametrize("content", [b"p1 4\n", b"p\xff\t4\n"])
    def test_bad_line_names_path_and_line(self, tmp_path, content):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"p0\t1\n" + content)
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: ")):
            read_predictions(path)


class TestFleissKappa:
    def test_counts_comment_with_line_separator(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# raters\u2028 a, b, c\n3 0\n2 1\n", encoding="utf-8")
        assert read_counts_matrix(path) == [[3, 0], [2, 1]]

    def test_unanimous_is_one(self):
        counts = [[4, 0, 0], [0, 4, 0], [4, 0, 0]]
        assert fleiss_kappa(counts) == 1.0

    def test_derived_example_exact(self):
        # brute-force oracle straight from the definition
        counts = [[3, 0], [2, 1]]
        n = 3
        per_item = [Fraction(sum(c * (c - 1) for c in row), n * (n - 1))
                    for row in counts]
        p_bar = sum(per_item) / len(counts)
        total = len(counts) * n
        marginals = [Fraction(sum(row[j] for row in counts), total) for j in range(2)]
        p_exp = sum(p * p for p in marginals)
        expected = (p_bar - p_exp) / (1 - p_exp)
        assert p_bar == Fraction(2, 3)
        assert p_exp == Fraction(13, 18)
        assert expected == Fraction(-1, 5)
        assert abs(fleiss_kappa(counts) - (-0.2)) < 1e-12

    def test_permutation_invariance(self):
        rng = random.Random(99)
        counts = [[2, 1, 0], [1, 1, 1], [0, 0, 3], [3, 0, 0], [1, 2, 0]]
        baseline = fleiss_kappa(counts)
        for _ in range(100):
            shuffled = counts[:]
            rng.shuffle(shuffled)
            assert fleiss_kappa(shuffled) == baseline

    def test_range_bounds(self):
        rng = random.Random(123)
        for _ in range(200):
            items = rng.randrange(2, 8)
            categories = rng.randrange(2, 5)
            n = rng.randrange(2, 6)
            counts = []
            for _ in range(items):
                row = [0] * categories
                for _ in range(n):
                    row[rng.randrange(categories)] += 1
                counts.append(row)
            try:
                kappa = fleiss_kappa(counts)
            except PipelineError:
                continue  # degenerate marginals with imperfect agreement is impossible
            assert -1.0 <= kappa <= 1.0

    def test_degenerate_marginals_unanimous(self):
        assert fleiss_kappa([[3, 0], [3, 0]]) == 1.0

    def test_row_sum_validation(self):
        with pytest.raises(PipelineError, match="sums to"):
            fleiss_kappa([[3, 0], [1, 1]])

    def test_single_rater_rejected(self):
        with pytest.raises(PipelineError, match="two raters"):
            fleiss_kappa([[1, 0], [0, 1]])
