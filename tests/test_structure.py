import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganitprep.corpus import Language
from ganitprep.errors import PipelineError
from ganitprep.structure import (
    FINE_TUNE_BODY,
    HEADINGS_EN,
    HEADINGS_HI,
    PromptName,
    StructuredSolution,
    emit_training_config,
    get_template,
    parse_structured,
    render_prompt,
    render_structured,
)
from importlib import resources


def _minimal(**overrides):
    fields = dict(
        data_identification="given values",
        problem_analysis="what is asked",
        theoretical_framework="the rule",
        methodology_development="the plan",
        computation="the arithmetic",
        answer="42",
    )
    fields.update(overrides)
    return StructuredSolution(**fields)


class TestParse:
    def test_probability_exemplar(self, data_dir):
        text = (data_dir / "exemplar_probability.txt").read_text(encoding="utf-8")
        solution = parse_structured(text)
        assert "2 men and 2 women" in solution.data_identification
        assert "C(4, 2)" in solution.methodology_development
        for value in ("\\frac{1}{6}", "\\frac{2}{3}"):
            assert value in solution.answer
        assert solution.answer.count("\\frac{1}{6}") == 2

    def test_hyperbola_exemplar(self, data_dir):
        text = (data_dir / "exemplar_hyperbola.txt").read_text(encoding="utf-8")
        solution = parse_structured(text)
        assert "100y^2 - 44x^2 = 275" in solution.answer
        assert "\\frac{25}{4}" in solution.computation

    def test_round_trip_on_exemplars(self, data_dir):
        for name in ("exemplar_probability.txt", "exemplar_hyperbola.txt"):
            text = (data_dir / name).read_text(encoding="utf-8")
            solution = parse_structured(text)
            assert parse_structured(render_structured(solution)) == solution

    def test_missing_section_named(self):
        text = render_structured(_minimal())
        broken = text.replace("Theoretical Framework:\nthe rule\n\n", "")
        with pytest.raises(PipelineError, match="missing section: Theoretical Framework"):
            parse_structured(broken)

    def test_duplicate_section_rejected(self):
        text = render_structured(_minimal())
        with pytest.raises(PipelineError, match="duplicated section"):
            parse_structured(text + "\nComputation:\nagain\n")

    def test_out_of_order_rejected(self):
        text = (
            "Problem Analysis:\nb\n\nData Identification:\na\n\n"
            "Theoretical Framework:\nc\n\nMethodology Development:\nd\n\n"
            "Computation:\ne\n\nSolution:\nf\n"
        )
        with pytest.raises(PipelineError, match="out of order"):
            parse_structured(text)

    def test_empty_section_rejected(self):
        text = (
            "Data Identification:\na\n\nProblem Analysis:\nb\n\n"
            "Theoretical Framework:\nc\n\nMethodology Development:\nd\n\n"
            "Computation:\n\nSolution:\nf\n"
        )
        with pytest.raises(PipelineError, match="empty section: Computation"):
            parse_structured(text)

    def test_answer_alias_accepted(self):
        text = render_structured(_minimal()).replace("Solution:", "Answer:")
        solution = parse_structured(text)
        assert solution.answer == "42"

    def test_markdown_decorations_tolerated(self):
        text = render_structured(_minimal())
        for heading in HEADINGS_EN:
            text = text.replace(f"{heading}:", f"### **{heading}:**")
        assert parse_structured(text) == _minimal()


class TestRender:
    def test_canonical_uses_solution_heading(self):
        text = render_structured(_minimal())
        assert "Solution:" in text
        assert "Answer:" not in text

    def test_six_heading_lines(self):
        text = render_structured(_minimal())
        lines = text.splitlines()
        for heading in HEADINGS_EN:
            assert f"{heading}:" in lines

    def test_hindi_headings_fixed_table(self):
        solution = _minimal()
        text = render_structured(solution, Language.HINDI)
        lines = text.splitlines()
        for heading in HEADINGS_HI:
            assert f"{heading}:" in lines
        for body in solution.sections():
            assert body in text

    def test_hindi_round_trip(self):
        solution = _minimal()
        assert parse_structured(render_structured(solution, Language.HINDI)) == solution

    def test_byte_stable(self):
        assert render_structured(_minimal()) == render_structured(_minimal())

    def test_empty_body_rejected_at_construction(self):
        with pytest.raises(PipelineError, match="empty section"):
            _minimal(computation="  ")


from ganitprep.structure import _HEADING_LINE_RE

_body = st.text(
    alphabet=string.ascii_letters + string.digits + " +-*/=.,()",
    min_size=1, max_size=60,
).filter(lambda s: s.strip() and not _HEADING_LINE_RE.match(s))


@settings(max_examples=120, deadline=None)
@given(st.lists(_body, min_size=6, max_size=6),
       st.sampled_from([Language.ENGLISH, Language.HINDI]))
def test_round_trip_property(bodies, language):
    solution = StructuredSolution(*[b.strip() for b in bodies])
    assert parse_structured(render_structured(solution, language)) == solution


# Letters whose case mappings leave ASCII: the long s, the dotless and dotted
# i, and the Kelvin sign. An ignore-case match takes each of them.
_CASE_VARIANTS = {"s": "sSſ", "i": "iIıİ", "k": "kK\u212a"}


@st.composite
def _case_mapped(draw, heading):
    return "".join(draw(st.sampled_from(_CASE_VARIANTS.get(c.lower(), c.lower() + c.upper())))
                   for c in heading)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_case_mapped_headings_parse_or_raise_structure_error(data):
    names = [*HEADINGS_EN[:5], data.draw(st.sampled_from(["Solution", "Answer"]))]
    headings = [data.draw(_case_mapped(name)) for name in names]
    text = "\n\n".join(f"{heading}:\n{body}"
                        for heading, body in zip(headings, _minimal().sections()))
    if all(heading.lower() == name.lower() for heading, name in zip(headings, names)):
        assert parse_structured(text) == _minimal()
    else:  # a heading whose lowercase is no heading is body text: a section is missing
        with pytest.raises(PipelineError, match="missing section"):
            parse_structured(text)


class TestPrompts:
    def test_fine_tune_matches_checked_in_fixture(self):
        fixture = (resources.files("ganitprep") / "data" / "templates" /
                   "finetune_prompt.txt").read_text(encoding="utf-8")
        assert FINE_TUNE_BODY == fixture
        rendered = render_prompt(get_template(PromptName.FINE_TUNE),
                                 {"Question": "Q", "Response": "R"})
        assert rendered == fixture.replace("{Question}", "Q").replace("{Response}", "R")

    def test_fine_tune_line_positions(self):
        rendered = render_prompt(get_template(PromptName.FINE_TUNE),
                                 {"Question": "Q", "Response": "R"})
        lines = rendered.split("\n")
        assert lines[3] == "### Instruction:"
        assert lines[4] == "Q"
        assert "Be aware of wrong calculations and do not repeat them." in lines
        assert "### Response:" in lines

    def test_augment_template_content(self):
        rendered = render_prompt(get_template(PromptName.AUGMENT),
                                 {"Example": "E", "refined_solution": "S",
                                  "Question": ""})
        assert "diverse difficulty levels" in rendered
        assert "Question: E" in rendered
        assert "Answer: S" in rendered

    def test_decompose_templates(self):
        mul = render_prompt(get_template(PromptName.DECOMPOSE_MUL),
                            {"solution": "a", "updated_solution": "b"})
        assert "place value components" in mul
        div = render_prompt(get_template(PromptName.DECOMPOSE_DIV),
                            {"solution": "a", "updated_solution": "b"})
        assert "sum the" in div and "quotients" in div

    def test_missing_binding_named(self):
        with pytest.raises(PipelineError, match="Response"):
            render_prompt(get_template(PromptName.FINE_TUNE), {"Question": "Q"})

    def test_binding_appears_once_per_occurrence(self):
        rendered = render_prompt(get_template(PromptName.FINE_TUNE),
                                 {"Question": "MARKER_Q", "Response": "MARKER_R"})
        assert rendered.count("MARKER_Q") == 1
        assert rendered.count("MARKER_R") == 1

    def test_template_lookup_by_string(self):
        assert get_template("finetune").name is PromptName.FINE_TUNE


class TestTrainingConfig:
    def test_emitted_values(self, tmp_path):
        path = tmp_path / "config.txt"
        emit_training_config(path)
        pairs = dict(line.split("=", 1)
                     for line in path.read_text(encoding="utf-8").splitlines())
        assert pairs == {
            "sampling": "true",
            "top_k": "40",
            "temperature": "0.8",
            "top_p": "0.90",
            "max_length": "4096",
            "epochs": "3",
        }
        assert len(pairs) == 6
