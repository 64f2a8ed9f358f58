"""The streamed stages against the whole-list forms they replace.

``save_manifest`` writes in one pass, and ``evaluate grade`` and ``evaluate
report`` read, grade and tally one record at a time. Their bytes must equal
the two-pass and list-building forms, a fault part-way through must leave the
previous output as it was, and what they hold beyond the loaded manifest must
stay a small share of the bytes they stream.
"""

import contextlib
import io
import json
import os
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep import cli
from ganitprep import evaluate  # imported here, so no test traces the import
from ganitprep.common import PipelineError, canonical_json, write_lines_atomic
from ganitprep.corpus import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    Difficulty,
    Language,
    Source,
    load_manifest,
    records_checksum,
    save_manifest,
)

# Any text but lone surrogates (UTF-8 cannot encode them) and the three
# characters a predictions line cannot hold, with Devanagari, U+2028 and
# U+0085 drawn often.
_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t")
                | st.sampled_from(" \u2028\u0085कखग१२३"), min_size=1, max_size=10)


@st.composite
def _problem_lists(draw, min_size=0):
    problems = []
    for i in range(draw(st.integers(min_size, 6))):
        text = draw(_text)
        problems.append(make_problem(
            f"p{i}\u2028{text}" if draw(st.booleans()) else f"p{i}",
            language=draw(st.sampled_from(list(Language))),
            source=draw(st.sampled_from([Source.GSM8K, Source.HAWP, Source.INDIMATHQA])),
            question=text,
            raw_solution=f"{text}\n#### {draw(st.integers(-50, 50))}",
            difficulty=draw(st.sampled_from(list(Difficulty))),
            topic=draw(st.one_of(st.none(), _text)),
            extras=draw(st.dictionaries(st.sampled_from(["k", "क"]), _text, min_size=1,
                                        max_size=2))))
    return problems


_ONE = [make_problem("p\u0085", question="राम\u2028१", raw_solution="#### 1",
                     extras={"k": "\u2028"})]


def _two_pass_bytes(manifest) -> bytes:
    """The file the two-pass save wrote: every line built, then the checksum."""
    lines = [canonical_json(p.to_dict()) for p in manifest]
    header = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
              "source_format": manifest.source_format.value,
              "created_at": manifest.created_at, "count": len(lines),
              "checksum": records_checksum(manifest)}
    return "".join(f"{line}\n" for line in [canonical_json(header), *lines]).encode()


@settings(max_examples=60, deadline=None)
@example(problems=[])
@example(problems=_ONE)
@given(problems=_problem_lists())
def test_one_pass_save_equals_two_pass_form(tmp_path_factory, problems):
    manifest = make_manifest(problems)
    path = tmp_path_factory.mktemp("save") / "m.jsonl"
    save_manifest(manifest, path)
    assert path.read_bytes() == _two_pass_bytes(make_manifest(problems))
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert manifest.__dict__["checksum"] == header["checksum"]  # cached by the save
    loaded = load_manifest(path)
    assert loaded == manifest and loaded.checksum == header["checksum"]


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


_OUTPUTS = st.one_of(_text, st.sampled_from([
    "#### 3", "Final Answer: 3/4", "उत्तर: ५", "\\boxed{x+1}", "2 + 2 = 4\\n#### 4",
    "उत्तर प्रदेश", f"#### {'9' * 5000}", "no answer"]))


@st.composite
def _graded_corpus(draw):
    """A manifest and, per model, predictions for a subset of it in any order."""
    problems = draw(_problem_lists())
    predictions = {}
    for model in draw(st.sampled_from([["m"], ["m", "मॉडल\u2028"]])):
        chosen = draw(st.permutations(problems))[:draw(st.integers(0, len(problems)))]
        predictions[model] = [(p.id, draw(_OUTPUTS)) for p in chosen]
    return make_manifest(problems), predictions


def _write_predictions(path, pairs) -> None:
    path.write_text("".join(f"{pid}\t{output}\n" for pid, output in pairs),
                    encoding="utf-8")


@settings(max_examples=40, deadline=None)
@example(corpus=(make_manifest([]), {"m": []}))
@example(corpus=(make_manifest(_ONE), {"m": [("p\u0085", "#### 1")]}))
@given(corpus=_graded_corpus())
def test_streamed_grade_and_report_equal_the_list_forms(tmp_path_factory, corpus):
    manifest, predictions = corpus
    work = tmp_path_factory.mktemp("grade")
    save_manifest(manifest, work / "m.jsonl")
    grade_files = []
    for index, (model, pairs) in enumerate(predictions.items()):
        pred, cli_out, lib_out = (work / f"{name}{index}" for name in ("pred", "cli", "lib"))
        _write_predictions(pred, pairs)
        code, stdout, _ = _run("evaluate", "grade", "--pred", pred, "--manifest",
                               work / "m.jsonl", "--model", model, "--out", cli_out)
        grades = evaluate.grade_predictions(evaluate.read_predictions(pred), manifest, model)
        evaluate.save_grades(grades, lib_out)
        assert code == 0
        assert cli_out.read_bytes() == lib_out.read_bytes()
        counts = [sum(g.verdict is v for g in grades)
                  for v in (evaluate.Verdict.CORRECT, evaluate.Verdict.UNPARSEABLE)]
        assert stdout == (f"graded={len(grades)} correct={counts[0]} unparseable={counts[1]}\n"
                          f"stage=evaluate-grade in={len(grades)} out={len(grades)} "
                          "flagged=0\n")
        grade_files.append(cli_out)

    code, stdout, _ = _run("evaluate", "report", "--grades", *grade_files,
                           "--manifest", work / "m.jsonl", "--out", work / "report.txt")
    report = evaluate.accuracy_report(
        [grade for path in grade_files for grade in evaluate.load_grades(path)], manifest)
    assert code == 0
    assert (work / "report.txt").read_bytes() == report.render_table().encode()
    assert (work / "report.csv").read_bytes() == report.to_csv().encode()
    graded = sum(map(len, predictions.values()))
    assert stdout == f"stage=evaluate-report in={graded} out={len(report.cells)} flagged=0\n"


def _left_as_before(directory, outputs) -> bool:
    return (all(path.read_bytes() == b"previous\n" for path in outputs)
            and not [p for p in directory.iterdir() if p.name.endswith(".tmp")])


# (the faulty line, given the first problem's id; the message it stops the stage with)
_PREDICTION_FAULTS = {
    "unknown-id": (lambda first: "zzz\t#### 1", "{pred}: no problem with id 'zzz'"),
    "no-tab": (lambda first: "zzz #### 1", "{pred}:{line}: expected problem_id<TAB>output"),
    "repeated-id": (lambda first: f"{first}\t#### 2",
                    "{pred}:{line}: duplicate problem id {first!r}"),
    "no-reference": (lambda first: "none\t#### 2",
                     "{pred}: none: no extractable reference answer"),
}


@settings(max_examples=30, deadline=None)
@given(problems=_problem_lists(min_size=1), data=st.data())
@pytest.mark.parametrize("fault", list(_PREDICTION_FAULTS))
def test_grade_fault_mid_file_keeps_previous_output(tmp_path_factory, fault, problems, data):
    work = tmp_path_factory.mktemp("fault")
    save_manifest(make_manifest([*problems, make_problem("none", raw_solution="no")]),
                  work / "m.jsonl")
    lines = [f"{p.id}\t#### 1" for p in problems]
    at = data.draw(st.integers(1, len(problems)), label="fault line index")
    line, message = _PREDICTION_FAULTS[fault]
    lines.insert(at, line(problems[0].id))
    (work / "pred.tsv").write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
    out = work / "out" / "g.jsonl"
    out.parent.mkdir()
    out.write_bytes(b"previous\n")
    code, _, err = _run("evaluate", "grade", "--pred", work / "pred.tsv",
                        "--manifest", work / "m.jsonl", "--model", "m", "--out", out)
    assert code == 1
    message = message.format(pred=work / "pred.tsv", line=at + 1, first=problems[0].id)
    assert err == "error=" + json.dumps(message, ensure_ascii=False) + "\n"
    assert _left_as_before(out.parent, [out])


def _grade_lines(ids, model="m") -> list[str]:
    one = evaluate.AnswerValue.from_rational(1)
    return [canonical_json(evaluate.GradeRecord(pid, model, one, one,
                                                evaluate.Verdict.CORRECT).to_dict())
            for pid in ids]


_GRADE_FAULTS = {
    "unknown-id": (lambda first: _grade_lines(["zzz"])[0],
                   "{grades}:{line}: no problem with id 'zzz'"),
    "repeated": (lambda first: _grade_lines([first])[0],
                 "{grades}:{line}: second grade of problem {first!r} for model 'm'"),
    "bad-verdict": (lambda first: _grade_lines([first], "n")[0].replace("Correct", "Maybe"),
                    "{grades}:{line}: unknown verdict 'Maybe'"),
}


@settings(max_examples=30, deadline=None)
@given(problems=_problem_lists(min_size=1), data=st.data())
@pytest.mark.parametrize("fault", list(_GRADE_FAULTS))
def test_report_fault_mid_file_keeps_previous_output(tmp_path_factory, fault, problems,
                                                     data):
    work = tmp_path_factory.mktemp("fault")
    save_manifest(make_manifest(problems), work / "m.jsonl")
    lines = _grade_lines([p.id for p in problems])
    at = data.draw(st.integers(1, len(problems)), label="fault line index")
    line, message = _GRADE_FAULTS[fault]
    lines.insert(at, line(problems[0].id))
    grades = work / "grades.jsonl"
    grades.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
    out = work / "out" / "report.txt"
    out.parent.mkdir()
    for path in (out, out.with_suffix(".csv")):
        path.write_bytes(b"previous\n")
    code, _, err = _run("evaluate", "report", "--grades", grades,
                        "--manifest", work / "m.jsonl", "--out", out)
    assert code == 1
    message = message.format(grades=grades, line=at + 1, first=problems[0].id)
    assert err == "error=" + json.dumps(message, ensure_ascii=False) + "\n"
    assert _left_as_before(out.parent, [out, out.with_suffix(".csv")])


@settings(max_examples=30, deadline=None)
@given(problems=_problem_lists(min_size=1), data=st.data())
def test_save_fault_mid_manifest_keeps_previous_file(tmp_path_factory, problems, data):
    # A lone surrogate passes json but not UTF-8: the save fails on that record.
    at = data.draw(st.integers(0, len(problems) - 1), label="fault record index")
    problems[at] = replace(problems[at], question=problems[at].question + "\ud800")
    work = tmp_path_factory.mktemp("fault")
    (work / "m.jsonl").write_bytes(b"previous\n")
    with pytest.raises(UnicodeEncodeError):
        save_manifest(make_manifest(problems), work / "m.jsonl")
    assert _left_as_before(work, [work / "m.jsonl"])


def test_header_that_changes_length_keeps_previous_file(tmp_path):
    # The final header is written over its placeholder, so it must fit exactly.
    (tmp_path / "out").write_bytes(b"previous\n")
    texts = iter(["short", "longer"])
    with pytest.raises(PipelineError,
                       match="^header line changed length after its placeholder$"):
        write_lines_atomic(tmp_path / "out", ["a"], lambda: next(texts))
    assert _left_as_before(tmp_path, [tmp_path / "out"])


# A file with several faults reports the first in file order: each record is
# read and checked before the next one is.
def test_grade_reports_the_first_fault_in_file_order(tmp_path):
    save_manifest(make_manifest([make_problem("p0", raw_solution="#### 0")]),
                  tmp_path / "m.jsonl")
    pred = tmp_path / "pred.tsv"
    pred.write_text("p0\t#### 0\nzzz\t1\np0\t2\nno tab\n", encoding="utf-8")
    code, _, err = _run("evaluate", "grade", "--pred", pred, "--manifest", tmp_path / "m.jsonl",
                        "--model", "m", "--out", tmp_path / "g.jsonl")
    assert (code, err) == (1, "error=" + json.dumps(f"{pred}: no problem with id 'zzz'") + "\n")


def test_report_reports_the_first_fault_in_file_order(tmp_path):
    save_manifest(make_manifest([make_problem("p0")]), tmp_path / "m.jsonl")
    grades = tmp_path / "grades.jsonl"
    grades.write_text("".join(f"{x}\n" for x in _grade_lines(["p0", "zzz", "p0"])),
                      encoding="utf-8")
    code, _, err = _run("evaluate", "report", "--grades", grades,
                        "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "r.txt")
    assert (code, err) == (1, "error=" + json.dumps(f"{grades}:2: no problem with id 'zzz'")
                           + "\n")


# ---------------------------------------------------------------------------
# memory: what each streamed step holds beyond the manifest it was given

_COUNT = 3000


@pytest.fixture(scope="module")
def manifest():
    problems = []
    for i in range(_COUNT):
        hindi = i % 2 == 1
        question = (f"राम के पास {i} सेब हैं। वह {i + 3} और खरीदता है। अब कितने सेब हैं?"
                    if hindi else f"Ram has {i} apples. He buys {i + 3} more. How many now?")
        problems.append(make_problem(
            f"p{i:05d}", language=Language.HINDI if hindi else Language.ENGLISH,
            source=Source.HAWP if hindi else Source.GSM8K, question=question,
            raw_solution=f"{i} + {i + 3} = {2 * i + 3}\n#### {2 * i + 3}",
            difficulty=(Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)[i % 3]))
    loaded = make_manifest(problems)
    loaded.by_id("p00000")  # the id index is part of a loaded manifest
    return loaded


def _peak(call) -> int:
    """Bytes allocated at the call's peak, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_manifest_holds_no_record_lines(manifest, tmp_path):
    # The two-pass save held every record line: 1.5 times the file's size.
    # One pass holds one line at a time: 3% of it.
    peak = _peak(lambda: save_manifest(manifest, tmp_path / "m.jsonl"))
    assert peak < 0.15 * os.path.getsize(tmp_path / "m.jsonl")


@pytest.fixture
def cli_given(manifest, monkeypatch):
    """Run ``ganitprep`` in this process with ``--manifest`` already loaded."""
    monkeypatch.setattr(cli, "load_manifest", lambda path: manifest)

    def run(*argv):
        assert _run(*argv)[0] == 0
    return run


def _predictions(path, manifest, model) -> None:
    _write_predictions(path, [
        (p.id, f"{model} reasons at length about problem {p.id}\\n"
               f"Final Answer: {i % 7}") for i, p in enumerate(manifest)])


def test_grade_holds_one_prediction_at_a_time(cli_given, manifest, tmp_path):
    # Grading every prediction before writing held them all, and their grades:
    # 9.4 times the predictions file. Streamed, the ids seen so far (the
    # duplicate check) and the argument parser are most of the 2 times left.
    pred = tmp_path / "pred.tsv"
    _predictions(pred, manifest, "m")
    peak = _peak(lambda: cli_given("evaluate", "grade", "--pred", pred, "--manifest", "-",
                                   "--model", "m", "--out", tmp_path / "g.jsonl"))
    assert peak < 4 * os.path.getsize(pred)


def test_report_holds_one_verdict_row_at_a_time(cli_given, manifest, tmp_path):
    # Reading every verdict row before the tally held them all, and each
    # (model, id) key twice: 2.1 times the grades files. Streamed, the one
    # duplicate check holds a bit per model for each id: 0.33 times.
    grades = []
    for model in ("model-a", "model-b"):
        _predictions(tmp_path / "pred.tsv", manifest, model)
        grades.append(tmp_path / f"{model}.jsonl")
        cli_given("evaluate", "grade", "--pred", tmp_path / "pred.tsv", "--manifest", "-",
                  "--model", model, "--out", grades[-1])
    peak = _peak(lambda: cli_given("evaluate", "report", "--grades", *grades,
                                   "--manifest", "-", "--out", tmp_path / "r.txt"))
    assert peak < sum(map(os.path.getsize, grades))
