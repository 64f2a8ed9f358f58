"""The CLI equals the library.

One generated GSM8K, MATH and HAWP corpus, and an English and Hindi
IndiMathQA pair of files, go through the chain twice:
once through ``cli.main``, one stage at a time, each stage reading the files
the one before it wrote, and once through the library calls in one process.
Every artifact must hold the same bytes, and every record a stage takes in
must come out or be flagged with a reason.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep import classify, cli, curriculum, decompose, evaluate
from ganitprep.answers import format_exact, map_devanagari_digits
from ganitprep.common import Operation, write_text_atomic
from ganitprep.corpus import (
    Difficulty,
    Language,
    Source,
    ingest_gsm8k,
    ingest_hawp,
    ingest_indimathqa,
    ingest_math,
    save_manifest,
)

# Question text mixes words, Devanagari digits, U+2028 and U+0085.
_QUESTION = st.lists(st.sampled_from(["के पास", "apples", "how many?", "१२", "३४५", "7",
                                      "\u2028", "\u0085"]),
                     max_size=6).map(lambda words: " ".join(["राम", *words]))
# HAWP operands: plain, Devanagari, zero, past the decomposition limit, with a
# thousands comma.
_OPERAND = st.one_of(st.integers(1, 999).map(str),
                     st.sampled_from(["0", "१२", str(10**18), "1,234"]))
_SYMBOLS = {"add": "+", "sub": "-", "mul": "×*x", "div": "÷/"}


@st.composite
def _gsm8k_record(draw):
    a, b = draw(st.integers(0, 99)), draw(st.integers(0, 99))
    return {"question": draw(_QUESTION),
            "answer": f"{a} * {b} = <<{a}*{b}={a * b}>>{a * b}\n#### {a * b}"}


@st.composite
def _math_record(draw, levels=st.integers(1, 5)):
    return {"problem": draw(_QUESTION), "level": f"Level {draw(levels)}",
            "type": draw(st.sampled_from(["Algebra", "Geometry"])),
            "solution": f"so it is $\\boxed{{{draw(st.integers(-20, 20))}}}$."}


@st.composite
def _hawp_record(draw):
    operation = draw(st.sampled_from(list(_SYMBOLS)))
    record = {"question": draw(_QUESTION), "operation": operation}
    if draw(st.integers(0, 5)) == 0:
        return record  # no solution: nothing to decompose, nothing to export
    a, b = draw(_OPERAND), draw(_OPERAND)
    x, y = (int(map_devanagari_digits(n).replace(",", "")) for n in (a, b))
    exact = {"add": x + y, "sub": x - y, "mul": x * y,
             "div": Fraction(x, y) if y else 0}[operation]
    stated = draw(st.sampled_from([format_exact(exact), "12"]))  # "12": mostly wrong
    symbol = draw(st.sampled_from(_SYMBOLS[operation]))
    record["solution"] = f"{a} {symbol} {b} = {stated}"
    return record


@st.composite
def _indimathqa_records(draw):
    """English and Hindi IndiMathQA records, the i-th of each a pair, and the
    annotations of each language, giving both members of a pair one label."""
    count = draw(st.integers(1, 4))
    key = draw(st.sampled_from(["byid", "byindex"]))
    shared = key == "byid" or draw(st.booleans())  # shared ids are suffixed when paired
    records = {"en": [], "hi": []}
    notes = {"en": {}, "hi": {}}
    for i in range(count):
        difficulty = draw(st.sampled_from([None, *Difficulty]))
        for language in records:
            record = {"id": f"imqa-{i}" if shared else f"imqa-{i}-{language}",
                      "question": draw(_QUESTION),
                      "topic": draw(st.sampled_from(["sets", "algebra"]))}
            if draw(st.integers(0, 3)):
                record["solution"] = f"Final Answer: {draw(st.integers(-20, 20))}"
            records[language].append(record)
            if difficulty is not None:
                notes[language][record["id"]] = difficulty
    return {"records": records, "notes": notes, "key": key}


@st.composite
def _chain_inputs(draw):
    gsm8k = draw(st.lists(_gsm8k_record(), min_size=1, max_size=5))
    # The first MATH problem is Medium, so both curriculum stages have a stratum.
    math = [draw(_math_record(st.integers(2, 3)))] + draw(
        st.lists(_math_record(), max_size=4))
    hawp = draw(st.lists(_hawp_record(), min_size=1, max_size=8))
    notes = {f"hawp-{line:06d}": draw(st.sampled_from(list(Difficulty)))
             for line in range(1, len(hawp) + 1) if draw(st.booleans())}
    return {"gsm8k": gsm8k, "math": math, "hawp": hawp, "notes": notes,
            "indimathqa": draw(_indimathqa_records()),
            "bottom_k": draw(st.integers(1, len(gsm8k))),
            "seed": draw(st.integers(0, 3)), "cumulative": draw(st.booleans()),
            "outputs": draw(st.lists(st.sampled_from(
                ["#### 12", "Final Answer: ५", "\\boxed{1,234}", "उत्तर प्रदेश", "0", ""]),
                min_size=1, max_size=30))}


def _write_jsonl(path, records) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(arg) for arg in argv])
    assert code == 0, err.getvalue()
    return out.getvalue()


def _printed(summary) -> str:
    """What ``cli.main`` prints for a stage record."""
    return summary.text + summary.line() + "\n"


_STAGES = {curriculum.STAGE_EASY: "train_easy.jsonl",
           curriculum.STAGE_EASY_MEDIUM: "train_easy_medium.jsonl"}
# Each corpus by the ingest --format that reads it.
_FORMATS = {"gsm8k": "gsm8k", "math": "math", "hawp": "hawp",
            "imqa_en": "indimathqa-en", "imqa_hi": "indimathqa-hi"}
_ARTIFACTS = [*(f"{name}.jsonl" for name in _FORMATS), *(f"{name}_c.jsonl" for name in _FORMATS),
              "hawp_d.jsonl", "paired.jsonl", "merged.jsonl", "split.json",
              "curriculum.json", *_STAGES.values(), "grades.jsonl", "report.txt",
              "report.csv"]


@settings(max_examples=25, deadline=None)
@given(inputs=_chain_inputs())
def test_cli_chain_equals_library_chain(tmp_path_factory, inputs):
    given_dir = tmp_path_factory.mktemp("given")
    imqa = inputs["indimathqa"]
    records = {"gsm8k": inputs["gsm8k"], "math": inputs["math"], "hawp": inputs["hawp"],
               "imqa_en": imqa["records"]["en"], "imqa_hi": imqa["records"]["hi"]}
    for name in _FORMATS:
        _write_jsonl(given_dir / f"{name}.jsonl", records[name])
    notes = {"hawp": inputs["notes"], "imqa_en": imqa["notes"]["en"],
             "imqa_hi": imqa["notes"]["hi"]}
    for name, labels in notes.items():
        (given_dir / f"{name}.tsv").write_text(
            "".join(f"{pid}\t{d.value}\n" for pid, d in labels.items()), encoding="utf-8")
    seed, cumulative = inputs["seed"], inputs["cumulative"]

    lib = tmp_path_factory.mktemp("library")
    manifests = {"gsm8k": ingest_gsm8k(given_dir / "gsm8k.jsonl"),
                 "math": ingest_math(given_dir / "math.jsonl"),
                 "hawp": ingest_hawp(given_dir / "hawp.jsonl"),
                 "imqa_en": ingest_indimathqa(given_dir / "imqa_en.jsonl", Language.ENGLISH),
                 "imqa_hi": ingest_indimathqa(given_dir / "imqa_hi.jsonl", Language.HINDI)}
    for name, manifest in manifests.items():
        save_manifest(manifest, lib / f"{name}.jsonl")
    classified = {
        "gsm8k": classify.rank_bottom_k(manifests["gsm8k"], inputs["bottom_k"]),
        "math": classify.apply_math_levels(manifests["math"]),
        **{name: classify.apply_annotations(
            manifests[name], classify.read_annotations(given_dir / f"{name}.tsv")).manifest
           for name in notes}}
    for name, manifest in classified.items():
        save_manifest(manifest, lib / f"{name}_c.jsonl")
    decomposed = decompose.apply_decomposition(classified["hawp"])
    save_manifest(decomposed.manifest, lib / "hawp_d.jsonl")
    key = curriculum.PairKey.BY_ID if imqa["key"] == "byid" else curriculum.PairKey.BY_INDEX
    paired = curriculum.pair_bilingual(classified["imqa_en"], classified["imqa_hi"], key)
    save_manifest(paired, lib / "paired.jsonl")
    merged = curriculum.merge_sources(
        [classified["gsm8k"], classified["math"], decomposed.manifest, paired]).manifest
    save_manifest(merged, lib / "merged.jsonl")
    assignment = curriculum.split(merged, seed=seed)
    curriculum.save_split(assignment, lib / "split.json")
    built = curriculum.build_curriculum(merged, assignment, cumulative=cumulative)
    curriculum.save_curriculum(built, lib / "curriculum.json")
    exports = {stage: curriculum.export_stage(built, stage, merged, lib / name, seed=seed)
               for stage, name in _STAGES.items()}
    # The predictions name problems that have a reference answer, in file order.
    gradable = [p.id for p in merged if evaluate.reference_answer(p) is not None]
    pred = given_dir / "pred.tsv"
    pred.write_text("".join(f"{pid}\t{output}\n"
                            for pid, output in zip(gradable, inputs["outputs"])),
                    encoding="utf-8")
    grades = evaluate.grade_predictions(evaluate.read_predictions(pred), merged, "m")
    evaluate.save_grades(grades, lib / "grades.jsonl")
    report = evaluate.accuracy_report(grades, merged)
    write_text_atomic(lib / "report.txt", report.render_table())
    write_text_atomic(lib / "report.csv", report.to_csv())

    out = tmp_path_factory.mktemp("cli")
    for name, layout in _FORMATS.items():
        _run("ingest", "--format", layout, "--in", given_dir / f"{name}.jsonl",
             "--out", out / f"{name}.jsonl")
    _run("classify", "--in", out / "gsm8k.jsonl", "--score",
         "--bottom-k", inputs["bottom_k"], "--out", out / "gsm8k_c.jsonl")
    _run("classify", "--in", out / "math.jsonl", "--math-levels", "--out", out / "math_c.jsonl")
    for name in notes:
        _run("classify", "--in", out / f"{name}.jsonl", "--annotations",
             given_dir / f"{name}.tsv", "--out", out / f"{name}_c.jsonl")
    assert _run("decompose", "--in", out / "hawp_c.jsonl",
                "--out", out / "hawp_d.jsonl") == _printed(decomposed.summary("decompose"))
    _run("curriculum", "pair", "--en", out / "imqa_en_c.jsonl", "--hi", out / "imqa_hi_c.jsonl",
         "--key", imqa["key"], "--out", out / "paired.jsonl")
    _run("curriculum", "merge", "--in", out / "gsm8k_c.jsonl", out / "math_c.jsonl",
         out / "hawp_d.jsonl", out / "paired.jsonl", "--out", out / "merged.jsonl")
    _run("curriculum", "split", "--in", out / "merged.jsonl", "--seed", seed,
         "--out", out / "split.json")
    _run("curriculum", "build", "--in", out / "merged.jsonl", "--split", out / "split.json",
         *(["--cumulative"] if cumulative else []), "--out", out / "curriculum.json")
    for stage, name in _STAGES.items():
        printed = _run("curriculum", "export", "--curriculum", out / "curriculum.json",
                       "--manifest", out / "merged.jsonl", "--stage", stage, "--seed", seed,
                       "--out", out / name)
        assert printed == _printed(exports[stage].summary("curriculum-export"))
    _run("evaluate", "grade", "--pred", pred, "--manifest", out / "merged.jsonl",
         "--model", "m", "--out", out / "grades.jsonl")
    _run("evaluate", "report", "--grades", out / "grades.jsonl",
         "--manifest", out / "merged.jsonl", "--out", out / "report.txt")

    for name in _ARTIFACTS:
        assert (out / name).read_bytes() == (lib / name).read_bytes(), name

    # Every Mul/Div problem is rewritten or flagged, never both.
    mul_div = {p.id for p in classified["hawp"] if p.operation in (Operation.MUL, Operation.DIV)}
    rewritten = {p.id for p, q in zip(classified["hawp"], decomposed.manifest)
                 if p.raw_solution != q.raw_solution}
    assert rewritten | decomposed.flagged.keys() == mul_div
    assert len(rewritten) + len(decomposed.flagged) == len(mul_div) == (
        decomposed.rewritten + decomposed.skipped)
    # Every train id of a stage is exported or flagged, never both.
    for stage, name in _STAGES.items():
        # Only "\n" ends a line: U+0085 and U+2028 stay inside the JSON strings.
        lines = (out / name).read_text(encoding="utf-8").split("\n")[1:-1]
        exported = [json.loads(line)["id"] for line in lines]
        train_ids = set(built.stage(stage).train_ids)
        assert set(exported) | exports[stage].flagged.keys() == train_ids
        assert len(exported) + exports[stage].skipped == len(train_ids)


def _staged_corpus() -> list:
    """English and Hindi Easy and Medium problems, a bilingual pair, and
    synthetic problems pending, approved and corrected, one without a solution."""
    problems = [make_problem(f"{code}{band.value[0]}{i}", language=language, source=source,
                             difficulty=band, raw_solution=f"#### {i}")
                for code, language, source in (("e", Language.ENGLISH, Source.GSM8K),
                                               ("h", Language.HINDI, Source.HAWP))
                for band in (Difficulty.EASY, Difficulty.MEDIUM) for i in range(5)]
    problems += [make_problem(f"pair-{code}", language=language, source=Source.INDIMATHQA,
                              difficulty=Difficulty.MEDIUM, pair_id="pair-0",
                              raw_solution="#### 7")
                 for code, language in (("en", Language.ENGLISH), ("hi", Language.HINDI))]
    for i, (status, language, band) in enumerate([
            ("pending", Language.ENGLISH, Difficulty.EASY),
            ("pending", Language.HINDI, Difficulty.MEDIUM),
            ("approved", Language.ENGLISH, Difficulty.MEDIUM),
            ("approved", Language.HINDI, Difficulty.EASY),
            ("corrected", Language.ENGLISH, Difficulty.EASY),
            ("corrected", Language.HINDI, Difficulty.MEDIUM)] * 3):
        problems.append(make_problem(
            f"syn-{i:02d}", language=language, source=Source.SYNTHETIC, difficulty=band,
            raw_solution=None if i == 4 else f"#### {i}", extras={"review_status": status}))
    return problems


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("mode", ["en", "hi", "bilingual"])
def test_build_and_export_of_each_mode_equal_library(tmp_path, mode, cumulative):
    manifest = make_manifest(_staged_corpus())
    lib, out = tmp_path / "library", tmp_path / "cli"
    lib.mkdir()
    out.mkdir()
    save_manifest(manifest, out / "m.jsonl")
    assignment = curriculum.split(manifest, seed=3)
    curriculum.save_split(assignment, lib / "split.json")
    built = curriculum.build_curriculum(manifest, assignment,
                                        mode=curriculum.TrainingMode(mode),
                                        cumulative=cumulative)
    curriculum.save_curriculum(built, lib / "curriculum.json")

    _run("curriculum", "split", "--in", out / "m.jsonl", "--seed", 3,
         "--out", out / "split.json")
    _run("curriculum", "build", "--in", out / "m.jsonl", "--split", out / "split.json",
         "--mode", mode, *(["--cumulative"] if cumulative else []),
         "--out", out / "curriculum.json")
    for stage, name in _STAGES.items():
        export = curriculum.export_stage(built, stage, manifest, lib / name, seed=3)
        printed = _run("curriculum", "export", "--curriculum", out / "curriculum.json",
                       "--manifest", out / "m.jsonl", "--stage", stage, "--seed", 3,
                       "--out", out / name)
        assert printed == _printed(export.summary("curriculum-export"))
    for name in ["split.json", "curriculum.json", *_STAGES.values()]:
        assert (out / name).read_bytes() == (lib / name).read_bytes(), name
    pending = {p.id for p in manifest if p.extras.get("review_status") == "pending"}
    assert not pending & {pid for stage in built.stages for pid in stage.train_ids}
