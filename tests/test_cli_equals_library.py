"""The CLI equals the library.

One generated GSM8K, MATH and HAWP corpus goes through the chain twice:
once through ``cli.main``, one stage at a time, each stage reading the files
the one before it wrote, and once through the library calls in one process.
Every artifact must hold the same bytes, and every record a stage takes in
must come out or be flagged with a reason.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ganitprep import classify, cli, curriculum, decompose, evaluate
from ganitprep.answers import format_exact, map_devanagari_digits
from ganitprep.common import Operation, write_text_atomic
from ganitprep.corpus import Difficulty, ingest_gsm8k, ingest_hawp, ingest_math, save_manifest

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
def _chain_inputs(draw):
    gsm8k = draw(st.lists(_gsm8k_record(), min_size=1, max_size=5))
    # The first MATH problem is Medium, so both curriculum stages have a stratum.
    math = [draw(_math_record(st.integers(2, 3)))] + draw(
        st.lists(_math_record(), max_size=4))
    hawp = draw(st.lists(_hawp_record(), min_size=1, max_size=8))
    notes = {f"hawp-{line:06d}": draw(st.sampled_from(list(Difficulty)))
             for line in range(1, len(hawp) + 1) if draw(st.booleans())}
    return {"gsm8k": gsm8k, "math": math, "hawp": hawp, "notes": notes,
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
_ARTIFACTS = ["gsm8k.jsonl", "math.jsonl", "hawp.jsonl", "gsm8k_c.jsonl", "math_c.jsonl",
              "hawp_c.jsonl", "hawp_d.jsonl", "merged.jsonl", "split.json",
              "curriculum.json", *_STAGES.values(), "grades.jsonl", "report.txt",
              "report.csv"]


@settings(max_examples=25, deadline=None)
@given(inputs=_chain_inputs())
def test_cli_chain_equals_library_chain(tmp_path_factory, inputs):
    given_dir = tmp_path_factory.mktemp("given")
    for name in ("gsm8k", "math", "hawp"):
        _write_jsonl(given_dir / f"{name}.jsonl", inputs[name])
    notes = given_dir / "notes.tsv"
    notes.write_text("".join(f"{pid}\t{d.value}\n" for pid, d in inputs["notes"].items()),
                     encoding="utf-8")
    seed, cumulative = inputs["seed"], inputs["cumulative"]

    lib = tmp_path_factory.mktemp("library")
    manifests = {"gsm8k": ingest_gsm8k(given_dir / "gsm8k.jsonl"),
                 "math": ingest_math(given_dir / "math.jsonl"),
                 "hawp": ingest_hawp(given_dir / "hawp.jsonl")}
    for name, manifest in manifests.items():
        save_manifest(manifest, lib / f"{name}.jsonl")
    classified = {
        "gsm8k": classify.rank_bottom_k(manifests["gsm8k"], inputs["bottom_k"]),
        "math": classify.apply_math_levels(manifests["math"]),
        "hawp": classify.apply_annotations(manifests["hawp"],
                                           classify.read_annotations(notes)).manifest}
    for name, manifest in classified.items():
        save_manifest(manifest, lib / f"{name}_c.jsonl")
    decomposed = decompose.apply_decomposition(classified["hawp"])
    save_manifest(decomposed.manifest, lib / "hawp_d.jsonl")
    merged = curriculum.merge_sources(
        [classified["gsm8k"], classified["math"], decomposed.manifest]).manifest
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
    for name in ("gsm8k", "math", "hawp"):
        _run("ingest", "--format", name, "--in", given_dir / f"{name}.jsonl",
             "--out", out / f"{name}.jsonl")
    _run("classify", "--in", out / "gsm8k.jsonl", "--score",
         "--bottom-k", inputs["bottom_k"], "--out", out / "gsm8k_c.jsonl")
    _run("classify", "--in", out / "math.jsonl", "--math-levels", "--out", out / "math_c.jsonl")
    _run("classify", "--in", out / "hawp.jsonl", "--annotations", notes,
         "--out", out / "hawp_c.jsonl")
    assert _run("decompose", "--in", out / "hawp_c.jsonl",
                "--out", out / "hawp_d.jsonl") == _printed(decomposed.summary("decompose"))
    _run("curriculum", "merge", "--in", out / "gsm8k_c.jsonl", out / "math_c.jsonl",
         out / "hawp_d.jsonl", "--out", out / "merged.jsonl")
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
