"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import random
import string
import time
from fractions import Fraction

from conftest import make_manifest, make_problem
from ganitprep.answers import AnswerValue
from ganitprep.classify import apply_math_levels, map_math_level, rank_bottom_k
from ganitprep.cli import main
from ganitprep.corpus import Difficulty, Language, Operation, Source, load_manifest
from ganitprep.curriculum import (
    build_curriculum,
    export_stage,
    merge_sources,
    save_split,
    split,
)
from ganitprep.decompose import apply_decomposition, decompose_div, decompose_mul
from ganitprep.evaluate import (
    GradeRecord,
    Verdict,
    accuracy_report,
    extract_answer,
    fleiss_kappa,
    grade,
)
from ganitprep.structure import (
    FINE_TUNE_BODY,
    PromptName,
    StructuredSolution,
    get_template,
    parse_structured,
    render_prompt,
    render_structured,
)
from importlib import resources


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{criterion}] {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_c01_decomposition_worked_examples():
    mul = decompose_mul(543, 27)
    div = decompose_div(968, 16)
    ok = (
        set(mul.partials) == {13500, 1080, 81}
        and sum(mul.partials) == 14661
        and mul.total == 14661
        and div.total == Fraction(121, 2)
        and float(div.total) == 60.5
        and sum(div.segments) == 968
        and sum(div.partials) == Fraction(121, 2)
    )
    mul_time = _best_time(lambda: decompose_mul(543, 27))
    div_time = _best_time(lambda: decompose_div(968, 16))
    ok = ok and mul_time < 1e-3 and div_time < 1e-3
    _report("C01 worked examples", ok,
            f"mul {mul_time * 1e6:.0f}us, div {div_time * 1e6:.0f}us")


def test_c02_decomposition_oracle_sweep():
    rng = random.Random(1729)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        a, b = rng.randrange(10**9), rng.randrange(10**4)
        if sum(decompose_mul(a, b).partials) != a * b:
            mismatches += 1
    for _ in range(10_000):
        a, b = rng.randrange(10**9), rng.randrange(1, 10**4)
        if sum(decompose_div(a, b).partials) != Fraction(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report("C02 oracle sweep", mismatches == 0 and elapsed < 5.0,
            f"20000 pairs, {elapsed:.2f}s, {mismatches} mismatches")


def test_c03_math_level_mapping():
    mapping_ok = [map_math_level(level) for level in (1, 2, 3, 4, 5)] == [
        Difficulty.EASY, Difficulty.MEDIUM, Difficulty.MEDIUM,
        Difficulty.HARD, Difficulty.HARD,
    ]
    per_level = {1: 664, 2: 1570, 3: 1570, 4: 1997, 5: 1997}
    problems = []
    index = 0
    for level, count in per_level.items():
        for _ in range(count):
            problems.append(make_problem(f"m{index:05d}", source=Source.MATH,
                                         math_level=level))
            index += 1
    classified = apply_math_levels(make_manifest(problems))
    counts = classified.difficulty_counts()
    counts_ok = (counts[Difficulty.EASY] == 664
                 and counts[Difficulty.MEDIUM] == 3140
                 and counts[Difficulty.HARD] == 3994)
    _report("C03 level mapping", mapping_ok and counts_ok,
            f"counts {counts[Difficulty.EASY]}/{counts[Difficulty.MEDIUM]}"
            f"/{counts[Difficulty.HARD]}")


def _counts_block(prefix, source, counts):
    problems = []
    for difficulty, count in counts.items():
        for i in range(count):
            kwargs = {"math_level": 1} if source is Source.MATH else {}
            problems.append(make_problem(f"{prefix}-{difficulty.value}-{i:05d}",
                                         source=source, difficulty=difficulty,
                                         **kwargs))
    return make_manifest(problems)


def test_c04_merge_arithmetic():
    gsm8k = _counts_block("g", Source.GSM8K, {Difficulty.EASY: 700})
    math = _counts_block("m", Source.MATH, {
        Difficulty.EASY: 664, Difficulty.MEDIUM: 3140, Difficulty.HARD: 3994})
    imqa = _counts_block("i", Source.INDIMATHQA, {
        Difficulty.EASY: 820, Difficulty.MEDIUM: 2470, Difficulty.HARD: 4533})
    outcome = merge_sources([gsm8k, math, imqa], audit_totals={
        Difficulty.EASY: 2184, Difficulty.MEDIUM: 5470, Difficulty.HARD: 8527})
    totals = outcome.totals
    ok = (
        totals[Difficulty.EASY] == 2184
        and totals[Difficulty.HARD] == 8527
        and totals[Difficulty.MEDIUM] == 5610
        and len(outcome.discrepancies) == 1
        and "Medium" in outcome.discrepancies[0]
        and "5470" in outcome.discrepancies[0]
    )
    _report("C04 merge arithmetic", ok,
            f"totals {totals[Difficulty.EASY]}/{totals[Difficulty.MEDIUM]}"
            f"/{totals[Difficulty.HARD]}, discrepancy flagged")


def test_c05_split_properties(tmp_path):
    rng = random.Random(31337)
    start = time.perf_counter()
    violations = 0
    for trial in range(50):
        problems = []
        for source in (Source.GSM8K, Source.INDIMATHQA):
            for difficulty in (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD):
                for i in range(rng.randrange(2, 40)):
                    problems.append(make_problem(
                        f"t{trial}-{source.value}-{difficulty.value}-{i:03d}",
                        source=source, difficulty=difficulty))
        pair_count = rng.randrange(2, 20)
        for i in range(pair_count):
            for language, tag in ((Language.ENGLISH, "en"), (Language.HINDI, "hi")):
                problems.append(make_problem(
                    f"t{trial}-pair{i:03d}-{tag}", language=language,
                    source=Source.INDIMATHQA, difficulty=Difficulty.MEDIUM,
                    pair_id=f"t{trial}-pair{i:03d}"))
        manifest = make_manifest(problems)
        seed = rng.randrange(10**6)
        assignment = split(manifest, seed=seed)
        for (src, diff, lang), (train, test) in assignment.strata.items():
            if abs(train - 0.70 * (train + test)) > 1:
                violations += 1
        groups = {}
        for problem in manifest:
            if problem.pair_id:
                groups.setdefault(problem.pair_id, set()).add(
                    assignment.assignments[problem.id])
        violations += sum(1 for v in groups.values() if len(v) != 1)
        a_path, b_path = tmp_path / f"a{trial}.json", tmp_path / f"b{trial}.json"
        save_split(assignment, a_path)
        save_split(split(manifest, seed=seed), b_path)
        if a_path.read_bytes() != b_path.read_bytes():
            violations += 1
    elapsed = time.perf_counter() - start
    _report("C05 split properties", violations == 0 and elapsed < 5.0,
            f"50 corpora in {elapsed:.2f}s, {violations} violations")


def test_c06_curriculum_invariants(tmp_path):
    assert main(["run", "--out", str(tmp_path / "demo")]) == 0
    manifest = load_manifest(tmp_path / "demo" / "merged.jsonl")
    assignment = split(manifest, seed=42)
    checks = []
    for cumulative in (False, True):
        built = build_curriculum(manifest, assignment, cumulative=cumulative)
        checks.append([s.name for s in built.stages] == ["SFT_easy", "SFT_easy+medium"])
        checks.append(built.stages[0].checkpoint_name == "SFT_easy")
        checks.append(built.stages[1].checkpoint_name == "SFT_easy+medium")
        checks.append(built.stages[1].parent_checkpoint == "SFT_easy")
        first, second = (set(s.train_ids) for s in built.stages)
        if cumulative:
            checks.append(first <= second)
        else:
            checks.append(first.isdisjoint(second))
        test_ids = assignment.test_ids()
        for stage in built.stages:
            out = tmp_path / f"{cumulative}-{stage.name.replace('+', '_')}.jsonl"
            export_stage(built, stage.name, manifest, out, seed=1)
            exported_ids = {json.loads(line)["id"]
                            for line in out.read_text(encoding="utf-8").splitlines()[1:]}
            checks.append(test_ids.isdisjoint(exported_ids))
            checks.append(all(manifest.by_id(pid).difficulty is not Difficulty.HARD
                              for pid in exported_ids))
        # bilingual pairs stay whole across train stages and the test set
        membership = {}
        for problem in manifest:
            if problem.pair_id:
                where = (problem.id in first, problem.id in second,
                         problem.id in test_ids)
                membership.setdefault(problem.pair_id, set()).add(where)
        checks.append(all(len(states) == 1 for states in membership.values()))
    _report("C06 curriculum invariants", all(checks),
            f"{len(checks)} checks on the bundled demo corpus")


def test_c07_prompt_fidelity(tmp_path):
    fixture = (resources.files("ganitprep") / "data" / "templates" /
               "finetune_prompt.txt").read_text(encoding="utf-8")
    rendered = render_prompt(get_template(PromptName.FINE_TUNE),
                             {"Question": "Q1", "Response": "R1"})
    expected = fixture.replace("{Question}", "Q1").replace("{Response}", "R1")
    template_ok = (FINE_TUNE_BODY == fixture and rendered == expected
                   and "Be aware of wrong calculations and do not repeat them."
                   in rendered)
    from ganitprep.structure import emit_training_config

    config_path = tmp_path / "config.txt"
    emit_training_config(config_path)
    pairs = dict(line.split("=", 1)
                 for line in config_path.read_text(encoding="utf-8").splitlines())
    config_ok = pairs == {"sampling": "true", "top_k": "40", "temperature": "0.8",
                          "top_p": "0.90", "max_length": "4096", "epochs": "3"}
    _report("C07 prompt fidelity", template_ok and config_ok,
            "byte-exact template, 6 config keys")


def test_c08_structured_round_trip(data_dir):
    rng = random.Random(2718)
    alphabet = string.ascii_letters + string.digits + " +-*/=.,()"
    failures = 0
    for index in range(1000):
        bodies = []
        for _ in range(6):
            body = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 60)))
            body = body.strip() or "x"
            bodies.append(body)
        solution = StructuredSolution(*bodies)
        language = Language.HINDI if index % 2 else Language.ENGLISH
        if parse_structured(render_structured(solution, language)) != solution:
            failures += 1
    exemplars_ok = True
    for name in ("exemplar_probability.txt", "exemplar_hyperbola.txt"):
        text = (data_dir / name).read_text(encoding="utf-8")
        solution = parse_structured(text)
        exemplars_ok &= parse_structured(render_structured(solution)) == solution
    _report("C08 structured round-trip", failures == 0 and exemplars_ok,
            f"1000 randomized + 2 exemplars, {failures} failures")


def test_c09_extraction_fixture_suite(data_dir):
    cases = [json.loads(line) for line in
             (data_dir / "extraction_cases.jsonl").read_text(encoding="utf-8")
             .splitlines() if line.strip()]
    disagreements = 0
    for case in cases:
        extracted = extract_answer(case["text"])
        expect = case["expect"]
        if expect is None:
            disagreements += extracted is not None
            continue
        if expect["kind"] == "rational":
            num, _, den = expect["value"].partition("/")
            expected = AnswerValue.from_rational(Fraction(int(num), int(den or 1)))
        elif expect["kind"] == "decimal":
            expected = AnswerValue.from_decimal(expect["value"])
        else:
            expected = AnswerValue.from_expression(expect["value"])
        if extracted is None or grade(extracted, expected) is not Verdict.CORRECT:
            disagreements += 1
    required = ("14661", "60.5", "100y^2 - 44x^2 = 275")
    corpus_text = " ".join(case["text"] for case in cases)
    values = [case["expect"]["value"] for case in cases if case["expect"]]
    coverage_ok = (all(needle in corpus_text for needle in required)
                   and "2/3" in values and "1/6" in values)
    _report("C09 extraction suite",
            len(cases) >= 40 and disagreements == 0 and coverage_ok,
            f"{len(cases)} cases, {disagreements} disagreements")


def test_c10_fleiss_kappa():
    start = time.perf_counter()
    unanimous = fleiss_kappa([[4, 0, 0], [0, 4, 0], [4, 0, 0]])
    derived = fleiss_kappa([[3, 0], [2, 1]])
    # brute-force oracle recomputed from the definition
    counts = [[3, 0], [2, 1]]
    n, items = 3, 2
    p_bar = Fraction(sum(c * (c - 1) for row in counts for c in row),
                     items * n * (n - 1))
    marginals = [Fraction(sum(row[j] for row in counts), items * n) for j in range(2)]
    p_exp = sum(p * p for p in marginals)
    oracle = (p_bar - p_exp) / (1 - p_exp)
    rng = random.Random(55)
    matrix = [[2, 1, 0], [1, 1, 1], [0, 0, 3], [3, 0, 0], [1, 2, 0], [0, 3, 0]]
    baseline = fleiss_kappa(matrix)
    permutation_ok = True
    for _ in range(100):
        shuffled = matrix[:]
        rng.shuffle(shuffled)
        permutation_ok &= fleiss_kappa(shuffled) == baseline
    elapsed = time.perf_counter() - start
    ok = (unanimous == 1.0
          and oracle == Fraction(-1, 5)
          and abs(derived - float(oracle)) < 1e-12
          and permutation_ok
          and elapsed < 1.0)
    _report("C10 rater agreement", ok,
            f"kappa={derived}, oracle={float(oracle)}, {elapsed:.3f}s")


def test_c11_accuracy_report_layout():
    problems = [make_problem(f"g{i}", source=Source.GSM8K) for i in range(100)]
    problems.append(make_problem("h1", source=Source.INDIMATHQA,
                                 language=Language.HINDI, difficulty=Difficulty.EASY))
    manifest = make_manifest(problems)
    one = AnswerValue.from_rational(1)
    grades = [GradeRecord(f"g{i}", "model-x", one, one,
                          Verdict.CORRECT if i < 71 else Verdict.INCORRECT)
              for i in range(100)]
    grades.append(GradeRecord("h1", "model-x", one, one, Verdict.CORRECT))
    grades_extra = [GradeRecord(f"g{i}", "model-y", one, one,
                                Verdict.CORRECT if i < 2 else Verdict.INCORRECT)
                    for i in range(3)]
    report = accuracy_report(grades + grades_extra, manifest)
    table = report.render_table()
    lines = table.splitlines()
    ok = (
        "71%" in table
        and "67%" in table  # 2 of 3, half-up
        and "English Benchmarks" in lines[0]
        and "Hindi Benchmarks" in lines[0]
        and lines[0].index("English Benchmarks") < lines[0].index("Hindi Benchmarks")
        and lines[1].count("Easy") == 2
        and lines[1].count("Medium") == 2
        and lines[1].count("Hard") == 2
        and "—" in table
    )
    _report("C11 report layout", ok, "grouped columns, half-up percentages")


def test_c12_pipeline_performance(tmp_path):
    start = time.perf_counter()
    rc = main(["run", "--out", str(tmp_path / "demo_out")])
    assert rc == 0
    rng = random.Random(8)
    problems = []
    for i in range(10_000):
        a, b = rng.randrange(1, 10**4), rng.randrange(1, 100)
        op = Operation.MUL if i % 2 else Operation.DIV
        symbol = "×" if op is Operation.MUL else "÷"
        total = a * b if op is Operation.MUL else Fraction(a, b)
        problems.append(make_problem(
            f"syn-{i:05d}",
            question=f"Problem {i}: combine {a} and {b}, then report the total "
                     f"of the {i % 7} groups that remain after step {i % 3}.",
            language=Language.HINDI, source=Source.HAWP, operation=op,
            raw_solution=f"{a} {symbol} {b} = {total}"))
    manifest = make_manifest(problems)
    classified = rank_bottom_k(manifest, 700)
    outcome = apply_decomposition(classified)
    assignment = split(outcome.manifest, seed=3)
    elapsed = time.perf_counter() - start
    ok = (elapsed < 10.0
          and outcome.rewritten == 10_000
          and len(assignment.assignments) == 10_000)
    _report("C12 pipeline performance", ok, f"demo + 10k problems in {elapsed:.2f}s")
