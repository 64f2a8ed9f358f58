import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ganitprep
from conftest import make_manifest, make_problem, write_jsonl, write_record_lines
from ganitprep.cli import build_parser, main
from ganitprep.corpus import Difficulty, Language, Source, load_manifest, save_manifest


_SOLUTION = {"data_identification": "2 and 2", "problem_analysis": "a sum",
             "theoretical_framework": "addition", "methodology_development": "add",
             "computation": "2 + 2 = 4", "answer": "4",
             "final_answer": {"kind": "Rational", "rational": "4/1"}}


def _gsm8k_file(tmp_path, count=6):
    path = tmp_path / "gsm8k.jsonl"
    write_jsonl(path, [
        {"question": f"What is {i} + {i}?", "answer": f"{i} + {i} = {2*i}\n#### {2*i}"}
        for i in range(1, count + 1)
    ])
    return path


class TestBasicCommands:
    def test_ingest_summary_line(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        rc = main(["ingest", "--format", "gsm8k",
                   "--in", str(_gsm8k_file(tmp_path)), "--out", str(out)])
        assert rc == 0
        assert "stage=ingest in=6 out=6 flagged=0" in capsys.readouterr().out
        assert len(load_manifest(out)) == 6

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["ingest", "--bogus"]) == 2

    def test_stage_failure_prints_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        rc = main(["classify", "--in", str(missing), "--out",
                   str(tmp_path / "o.jsonl"), "--math-levels"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error=")
        assert "\n" == err[err.index("\n"):]  # single line

    def test_classify_bottom_k(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.jsonl"
        rc = main(["ingest", "--format", "gsm8k",
                   "--in", str(_gsm8k_file(tmp_path)), "--out", str(manifest_path)])
        assert rc == 0
        out = tmp_path / "classified.jsonl"
        rc = main(["classify", "--in", str(manifest_path), "--out", str(out),
                   "--score", "--bottom-k", "3"])
        assert rc == 0
        classified = load_manifest(out)
        easy = [p for p in classified if p.difficulty is Difficulty.EASY]
        assert len(easy) == 3

    def test_decompose_summary(self, tmp_path, capsys):
        hawp = tmp_path / "hawp.jsonl"
        write_jsonl(hawp, [
            {"question": "कुल कितनी टॉफ़ियाँ?", "operation": "mul",
             "solution": "543 × 27 = 14661"},
            {"question": "कितना चावल?", "operation": "div", "solution": "968 ÷ 16 = 60.5"},
            {"question": "कितने बचे?", "operation": "sub", "solution": "9 - 4 = 5"},
        ])
        m = tmp_path / "m.jsonl"
        assert main(["ingest", "--format", "hawp", "--in", str(hawp),
                     "--out", str(m)]) == 0
        out = tmp_path / "d.jsonl"
        assert main(["decompose", "--in", str(m), "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "rewritten=2 skipped=0" in output
        assert "stage=decompose" in output

    def test_decompose_flagged_line_is_counted(self, tmp_path, capsys):
        hawp, m = tmp_path / "hawp.jsonl", tmp_path / "m.jsonl"
        write_jsonl(hawp, [
            {"question": "कितने?", "operation": "mul", "solution": "12 × 3 = 36"},
            {"question": "कितने?", "operation": "div", "solution": "7 ÷ 0 = ?"},
        ])
        assert main(["ingest", "--format", "hawp", "--in", str(hawp), "--out", str(m)]) == 0
        capsys.readouterr()
        assert main(["decompose", "--in", str(m), "--out", str(tmp_path / "d.jsonl")]) == 0
        assert capsys.readouterr().out == ("rewritten=1 skipped=1\n"
                                           "stage=decompose in=2 out=2 flagged=1\n")

    def test_structure_prompt_and_config(self, tmp_path, capsys):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({"Question": "Q", "Response": "R"}),
                            encoding="utf-8")
        rc = main(["structure", "prompt", "--template", "finetune",
                   "--bindings", str(bindings)])
        assert rc == 0
        assert "### Instruction:\nQ" in capsys.readouterr().out
        config_out = tmp_path / "cfg.txt"
        assert main(["structure", "emit-config", "--out", str(config_out)]) == 0
        assert "top_k=40" in config_out.read_text(encoding="utf-8")

    def test_kappa_command(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("3 0\n2 1\n", encoding="utf-8")
        assert main(["kappa", "--counts", str(counts)]) == 0
        assert "kappa=-0.200000" in capsys.readouterr().out

    def test_evaluate_kappa_is_not_a_command(self):
        assert main(["evaluate", "kappa", "--counts", "counts.txt"]) == 2


class TestCurriculumFlow:
    def _classified_manifest(self, tmp_path):
        problems = (
            [make_problem(f"e{i}", difficulty=Difficulty.EASY,
                          raw_solution=f"#### {i}") for i in range(10)]
            + [make_problem(f"m{i}", difficulty=Difficulty.MEDIUM,
                            raw_solution=f"#### {i}") for i in range(10)]
        )
        path = tmp_path / "classified.jsonl"
        save_manifest(make_manifest(problems), path)
        return path

    @staticmethod
    def _export(tmp_path, problems, extra_records=()) -> int:
        """Export stage SFT_easy, training ``problems`` in this order, to stage.jsonl.
        ``extra_records`` are appended to m.jsonl as raw JSON lines."""
        manifest_path, curriculum_path = tmp_path / "m.jsonl", tmp_path / "c.json"
        save_manifest(make_manifest(problems), manifest_path)
        with manifest_path.open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in extra_records)
        curriculum_path.write_text(json.dumps({
            "stages": [{"name": "SFT_easy", "train_ids": [p.id for p in problems],
                        "parent_checkpoint": "", "checkpoint_name": "SFT_easy"}],
            "mode": "en", "cumulative": False}), encoding="utf-8")
        return main(["curriculum", "export", "--curriculum", str(curriculum_path),
                     "--manifest", str(manifest_path), "--stage", "SFT_easy",
                     "--out", str(tmp_path / "stage.jsonl")])

    def test_split_build_export(self, tmp_path, capsys):
        manifest = self._classified_manifest(tmp_path)
        split_path = tmp_path / "split.json"
        assert main(["curriculum", "split", "--in", str(manifest), "--seed", "5",
                     "--out", str(split_path)]) == 0
        curriculum_path = tmp_path / "curriculum.json"
        assert main(["curriculum", "build", "--in", str(manifest),
                     "--split", str(split_path), "--out", str(curriculum_path)]) == 0
        stage_path = tmp_path / "stage.jsonl"
        assert main(["curriculum", "export", "--curriculum", str(curriculum_path),
                     "--manifest", str(manifest), "--stage", "SFT_easy",
                     "--seed", "1", "--out", str(stage_path)]) == 0
        out = capsys.readouterr().out
        assert "exported=7 skipped=0" in out
        lines = stage_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 8  # header + 7 records

    def test_export_flags_a_problem_without_solution(self, tmp_path, capsys):
        problems = [make_problem("bare", difficulty=Difficulty.EASY)] + [
            make_problem(f"e{i}", difficulty=Difficulty.EASY, raw_solution=f"#### {i}")
            for i in range(3)]
        assert self._export(tmp_path, problems) == 0
        assert capsys.readouterr().out == ("exported=3 skipped=1\n"
                                           "stage=curriculum-export in=4 out=3 flagged=1\n")

    def test_export_flags_a_pending_item(self, tmp_path, capsys):
        pending = make_problem("syn-000001", source=Source.SYNTHETIC, raw_solution="#### 1",
                               difficulty=Difficulty.EASY, extras={"review_status": "pending"})
        assert self._export(tmp_path, [pending]) == 0
        assert capsys.readouterr().out == ("exported=0 skipped=1\n"
                                           "stage=curriculum-export in=1 out=0 flagged=1\n")
        assert "syn-000001" not in (tmp_path / "stage.jsonl").read_text(encoding="utf-8")

    def test_build_with_a_stale_split_exits_1(self, tmp_path, capsys):
        manifest, split_path = self._classified_manifest(tmp_path), tmp_path / "split.json"
        assert main(["curriculum", "split", "--in", str(manifest),
                     "--out", str(split_path)]) == 0
        payload = json.loads(split_path.read_text(encoding="utf-8"))
        for pid in ("m3", "m2", "m1", "m0", "e1", "e0"):
            del payload["assignments"][pid]
        split_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        rc = main(["curriculum", "build", "--in", str(manifest),
                   "--split", str(split_path), "--out", str(tmp_path / "c.json")])
        assert rc == 1
        assert _single_error(capsys) == (
            f"{split_path}: the split assigns neither side to 6 of the manifest's "
            "problems, among them ['e0', 'e1', 'm0', 'm1', 'm2']")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("payload,message", [
        ([], "split file must be a JSON object, not an array"),
        ({"seed": 1, "ratio": 0.7, "assignments": {}}, "split file has no key 'strata'"),
        ({"seed": 1, "ratio": 0.7, "assignments": {}, "strata": [5]},
         "split file is malformed: 'int' object is not subscriptable"),
    ])
    def test_build_bad_split_file_exits_1(self, tmp_path, capsys, payload, message):
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["curriculum", "build", "--in", str(self._classified_manifest(tmp_path)),
                   "--split", str(split_path), "--out", str(tmp_path / "c.json")])
        assert rc == 1
        assert _single_error(capsys) == f"{split_path}: {message}"

    @pytest.mark.parametrize("payload,message", [
        ({"stages": 5, "mode": "en", "cumulative": False},
         "curriculum file key 'stages' must be an array, not an integer"),
        ({"stages": [{"name": "SFT_easy"}], "mode": "en", "cumulative": False},
         "curriculum file has no key 'train_ids'"),
        ({"stages": [], "mode": "fr", "cumulative": False},
         "curriculum file is malformed: 'fr' is not a valid TrainingMode"),
        ({"stages": [{"name": "SFT_easy", "train_ids": "e1", "parent_checkpoint": "",
                      "checkpoint_name": "SFT_easy"}], "mode": "en", "cumulative": False},
         "curriculum file stage key 'train_ids' must be an array of strings, not a string"),
        ({"stages": [{"name": "SFT_easy", "train_ids": ["e0", "e1", "e0"],
                      "parent_checkpoint": "", "checkpoint_name": "SFT_easy"}],
          "mode": "en", "cumulative": False},
         "stage 'SFT_easy' repeats train id 'e0'"),
        ({"stages": [{"name": "SFT_easy", "train_ids": ["e0"], "parent_checkpoint": "",
                      "checkpoint_name": ["x"]}], "mode": "en", "cumulative": False},
         "curriculum file stage key 'checkpoint_name' must be a string, not an array"),
        ({"stages": [{"name": "SFT_easy", "train_ids": ["e0"], "parent_checkpoint": 7,
                      "checkpoint_name": "SFT_easy"}], "mode": "en", "cumulative": False},
         "curriculum file stage key 'parent_checkpoint' must be a string, not an integer"),
        ({"stages": [{"name": 5, "train_ids": ["e0"], "parent_checkpoint": "",
                      "checkpoint_name": "SFT_easy"}], "mode": "en", "cumulative": False},
         "curriculum file stage key 'name' must be a string, not an integer"),
    ])
    def test_export_bad_curriculum_file_exits_1(self, tmp_path, capsys, payload, message):
        curriculum_path = tmp_path / "curriculum.json"
        curriculum_path.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["curriculum", "export", "--curriculum", str(curriculum_path),
                   "--manifest", str(self._classified_manifest(tmp_path)),
                   "--stage", "SFT_easy", "--out", str(tmp_path / "stage.jsonl")])
        assert rc == 1
        assert _single_error(capsys) == f"{curriculum_path}: {message}"

    @pytest.mark.parametrize("structured,message", [
        pytest.param([1], "field 'structured_solution' must be dict or null, not list",
                     id="payload0-structured solution is an array"),
        *(pytest.param({**_SOLUTION, "final_answer": value},
                       f"an answer must be an object, not {type(value).__name__}",
                       id=f"final_answer-{value!r}") for value in ([], "", 0, False)),
    ])
    def test_render_bad_structure_file_exits_1(self, tmp_path, capsys, structured, message):
        # Export renders each structured solution, so a wrongly typed one stops it
        # at the manifest line that holds it, before anything is written.
        problem = make_problem("p", raw_solution="#### 1")
        bad = {**problem.to_dict(), "id": "q", "structured_solution": structured}
        assert self._export(tmp_path, [problem], extra_records=[bad]) == 1
        assert _single_error(capsys) == f"{tmp_path / 'm.jsonl'}:3: unreadable record: {message}"
        assert not (tmp_path / "stage.jsonl").exists()

    @pytest.mark.parametrize("text", ["", "{", "\ufeff{}", "[1"])
    def test_build_unreadable_split_file_exits_1(self, tmp_path, capsys, text):
        split_path = tmp_path / "split.json"
        split_path.write_text(text, encoding="utf-8")
        rc = main(["curriculum", "build", "--in", str(self._classified_manifest(tmp_path)),
                   "--split", str(split_path), "--out", str(tmp_path / "c.json")])
        assert rc == 1
        assert _single_error(capsys).startswith(f"{split_path}: split file is malformed: ")
        assert not (tmp_path / "c.json").exists()

    def test_build_without_classify_errors(self, tmp_path, capsys):
        problems = [make_problem(f"u{i}", raw_solution="#### 1") for i in range(10)]
        manifest_path = tmp_path / "unclassified.jsonl"
        save_manifest(make_manifest(problems), manifest_path)
        split_path = tmp_path / "split.json"
        assert main(["curriculum", "split", "--in", str(manifest_path),
                     "--out", str(split_path)]) == 0
        rc = main(["curriculum", "build", "--in", str(manifest_path),
                   "--split", str(split_path), "--out", str(tmp_path / "c.json")])
        assert rc == 1
        assert "Unclassified problems in Easy/Medium strata" in capsys.readouterr().err


class TestEvaluateAndAugmentCommands:
    def test_grade_then_report(self, tmp_path, capsys):
        problems = [make_problem(f"p{i}", raw_solution=f"#### {i}") for i in range(4)]
        manifest_path = tmp_path / "m.jsonl"
        save_manifest(make_manifest(problems), manifest_path)
        pred = tmp_path / "pred.tsv"
        pred.write_text("p0\t#### 0\np1\t#### 9\np2\tno answer given\n",
                        encoding="utf-8")
        grades_path = tmp_path / "grades.jsonl"
        rc = main(["evaluate", "grade", "--pred", str(pred),
                   "--manifest", str(manifest_path), "--model", "m1",
                   "--out", str(grades_path)])
        assert rc == 0
        assert "graded=3 correct=1 unparseable=1" in capsys.readouterr().out
        report_path = tmp_path / "report.txt"
        rc = main(["evaluate", "report", "--grades", str(grades_path),
                   "--manifest", str(manifest_path), "--out", str(report_path)])
        assert rc == 0
        assert "33%" in report_path.read_text(encoding="utf-8")
        assert report_path.with_suffix(".csv").exists()

    def test_pair_and_merge_commands(self, tmp_path, capsys):
        from ganitprep.corpus import Language, Source

        en = make_manifest([
            make_problem(f"q{i}-en", source=Source.INDIMATHQA,
                         difficulty=Difficulty.EASY) for i in range(3)])
        hi = make_manifest([
            make_problem(f"q{i}-hi", language=Language.HINDI,
                         source=Source.INDIMATHQA,
                         difficulty=Difficulty.EASY) for i in range(3)])
        en_path, hi_path = tmp_path / "en.jsonl", tmp_path / "hi.jsonl"
        save_manifest(en, en_path)
        save_manifest(hi, hi_path)
        paired_path = tmp_path / "paired.jsonl"
        assert main(["curriculum", "pair", "--en", str(en_path),
                     "--hi", str(hi_path), "--key", "byindex",
                     "--out", str(paired_path)]) == 0
        assert "stage=curriculum-pair in=6 out=6" in capsys.readouterr().out
        other = make_manifest([make_problem("solo-1")])
        other_path = tmp_path / "other.jsonl"
        save_manifest(other, other_path)
        merged_path = tmp_path / "merged.jsonl"
        assert main(["curriculum", "merge", "--in", str(paired_path),
                     str(other_path), "--out", str(merged_path)]) == 0
        out = capsys.readouterr().out
        assert "totals:" in out
        assert len(load_manifest(merged_path)) == 7

    def test_augment_command(self, tmp_path, capsys):
        from ganitprep.llm_client import write_mock_fixture
        from ganitprep.structure import PromptName, get_template, render_prompt

        problems = [make_problem(f"s{i}", question=f"What is {i}+{i}?",
                                 raw_solution=f"#### {2*i}") for i in range(3)]
        manifest_path = tmp_path / "seeds.jsonl"
        save_manifest(make_manifest(problems), manifest_path)
        fixtures = tmp_path / "fixtures"
        template = get_template(PromptName.AUGMENT)
        for problem in problems:
            prompt = render_prompt(template, {
                "Example": problem.question,
                "refined_solution": problem.raw_solution,
                "Question": "",
            })
            write_mock_fixture(fixtures, prompt,
                               f"Question: variant of {problem.id}?\nAnswer: 1")
        config_path = tmp_path / "provider.json"
        config_path.write_text(json.dumps({"kind": "mock",
                                           "fixtures_dir": str(fixtures)}),
                               encoding="utf-8")
        out_path = tmp_path / "synthetic.jsonl"
        rc = main(["augment", "--in", str(manifest_path), "--target", "3",
                   "--config", str(config_path), "--out", str(out_path)])
        assert rc == 0
        assert "stage=augment in=3 out=3 flagged=0" in capsys.readouterr().out
        synthetic = load_manifest(out_path)
        assert [p.id for p in synthetic] == ["syn-000001", "syn-000002", "syn-000003"]

    def test_augment_discard_is_reported_only_in_stage_line(self, tmp_path, capsys, caplog):
        from ganitprep.llm_client import write_mock_fixture
        from ganitprep.structure import PromptName, get_template, render_prompt

        problems = [make_problem(f"p{i}", question=f"What is {i}+{i}?",
                                 raw_solution=f"#### {2*i}") for i in range(3)]
        manifest_path = tmp_path / "seeds.jsonl"
        save_manifest(make_manifest(problems), manifest_path)
        fixtures = tmp_path / "fixtures"
        for problem in problems:
            prompt = render_prompt(get_template(PromptName.AUGMENT), {
                "Example": problem.question,
                "refined_solution": problem.raw_solution,
                "Question": "",
            })
            text = ("garbled" if problem.id == "p1"
                    else f"Question: variant of {problem.id}?\nAnswer: 1")
            write_mock_fixture(fixtures, prompt, text)
        config_path = tmp_path / "provider.json"
        config_path.write_text(json.dumps({"kind": "mock", "fixtures_dir": str(fixtures)}),
                               encoding="utf-8")
        rc = main(["augment", "--in", str(manifest_path), "--target", "2",
                   "--config", str(config_path), "--out", str(tmp_path / "syn.jsonl")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "stage=augment in=3 out=2 flagged=1" in captured.out
        assert captured.err == "" and caplog.records == []


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--out", str(out_dir)]) == 0
    return out_dir


class TestEvaluateReport:
    def _report(self, demo_dir, out, *extra, grades=None):
        return main(["evaluate", "report", "--grades", str(grades or demo_dir / "grades.jsonl"),
                     "--manifest", str(demo_dir / "merged.jsonl"), "--out", str(out), *extra])

    def test_matches_library_report(self, demo_dir, tmp_path):
        from ganitprep.evaluate import accuracy_report, load_grades

        assert self._report(demo_dir, tmp_path / "report.txt") == 0
        report = accuracy_report(load_grades(demo_dir / "grades.jsonl"),
                                 load_manifest(demo_dir / "merged.jsonl"))
        assert (tmp_path / "report.txt").read_bytes() == report.render_table().encode()
        assert (tmp_path / "report.csv").read_bytes() == report.to_csv().encode()
        # The demo writes the same two files through the library.
        assert (tmp_path / "report.txt").read_bytes() == (demo_dir / "report.txt").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == (demo_dir / "report.csv").read_bytes()

    def test_table_onto_csv_path_refused(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert self._report(demo_dir, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error=") and str(out) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("changes,message", [
        ({"verdict": "Maybe"}, "unknown verdict 'Maybe'"),
        ({"verdict": "Unparseable"}, "Unparseable verdict must pair"),
        *(pytest.param({"verdict": "Unparseable", "predicted": value},
                       "Unparseable verdict must pair", id=f"predicted-{value!r}")
          for value in ([], "", 0, False)),
        pytest.param({"predicted": "7"},
                     "predicted must be an object or null, not str",
                     id="predicted-str"),
        pytest.param({"reference": None}, "missing field 'reference'", id="no-reference"),
        pytest.param({"verdict": "Unparseable", "predicted": None, "reference": "7"},
                     "reference must be an object, not str",
                     id="reference-str"),
    ])
    def test_bad_grade_line_exits_1(self, demo_dir, tmp_path, capsys, changes, message):
        lines = (demo_dir / "grades.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["predicted"] is not None
        record.update(changes)
        if "reference" in changes and changes["reference"] is None:  # the key is absent
            del record["reference"]
        lines[1] = json.dumps(record)
        grades = tmp_path / "grades.jsonl"
        grades.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._report(demo_dir, tmp_path / "report.txt", grades=grades) == 1
        assert f"{grades}:2: {message}" in json.loads(capsys.readouterr().err[len("error="):])
        assert not (tmp_path / "report.txt").exists()


    @pytest.mark.parametrize("key,value", [("problem_id", [1]), ("model_name", None)])
    def test_non_string_grade_id_exits_1(self, demo_dir, tmp_path, capsys, key, value):
        lines = (demo_dir / "grades.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record[key] = value
        lines[1] = json.dumps(record)
        grades = tmp_path / "grades.jsonl"
        grades.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._report(demo_dir, tmp_path / "report.txt", grades=grades) == 1
        err = capsys.readouterr().err
        assert err.startswith("error=") and err.count("\n") == 1
        assert f"{grades}:2: {key} is not a string" in json.loads(err[len("error="):])
        assert not (tmp_path / "report.txt").exists()


_GRADE_LINE = json.dumps({"problem_id": "zzz", "model_name": "m", "predicted": None,
                          "reference": {"kind": "Rational", "rational": "1/1"},
                          "verdict": "Unparseable"})
_STAGES = json.dumps({"stages": [{"name": "SFT_easy", "train_ids": ["zzz"],
                                  "parent_checkpoint": "", "checkpoint_name": "SFT_easy"}],
                      "mode": "en", "cumulative": False})


@pytest.mark.parametrize("argv,text,message", [
    (["classify", "--in", "{merged}", "--annotations", "{path}", "--out", "{out}"],
     "zzz\tEasy\n", "{path}: annotations reference unknown ids: zzz"),
    (["evaluate", "grade", "--pred", "{path}", "--manifest", "{merged}", "--model", "m",
      "--out", "{out}"], "zzz\t4\n", "{path}: no problem with id 'zzz'"),
    (["evaluate", "report", "--grades", "{path}", "--manifest", "{merged}", "--out", "{out}"],
     _GRADE_LINE, "{path}:1: no problem with id 'zzz'"),  # a report reads line by line
    (["curriculum", "export", "--curriculum", "{path}", "--manifest", "{merged}",
      "--stage", "SFT_easy", "--out", "{out}"], _STAGES, "{path}: no problem with id 'zzz'"),
], ids=["annotations", "predictions", "grades", "curriculum"])
def test_unknown_id_names_its_file(demo_dir, tmp_path, capsys, argv, text, message):
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    merged = demo_dir / "merged.jsonl"
    assert main([arg.format(merged=merged, path=path, out=out) for arg in argv]) == 1
    assert _single_error(capsys) == message.format(path=path)
    assert not out.exists()


def _unreadable_structured(tmp_path, capsys, structured) -> str:
    """What ``curriculum split`` says of a manifest whose line 3 holds a record
    with ``structured`` as its structured solution, after ``unreadable record: ``."""
    manifest_path = tmp_path / "m.jsonl"
    problem = make_problem("p", raw_solution="#### 1")
    save_manifest(make_manifest([problem]), manifest_path)
    record = {**problem.to_dict(), "id": "q", "structured_solution": structured}
    with manifest_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    rc = main(["curriculum", "split", "--in", str(manifest_path),
               "--out", str(tmp_path / "split.json")])
    assert rc == 1
    assert not (tmp_path / "split.json").exists()
    prefix, _, rest = _single_error(capsys).partition("unreadable record: ")
    assert prefix == f"{manifest_path}:3: "
    return rest


@pytest.mark.parametrize("structured", [
    "text", [1],
    *(pytest.param(value, id=f"structured-{value!r}") for value in ([], "", 0, False)),
    *(pytest.param({**_SOLUTION, "final_answer": value}, id=f"final_answer-{value!r}")
      for value in ([], "", 0, False)),
])
def test_wrong_typed_manifest_field_exits_1(tmp_path, capsys, structured):
    _unreadable_structured(tmp_path, capsys, structured)


@pytest.mark.parametrize("structured,message", [
    ({**_SOLUTION, "computation": 5},
     "structured solution key 'computation' must be a string, not an integer"),
    ({**_SOLUTION, "answer": None},
     "structured solution key 'answer' must be a string, not null"),
    ({key: _SOLUTION[key] for key in list(_SOLUTION)[1:]},
     "structured solution has no key 'data_identification'"),
    ({**_SOLUTION, "final_answer": "x"}, "an answer must be an object, not str"),
    ({**_SOLUTION, "final_answer": {"kind": "Rational", "rational": "1/0"}},
     "Fraction(1, 0)"),
    ({**_SOLUTION, "final_answer": {"kind": "Bogus"}}, "'Bogus' is not a valid AnswerKind"),
], ids=["computation-5", "answer-null", "no-data_identification", "final_answer-x",
        "final_answer-1/0", "final_answer-Bogus"])
def test_malformed_manifest_structured_solution_exits_1(tmp_path, capsys, structured,
                                                        message):
    assert _unreadable_structured(tmp_path, capsys, structured).startswith(message)


@pytest.mark.parametrize("key,value,argv", [
    ("question", 5, ["classify", "--score", "--bottom-k", "1"]),
    ("id", 7, ["curriculum", "split"]),
    ("extras", [1], ["classify", "--math-levels"]),
])
def test_wrong_typed_scalar_field_exits_1(tmp_path, capsys, key, value, argv):
    # The header checksum matches, so only the record check stops the stage.
    manifest_path, out = tmp_path / "m.jsonl", tmp_path / "out"
    good = make_problem("p", raw_solution="#### 1").to_dict()
    bad = {**good, "id": "q", key: value}
    write_record_lines(manifest_path, [json.dumps(good), json.dumps(bad)])
    rc = main([*argv, "--in", str(manifest_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error=") and err.count("\n") == 1
    assert (f"{manifest_path}:3: unreadable record: field {key!r}"
            in json.loads(err[len("error="):]))
    assert not out.exists()


def test_non_object_manifest_line_exits_1(tmp_path, capsys):
    manifest_path = tmp_path / "m.jsonl"
    save_manifest(make_manifest([make_problem("p", raw_solution="#### 1")]), manifest_path)
    text = manifest_path.read_text(encoding="utf-8")
    manifest_path.write_text(text + "[]\n", encoding="utf-8")
    rc = main(["curriculum", "split", "--in", str(manifest_path),
               "--out", str(tmp_path / "split.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error=") and err.count("\n") == 1
    assert f"{manifest_path}:3: record is not an object" in json.loads(err[len("error="):])


def _single_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error=") and err.count("\n") == 1
    return json.loads(err[len("error="):])


@pytest.mark.parametrize("config,message", [
    ([], "client config must be a JSON object, not an array"),
    ({"concurrency": "2"}, "client config key 'concurrency' must be an integer, "
                           "not a string"),
    ({"retry": [1]}, "client config key 'retry' must be an object, not an array"),
    ({"retry": {"max_attempts": True}},
     "client config retry key 'max_attempts' must be an integer, not a boolean"),
    ({"concurency": 8}, "unknown client config keys: ['concurency']"),
    ({"retry": {"max_attempt": 2}}, "unknown client config retry keys: ['max_attempt']"),
    ({"kind": "http", "endpoint": "http://example.test", "retry": {"max_attempts": 0}},
     "retry max_attempts must be >= 1, got 0"),
    ({"kind": "http", "endpoint": "http://example.test", "retry": {"base_seconds": -1.0}},
     "retry base_seconds must be >= 0, got -1.0"),
    ({"kind": "http", "endpoint": "http://example.test", "retry": {"factor": -2}},
     "retry factor must be >= 0, got -2"),
    *(({"kind": "http", "endpoint": endpoint}, "http provider endpoint must be an "
       f"http:// or https:// URL, got {endpoint!r}")
      for endpoint in ("", "htp://example.test", "file:///etc/hostname", "http://",
                       "example.test/generate")),
])
def test_augment_bad_config_writes_nothing(tmp_path, capsys, monkeypatch, config, message):
    from ganitprep import llm_client

    calls = []
    monkeypatch.setattr(llm_client, "_urllib_transport",
                        lambda *request: calls.append(request) or (503, "busy"))
    manifest_path = tmp_path / "seeds.jsonl"
    save_manifest(make_manifest([make_problem("s0", raw_solution="#### 1")]), manifest_path)
    config_path = tmp_path / "provider.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_path = tmp_path / "synthetic.jsonl"
    rc = main(["augment", "--in", str(manifest_path), "--target", "1",
               "--config", str(config_path), "--out", str(out_path)])
    assert rc == 1
    assert _single_error(capsys) == f"{config_path}: {message}"
    assert not out_path.exists()
    assert calls == []


def test_augment_over_http(tmp_path, capsys, loopback):
    # The provider's own transport, not a stand-in: a 503 is retried, then
    # the generated problem is saved.
    loopback.replies = [(503, "busy"),
                        (200, json.dumps({"text": "Question: What is 3 + 3?\nAnswer: 6"}))]
    manifest_path = tmp_path / "seeds.jsonl"
    save_manifest(make_manifest([make_problem("s0", raw_solution="#### 1")]), manifest_path)
    config_path = tmp_path / "provider.json"
    config_path.write_text(json.dumps({"kind": "http", "endpoint": loopback.url,
                                       "retry": {"base_seconds": 0}}), encoding="utf-8")
    out_path = tmp_path / "synthetic.jsonl"
    assert main(["augment", "--in", str(manifest_path), "--target", "1",
                 "--config", str(config_path), "--out", str(out_path)]) == 0
    assert "stage=augment in=1 out=1 flagged=0" in capsys.readouterr().out
    assert len(loopback.received) == 2
    [problem] = load_manifest(out_path)
    assert (problem.id, problem.question, problem.raw_solution) == (
        "syn-000001", "What is 3 + 3?", "6")


@pytest.mark.parametrize("text", ["", "{\"kind\": \"mock\"", "kind=mock",
                                  "[" * 100_000 + "]" * 100_000])
@pytest.mark.parametrize("argv", [
    ["augment", "--in", "{manifest}", "--target", "1", "--config", "{path}",
     "--out", "{out}"],
    ["structure", "prompt", "--template", "finetune", "--bindings", "{path}", "--out", "{out}"],
], ids=["client config", "bindings"])
def test_non_json_file_exits_1(tmp_path, capsys, argv, text):
    manifest = tmp_path / "seeds.jsonl"
    save_manifest(make_manifest([make_problem("s0", raw_solution="#### 1")]), manifest)
    path, out = tmp_path / "file.json", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    rc = main([arg.format(manifest=manifest, path=path, out=out) for arg in argv])
    assert rc == 1
    message = _single_error(capsys)
    assert message.startswith(f"{path}: ") and " is malformed: " in message
    assert not out.exists()


@pytest.mark.parametrize("value,kind", [(None, "null"), (["x"], "an array"),
                                        (True, "a boolean")], ids=["null", "array", "boolean"])
def test_non_string_binding_exits_1(tmp_path, capsys, value, kind):
    path, out = tmp_path / "b.json", tmp_path / "out"
    path.write_text(json.dumps({"Question": value, "Response": "R"}), encoding="utf-8")
    rc = main(["structure", "prompt", "--template", "finetune", "--bindings", str(path),
               "--out", str(out)])
    assert rc == 1
    assert _single_error(capsys) == (f"{path}: bindings file key 'Question' must be "
                                     f"a string, not {kind}")
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("2 0\n1\n", "{path}:2: row has 1 categories, expected 2"),
    ("# raters\n2 0\n\n1 1\n3 -1\n", "{path}:5: row has negative counts"),
    ("2 0\n1 2\n", "{path}:2: row sums to 3, expected 2"),
    ("1 0\n0 1\n", "{path}:1: row has fewer than two raters"),
    ("2 x\n", "{path}:1: non-integer count"),
    ("", "{path}: counts matrix must be nonempty"),
    ("# no rows\n\n", "{path}: counts matrix must be nonempty"),
])
def test_bad_counts_file_names_path_and_line(tmp_path, capsys, text, message):
    path = tmp_path / "counts.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["kappa", "--counts", str(path)]) == 1
    assert _single_error(capsys) == message.format(path=path)


# Every command that writes the file its --out names, with inputs it accepts;
# `demo --out` names a directory instead.
_WRITERS = {
    "ingest": ["ingest", "--format", "gsm8k", "--in", "{data}/gsm8k.jsonl"],
    "classify": ["classify", "--in", "{merged}", "--math-levels"],
    "decompose": ["decompose", "--in", "{demo}/hawp_decomposed.jsonl"],
    "structure-parse": ["structure", "parse", "--in", "{tmp}/solution.txt"],
    "structure-prompt": ["structure", "prompt", "--template", "finetune",
                         "--bindings", "{tmp}/bindings.json"],
    "structure-emit-config": ["structure", "emit-config"],
    "curriculum-pair": ["curriculum", "pair", "--en", "{tmp}/en.jsonl",
                        "--hi", "{tmp}/hi.jsonl"],
    "curriculum-merge": ["curriculum", "merge", "--in", "{merged}"],
    "curriculum-split": ["curriculum", "split", "--in", "{merged}"],
    "curriculum-build": ["curriculum", "build", "--in", "{merged}",
                         "--split", "{demo}/split.json"],
    "curriculum-export": ["curriculum", "export", "--curriculum", "{demo}/curriculum.json",
                          "--manifest", "{merged}", "--stage", "SFT_easy"],
    "augment": ["augment", "--in", "{merged}", "--target", "0",
                "--config", "{tmp}/provider.json"],
    "evaluate-grade": ["evaluate", "grade", "--pred", "{data}/predictions.tsv",
                       "--manifest", "{merged}", "--model", "m"],
    "evaluate-report": ["evaluate", "report", "--grades", "{demo}/grades.jsonl",
                        "--manifest", "{merged}"],
}


@pytest.mark.parametrize("out", ["/", ".", "", "..", "{tmp}/x/..", "{tmp}/missing/out.txt"],
                         ids=["root", "dot", "empty", "dotdot", "dir-dotdot", "missing-dir"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_out_path_that_names_no_writable_file_exits_1(demo_dir, tmp_path, capsys,
                                                      command, out):
    from ganitprep.pipeline import DEMO_DATA_DIR
    from ganitprep.structure import StructuredSolution, render_structured

    (tmp_path / "solution.txt").write_text(
        render_structured(StructuredSolution.from_dict(_SOLUTION)), encoding="utf-8")
    (tmp_path / "bindings.json").write_text(json.dumps({"Question": "Q", "Response": "R"}),
                                            encoding="utf-8")
    (tmp_path / "provider.json").write_text(
        json.dumps({"kind": "mock", "fixtures_dir": str(tmp_path)}), encoding="utf-8")
    for language, name in ((Language.ENGLISH, "en"), (Language.HINDI, "hi")):
        save_manifest(make_manifest([make_problem("p", language)]),
                      tmp_path / f"{name}.jsonl")
    out = out.format(tmp=tmp_path)
    argv = [*_WRITERS[command], "--out", out]
    assert main([arg.format(data=DEMO_DATA_DIR, demo=demo_dir, tmp=tmp_path,
                            merged=demo_dir / "merged.jsonl") for arg in argv]) == 1
    message = _single_error(capsys)
    if out.endswith("out.txt"):
        assert message.startswith("[Errno 2] ") and str(tmp_path / "missing") in message
        assert not (tmp_path / "missing").exists()
    else:  # refused before any temp file is made, naming no input
        assert message == f"output path {out!r} names no file"
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


class TestDemo:
    def test_demo_runs_clean(self, tmp_path, capsys, caplog):
        out_dir = tmp_path / "demo"
        rc = main(["demo", "--out", str(out_dir)])
        assert rc == 0
        # A flagged problem is reported in its stage's summary, not on stderr.
        captured = capsys.readouterr()
        assert captured.err == "" and caplog.records == []
        output = captured.out
        for stage in ("ingest-gsm8k", "classify", "decompose", "split", "build",
                      "export-SFT_easy", "export-SFT_easy+medium", "evaluate"):
            assert f"stage={stage}" in output
        for artifact in ("merged.jsonl", "split.json", "curriculum.json",
                         "train_SFT_easy.jsonl", "report.txt", "report.csv",
                         "training_config.txt", "grades.jsonl"):
            assert (out_dir / artifact).exists()

    def test_demo_idempotent(self, tmp_path):
        out_dir = tmp_path / "demo"
        assert main(["demo", "--out", str(out_dir)]) == 0
        snapshots = {
            name: (out_dir / name).read_bytes()
            for name in ("merged.jsonl", "split.json", "curriculum.json",
                         "train_SFT_easy.jsonl", "train_SFT_easy_medium.jsonl",
                         "report.txt", "grades.jsonl")
        }
        assert main(["demo", "--out", str(out_dir)]) == 0
        for name, before in snapshots.items():
            assert (out_dir / name).read_bytes() == before, name


def _modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    src = str(Path(ganitprep.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "; import sys; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          encoding="utf-8", env=env, timeout=60, check=True)
    return set(done.stdout.split())


def test_readme_cli_examples_parse():
    # Every ``ganitprep ...`` line in the code blocks of README's CLI section.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for block in section.split("```")[1::2]
             for line in block.splitlines() if line.startswith("ganitprep ")]
    assert len(lines) > 15
    parser = build_parser()
    shown = set()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        shown |= {(command, arg) for arg in argv if arg.startswith("--")}
    # Every option of every command appears in an example of that command.
    assert set(_option_pairs(parser)) - shown == set()


def _option_pairs(parser, command=()):
    """(command, option) for every option of every subcommand, in parser order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _option_pairs(subparser, (*command, name))
        elif not isinstance(action, argparse._HelpAction):
            yield from ((" ".join(command), option) for option in action.option_strings)


# Every option of the CLI. A flag added or removed shows in the diff of this table.
CLI_OPTIONS = {
    "ingest": "--format --in --out",
    "classify": "--in --out --math-levels --score --annotations --bottom-k",
    "decompose": "--in --out",
    "structure parse": "--in --lang --out",
    "structure prompt": "--template --bindings --out",
    "structure emit-config": "--out",
    "curriculum pair": "--en --hi --key --out",
    "curriculum merge": "--in --out",
    "curriculum split": "--in --seed --ratio --out",
    "curriculum build": "--in --split --mode --cumulative --out",
    "curriculum export": "--curriculum --manifest --stage --seed --out",
    "augment": "--in --target --config --out",
    "evaluate grade": "--pred --manifest --model --out",
    "evaluate report": "--grades --manifest --out",
    "kappa": "--counts",
    "demo": "--out",
}


def test_option_census():
    pairs = list(_option_pairs(build_parser()))
    assert pairs == [(command, option) for command, options in CLI_OPTIONS.items()
                     for option in options.split()]
    assert len(pairs) == 51


@pytest.mark.parametrize("argv", [
    ["decompose", "--in", "m", "--out", "o", "--ops", "add"],
    ["decompose", "--in", "m", "--out", "o", "--lang", "en"],
    ["evaluate", "report", "--grades", "g", "--manifest", "m", "--format", "csv"],
    ["augment", "--in", "m", "--target", "1", "--config", "c", "--out", "o",
     "--template", "augment"],
    ["demo", "--out", "d", "--config", "c"],
    ["structure", "render", "--in=s.json"],
], ids=["decompose-ops", "decompose-lang", "report-format", "augment-template",
        "demo-config", "structure-render"])
def test_removed_option_exits_2(capsys, argv):
    assert main(argv) == 2
    assert argv[-2] in capsys.readouterr().err


def test_cli_import_leaves_thread_pool_unloaded():
    # augment_batch imports concurrent.futures lazily; loading it at import
    # time would add to the start of every CLI stage.
    assert "concurrent.futures" not in _modules_after("import ganitprep.cli")


def test_llm_client_import_leaves_urllib_request_unloaded():
    # The HTTP transport imports urllib.request when it first sends; loading
    # it with the module would add to every augment start.
    assert "urllib.request" not in _modules_after("import ganitprep.llm_client")


# Every CLI stage process pays for what it imports; each handler loads its own.
_STAGE_MODULES = {"ganitprep.classify", "ganitprep.curriculum", "ganitprep.decompose",
                  "ganitprep.evaluate", "ganitprep.llm_client", "ganitprep.pipeline"}


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import ganitprep")
    assert {name for name in loaded if name.startswith("ganitprep.")} == set()


def test_parser_leaves_stage_modules_unloaded():
    loaded = _modules_after("import ganitprep.cli; ganitprep.cli.build_parser()")
    assert loaded & _STAGE_MODULES == set()


def test_curriculum_import_leaves_llm_client_unloaded():
    assert "ganitprep.llm_client" not in _modules_after("import ganitprep.curriculum")


# ---------------------------------------------------------------------------
# inputs that would be counted twice or ignored are refused


def test_repeated_prediction_id_exits_1(tmp_path, capsys):
    manifest_path, pred, out = tmp_path / "m.jsonl", tmp_path / "pred.tsv", tmp_path / "g"
    save_manifest(make_manifest([make_problem(f"p{i}", raw_solution=f"#### {i}")
                                 for i in range(2)]), manifest_path)
    pred.write_text("p0\t#### 0\np1\t#### 1\np0\t#### 5\n", encoding="utf-8")
    assert main(["evaluate", "grade", "--pred", str(pred), "--manifest", str(manifest_path),
                 "--model", "m", "--out", str(out)]) == 1
    assert _single_error(capsys) == f"{pred}:3: duplicate problem id 'p0'"
    assert not out.exists()


@pytest.mark.parametrize("output", [f"#### {'9' * 5000}", f"Final Answer: {'9' * 5000}",
                                    f"\\boxed{{{'9' * 5000}}}", f"it is {'9' * 5000}"],
                         ids=["marker", "final-answer", "boxed", "bare"])
def test_number_past_int_digit_limit_grades_unparseable(tmp_path, capsys, output):
    # One such prediction is graded like any other unreadable one; the stage
    # and every other verdict go on as before.
    manifest_path, pred, out = tmp_path / "m.jsonl", tmp_path / "pred.tsv", tmp_path / "g"
    save_manifest(make_manifest([make_problem(f"p{i}", raw_solution=f"#### {i}")
                                 for i in range(3)]), manifest_path)
    pred.write_text(f"p0\t#### 0\np1\t{output}\np2\t#### 5\n", encoding="utf-8")
    assert main(["evaluate", "grade", "--pred", str(pred), "--manifest", str(manifest_path),
                 "--model", "m", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("graded=3 correct=1 unparseable=1\n")
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(row["problem_id"], row["verdict"], row["predicted"]) for row in rows] == [
        ("p0", "Correct", {"kind": "Rational", "rational": "0/1"}),
        ("p1", "Unparseable", None),
        ("p2", "Incorrect", {"kind": "Rational", "rational": "5/1"})]


def test_repeated_grade_exits_1(demo_dir, tmp_path, capsys):
    grades, out = demo_dir / "grades.jsonl", tmp_path / "report.txt"
    assert main(["evaluate", "report", "--grades", str(grades), str(grades),
                 "--manifest", str(demo_dir / "merged.jsonl"), "--out", str(out)]) == 1
    message = _single_error(capsys)
    assert message.startswith(f"{grades}:1: second grade of problem ")
    assert not out.exists()


def test_unknown_grade_id_names_its_file_and_line(demo_dir, tmp_path, capsys):
    first, second, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "report.txt"
    lines = (demo_dir / "grades.jsonl").read_text(encoding="utf-8").splitlines()
    first.write_text(lines[0] + "\n", encoding="utf-8")
    second.write_text(lines[1] + "\n" + _GRADE_LINE + "\n", encoding="utf-8")
    assert main(["evaluate", "report", "--grades", str(first), str(second),
                 "--manifest", str(demo_dir / "merged.jsonl"), "--out", str(out)]) == 1
    assert _single_error(capsys) == f"{second}:2: no problem with id 'zzz'"
    assert sorted(tmp_path.iterdir()) == [first, second]


def test_merge_of_a_shared_id_exits_1(tmp_path, capsys):
    first, second, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "m.jsonl"
    save_manifest(make_manifest([make_problem("p"), make_problem("q")]), first)
    save_manifest(make_manifest([make_problem("q", language=Language.HINDI)]), second)
    assert main(["curriculum", "merge", "--in", str(first), str(second),
                 "--out", str(out)]) == 1
    assert _single_error(capsys) == "duplicate problem id: q"
    assert sorted(tmp_path.iterdir()) == [first, second]


def test_repeated_annotation_id_exits_1(tmp_path, capsys):
    manifest_path, annotations, out = tmp_path / "m.jsonl", tmp_path / "a.tsv", tmp_path / "o"
    save_manifest(make_manifest([make_problem("a"), make_problem("b")]), manifest_path)
    annotations.write_text("a\tEasy\nb\tMedium\na\tHard\n", encoding="utf-8")
    assert main(["classify", "--in", str(manifest_path), "--annotations", str(annotations),
                 "--out", str(out)]) == 1
    assert _single_error(capsys) == f"{annotations}:3: duplicate id 'a'"
    assert not out.exists()


def test_negative_augment_target_exits_1(tmp_path, capsys):
    manifest_path, config, out = tmp_path / "m.jsonl", tmp_path / "c.json", tmp_path / "o"
    save_manifest(make_manifest([make_problem("s0", raw_solution="#### 1")]), manifest_path)
    config.write_text(json.dumps({"kind": "mock", "fixtures_dir": str(tmp_path)}),
                      encoding="utf-8")
    assert main(["augment", "--in", str(manifest_path), "--target", "-3",
                 "--config", str(config), "--out", str(out)]) == 1
    assert _single_error(capsys) == "target count must be nonnegative, got -3"
    assert not out.exists()


@pytest.mark.parametrize("route", [["--math-levels"], ["--annotations", "a.tsv"]])
def test_bottom_k_without_score_exits_1(tmp_path, capsys, route):
    manifest_path, out = tmp_path / "m.jsonl", tmp_path / "o"
    save_manifest(make_manifest([make_problem("a")]), manifest_path)
    assert main(["classify", "--in", str(manifest_path), "--out", str(out), *route,
                 "--bottom-k", "3"]) == 1
    assert _single_error(capsys) == "--bottom-k requires --score"
    assert not out.exists()


# ---------------------------------------------------------------------------
# branches that only the benchmark ran


@pytest.mark.parametrize("key,value,message", [
    ("format", "ganitprep/split", "not a manifest file (format 'ganitprep/split')"),
    ("version", 2, "unsupported manifest version 2"),
    ("version", True, "manifest header key 'version' must be an integer, not a boolean"),
    ("version", 1.0, "manifest header key 'version' must be an integer, not a number"),
    ("count", True, "manifest header key 'count' must be an integer, not a boolean"),
    ("count", 1.0, "manifest header key 'count' must be an integer, not a number"),
])
def test_manifest_header_of_another_kind_exits_1(tmp_path, capsys, key, value, message):
    from ganitprep import corpus

    manifest_path, out = tmp_path / "m.jsonl", tmp_path / "split.json"
    save_manifest(make_manifest([make_problem("p", raw_solution="#### 1")]), manifest_path)
    header, *records = manifest_path.read_text(encoding="utf-8").splitlines()
    header = json.loads(header)
    assert header["checksum"] == corpus._lines_checksum(records)  # still valid below
    header[key] = value
    manifest_path.write_text("\n".join([json.dumps(header), *records]) + "\n",
                             encoding="utf-8")
    assert main(["curriculum", "split", "--in", str(manifest_path), "--out", str(out)]) == 1
    assert _single_error(capsys) == f"{manifest_path}: {message}"
    assert not out.exists()


def test_classify_math_levels(tmp_path, capsys):
    from ganitprep.corpus import Source

    manifest_path, out = tmp_path / "m.jsonl", tmp_path / "o.jsonl"
    problems = [make_problem(f"m{level}", source=Source.MATH, math_level=level)
                for level in (1, 3, 5)] + [make_problem("g")]
    save_manifest(make_manifest(problems), manifest_path)
    assert main(["classify", "--in", str(manifest_path), "--out", str(out),
                 "--math-levels"]) == 0
    assert capsys.readouterr().out == "stage=classify in=4 out=4 flagged=0\n"
    assert {p.id: p.difficulty for p in load_manifest(out)} == {
        "m1": Difficulty.EASY, "m3": Difficulty.MEDIUM, "m5": Difficulty.HARD,
        "g": Difficulty.UNCLASSIFIED}


def test_report_without_out_writes_table_to_stdout(demo_dir, tmp_path, capsys):
    grades = demo_dir / "grades.jsonl"
    assert main(["evaluate", "report", "--grades", str(grades),
                 "--manifest", str(demo_dir / "merged.jsonl")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (demo_dir / "report.txt").read_text(encoding="utf-8")
    count = len(grades.read_text(encoding="utf-8").splitlines())
    assert captured.err.startswith(f"stage=evaluate-report in={count} out=")
    assert captured.err.count("\n") == 1


def test_structure_without_out_writes_text_to_stdout(tmp_path, capsys):
    from ganitprep.structure import StructuredSolution, render_structured

    text = render_structured(StructuredSolution.from_dict(_SOLUTION))
    path = tmp_path / "solution.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["structure", "parse", "--in", str(path)]) == 0
    assert capsys.readouterr() == (text, "stage=structure in=1 out=1 flagged=0\n")


@pytest.mark.parametrize("heading", ["ſolution", "SOLUTİON", "Solutıon"])
def test_structure_parse_case_mapped_heading_exits_1(tmp_path, capsys, heading):
    from ganitprep.structure import StructuredSolution, render_structured

    text = render_structured(StructuredSolution.from_dict(_SOLUTION))
    path, out = tmp_path / "solution.txt", tmp_path / "out.txt"
    path.write_text(text.replace("Solution:", f"{heading}:"), encoding="utf-8")
    assert main(["structure", "parse", "--in", str(path), "--out", str(out)]) == 1
    assert _single_error(capsys) == f"{path}: missing section: Solution"
    assert not out.exists()


def test_module_entry_exit_codes(tmp_path):
    # ``python -m ganitprep.cli`` runs ``main_entry``, as the console script does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(ganitprep.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ganitprep.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, encoding="utf-8", timeout=60)

    done = run("ingest", "--format", "gsm8k", "--in", str(_gsm8k_file(tmp_path)),
               "--out", "m.jsonl")
    assert (done.returncode, done.stdout) == (0, "stage=ingest in=6 out=6 flagged=0\n")
    done = run("ingest", "--format", "gsm8k", "--in", "missing.jsonl", "--out", "o.jsonl")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error=") and done.stderr.count("\n") == 1
    assert "missing.jsonl" in done.stderr
    done = run("ingest", "--format", "gsm8k", "--in", "m.jsonl", "--out", "o.jsonl", "--bogus")
    assert done.returncode == 2 and "unrecognized arguments: --bogus" in done.stderr
