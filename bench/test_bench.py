"""Self-tests of the benchmark harness (stdlib unittest).

Run from the repository root::

    python3 -m unittest discover -s bench -p "test_*.py"

They check that a seed fixes the generated inputs byte for byte, that every
metric BENCHMARK.json declares has a valid name and unit and is emitted, that
a tiny run of each workload passes its output check, and that the harness
refuses to run without the package next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import chain  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = "0.03"
SCRATCH = ROOT / ".bench_work"  # temporary files stay inside the checkout


def _tmp() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*"))}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        with _tmp() as tmp:
            tmp = Path(tmp)
            truths = [gen.write_prep_inputs(tmp / name, seed, 200)
                      for name, seed in (("a", 5), ("b", 5), ("c", 6))]
            gen.write_augment_seeds(tmp / "a", 5, 50)
            gen.write_augment_seeds(tmp / "b", 5, 50)
            self.assertEqual(_files(tmp / "a"), _files(tmp / "b"))
            self.assertEqual(truths[0], truths[1])
            self.assertNotEqual(_files(tmp / "a")[Path("gsm8k.jsonl")],
                                _files(tmp / "c")[Path("gsm8k.jsonl")])

    def test_inputs_avoid_known_aborts(self):
        with _tmp() as tmp:
            gen.write_prep_inputs(Path(tmp), 9, 400)
            text = "".join(p.read_text(encoding="utf-8") for p in Path(tmp).iterdir())
        self.assertNotIn("\u2028", text)
        self.assertNotIn("\u0085", text)
        self.assertIsNone(re.search(r"÷\s*[0०]\b", text))
        self.assertLess(max(len(n) for n in re.findall(r"\d+", text)), 19)

    def test_stage_names_match_the_package(self):
        from ganitprep import curriculum

        self.assertEqual(chain.STAGES, (curriculum.STAGE_EASY, curriculum.STAGE_EASY_MEDIUM))


class DeclarationTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            self.assertTrue(NAME_RE.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT_RE.fullmatch(metric["unit"]), metric["unit"])
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in DECLARED["end_to_end"])},
                      DECLARED["end_to_end"])


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int):
        proc = _run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        return result["metrics"]

    def test_each_workload_passes_its_output_check(self):
        # Every workload run.py accepts, the ones BENCHMARK.json leaves out too.
        self.assertLessEqual({w["name"] for w in DECLARED["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                self.assertEqual(metrics["success_share"]["value"], 1.0)
                self.assertGreater(metrics["records_per_s"]["value"], 0)

    def test_traced_runs_report_their_layers(self):
        busy = {"cli-chain": "cli.grade.wall_s", "library-prep": "decompose.rewritten",
                "grade-many": "evaluate.reference_extractions_per_problem",
                "augment-provider": "llm_client.accepted"}
        for workload, metric in busy.items():
            with self.subTest(workload=workload):
                self.assertGreater(self.check(workload, 1)[metric]["value"], 0)

    def test_refuses_to_run_without_the_package(self):
        with _tmp() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", tmp / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("library-prep", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
