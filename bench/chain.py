"""The cli-chain workload: one ``ganitprep`` process per stage.

Stdlib only, and never imports the package: the worker that runs the chain
stays small, so each stage's peak RSS (read from ``wait4``) is the stage's
own and not a high-water mark inherited from its parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

STAGES = ("SFT_easy", "SFT_easy+medium")
BENCH_DIR = Path(__file__).resolve().parent
CLI_ENTRY = "from ganitprep.cli import main_entry; main_entry()"


def export_name(stage: str) -> str:
    return f"train_{stage.replace('+', '_')}.jsonl"


def sha256_file(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def header_checksum(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())["checksum"]


def expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got}, expected {want}")


def chain_commands(inp: Path, out: Path, truth: dict, seed: int):
    """The stage commands, one ``ganitprep`` process each, as (group, args)."""
    notes = {"hawp": str(inp / "hawp_notes.tsv"), "imqa": str(inp / "imqa_notes.tsv")}
    m = {name: str(out / f"{name}.manifest.jsonl") for name in (
        "ingest.gsm8k", "ingest.math", "ingest.hawp", "classify.gsm8k", "classify.math",
        "classify.hawp", "classify.imqa_en", "classify.imqa_hi", "decompose.hawp", "pair",
        "merge")}
    merged = m["merge"]
    commands = [
        ("ingest", ["ingest", "--format", "gsm8k", "--in", str(inp / "gsm8k.jsonl"),
                    "--out", m["ingest.gsm8k"]]),
        ("ingest", ["ingest", "--format", "math", "--in", str(inp / "math.jsonl"),
                    "--out", m["ingest.math"]]),
        ("ingest", ["ingest", "--format", "hawp", "--in", str(inp / "hawp.jsonl"),
                    "--out", m["ingest.hawp"]]),
        ("classify", ["classify", "--in", m["ingest.gsm8k"], "--out", m["classify.gsm8k"],
                      "--score", "--bottom-k", str(truth["bottom_k"])]),
        ("classify", ["classify", "--in", m["ingest.math"], "--out", m["classify.math"],
                      "--math-levels"]),
        ("classify", ["classify", "--in", m["ingest.hawp"], "--out", m["classify.hawp"],
                      "--annotations", notes["hawp"]]),
        ("classify", ["classify", "--in", str(inp / "imqa_en.manifest.jsonl"),
                      "--out", m["classify.imqa_en"], "--annotations", notes["imqa"]]),
        ("classify", ["classify", "--in", str(inp / "imqa_hi.manifest.jsonl"),
                      "--out", m["classify.imqa_hi"], "--annotations", notes["imqa"]]),
        ("decompose", ["decompose", "--in", m["classify.hawp"], "--out", m["decompose.hawp"]]),
        ("pair", ["curriculum", "pair", "--en", m["classify.imqa_en"], "--hi", m["classify.imqa_hi"],
                  "--out", m["pair"]]),
        ("merge", ["curriculum", "merge", "--in", m["classify.gsm8k"], m["classify.math"],
                   m["decompose.hawp"], m["pair"], "--out", merged]),
        ("split", ["curriculum", "split", "--in", merged, "--seed", str(seed),
                   "--out", str(out / "split.json")]),
        ("build", ["curriculum", "build", "--in", merged, "--split", str(out / "split.json"),
                   "--out", str(out / "curriculum.json")]),
    ]
    for stage in STAGES:
        commands.append(("export", ["curriculum", "export", "--curriculum",
                                    str(out / "curriculum.json"), "--manifest", merged,
                                    "--stage", stage, "--seed", str(seed),
                                    "--out", str(out / export_name(stage))]))
    for model in truth["verdicts"]:
        commands.append(("grade", ["evaluate", "grade", "--pred", str(inp / f"pred_{model}.tsv"),
                                   "--manifest", merged, "--model", model,
                                   "--out", str(out / f"grades_{model}.jsonl")]))
    grades = [str(out / f"grades_{model}.jsonl") for model in truth["verdicts"]]
    commands.append(("report", ["evaluate", "report", "--grades", *grades,
                                "--manifest", merged, "--out", str(out / "report.txt")]))
    return commands, m


def run_stage(args, log_prefix: Path, trace_file: Path | None = None):
    """Run one stage process; returns (exit code, wall seconds, peak RSS in KiB)."""
    if trace_file is None:
        command = [sys.executable, "-c", CLI_ENTRY, *args]
    else:
        command = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_file), "--", *args]
    with open(f"{log_prefix}.out", "wb") as stdout, open(f"{log_prefix}.err", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def cli_chain(inp: Path, out: Path, truth: dict, seed: int, trace_dir: Path | None = None,
              between=None):
    """Run every stage as its own process; returns artifacts, problems, per-stage timings.

    ``between()``, when given, is called after each stage, outside its timing.
    """
    problems: list[str] = []
    commands, manifests = chain_commands(inp, out, truth, seed)
    stages = []
    for index, (group, args) in enumerate(commands):
        trace_file = trace_dir / f"{index:02d}.json" if trace_dir else None
        code, wall, rss_kib = run_stage(args, out / f"{index:02d}_{group}", trace_file)
        stages.append((group, wall, rss_kib))
        if between is not None:
            between()
        if code != 0:
            err = (out / f"{index:02d}_{group}.err").read_text(encoding="utf-8", errors="replace")
            problems.append(f"stage {group} exited {code}: {err.strip()[-300:]}")
            return {}, problems, index + 1, stages
    decompose_index = [group for group, _ in commands].index("decompose")
    summary = (out / f"{decompose_index:02d}_decompose.out").read_text(encoding="utf-8")
    expect(problems, "decompose summary", summary.splitlines()[0],
           f"rewritten={truth['rewritten']} skipped={truth['flagged']}")
    artifacts = {name: header_checksum(path) for name, path in manifests.items()}
    names = ["split.json", "curriculum.json", *map(export_name, STAGES),
             *(f"grades_{model}.jsonl" for model in truth["verdicts"]), "report.txt", "report.csv"]
    for name in names:
        artifacts[name] = sha256_file(out / name)
    artifacts["merged.jsonl"] = sha256_file(manifests["merge"])
    return artifacts, problems, len(commands), stages
