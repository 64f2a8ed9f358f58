"""ganitprep benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. It writes seeded inputs under
``.bench_work/`` (prepare.py), then starts a fresh worker process that
repeats the workload's job for about ``--seconds`` seconds, times fresh
interpreters getting ready (``setup_s``) and checks every output
(worker.py). It prints one JSON object as its last line: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.

This process imports nothing from the package and stays small: a child
inherits its parent's memory high-water mark, so every process whose peak
RSS is reported is started from here or from the equally small worker.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170  # the whole run, so it ends within three minutes

WORKLOADS = ("cli-chain", "library-prep", "grade-many", "augment-provider")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(script: str, args, log: Path, timeout: float) -> str | None:
    """Run a bench script in its own session; returns an error text or None."""
    with open(log, "wb") as stderr:
        proc = subprocess.Popen([sys.executable, str(BENCH / script), *map(str, args)],
                                env=_env(), stdout=subprocess.DEVNULL, stderr=stderr,
                                start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return f"{script} exceeded {timeout:.0f} s"
    finally:
        try:  # stage processes a worker may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        return f"{script} exited {proc.returncode}: {tail}"
    return None


def measure(args, work: Path) -> tuple[dict, dict]:
    """Prepare the inputs, then run the worker; returns (truth, result)."""
    started = time.monotonic()
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "scale": args.scale,
            "inputs": str(work / "inputs"), "outputs": str(work / "outputs")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    error = _child("prepare.py", [spec_path, work / "truth.json"], work / "prepare.err",
                   PREPARE_TIMEOUT_S)
    if error:
        return {}, {"error": error}
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    if truth.get("setup_problems"):
        return truth, {"problems": [f"set-up: {p}" for p in truth["setup_problems"]]}
    spec["truth"] = truth
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    error = _child("worker.py", [spec_path, work / "result.json"], work / "worker.err",
                   RUN_TIMEOUT_S - (time.monotonic() - started))
    if error:
        return truth, {"error": error}
    return truth, json.loads((work / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (the self-tests use a tiny scale)")
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ganitprep" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"error: run from a ganitprep checkout root (no src/ganitprep or "
              f"BENCHMARK.json under {ROOT})", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        truth, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:  # only when no other run is using it
            work_root.rmdir()
        except OSError:
            pass

    problems = [result["error"]] if result.get("error") else result.get("problems", [])
    correct = not problems
    attempted = max(1, result.get("operations", 0))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} units={truth.get('units')} "
          f"mix={truth.get('mix', {'seeds': truth.get('seeds')})} "
          f"iterations={result.get('iterations', 0)} "
          f"walls={[round(w, 3) for w in result.get('walls', [])]}")

    if args.trace:
        values = result.get("layers", {})
    else:
        values = {
            "records_per_s": result.get("records_per_s", 0.0),
            "peak_rss_mb": result.get("peak_rss_mb", 0.0),
            "setup_s": result.get("setup_s", 0.0),
            "success_share": 1.0 if correct else 0.0,
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
