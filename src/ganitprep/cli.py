"""Command-line entry point composing the pipeline end to end.

Exit codes: 0 success, 1 stage failure, 2 usage error. Every handler
returns the :class:`StageSummary` of its stage, and :func:`main` alone prints
it: its text, then the line ``stage=<name> in=<n> out=<n> flagged=<n>``.
``run`` runs a plan, a file of labelled stage commands, in one process: each
command through its handler, its summary named by its label. The bundled
plan, :data:`DEMO_PLAN`, is the demo chain over the fixtures beside it.
A :class:`PipelineError` (every refusal; the readers convert what a ``from_dict``
raises on a malformed object) or an ``OSError`` (the file system) prints a single
machine-parseable ``error="..."`` line on stderr; any other exception is a bug.
Output is plain text throughout (nothing colorized, so NO_COLOR needs no
special casing).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from ganitprep import structure as structure_mod
from ganitprep.common import StageSummary, write_text_atomic
from ganitprep.corpus import (
    Language,
    ManifestReader,
    SourceFormat,
    ingest_gsm8k,
    ingest_hawp,
    ingest_indimathqa,
    ingest_math,
    load_manifest,
    save_manifest,
    write_manifest,
)
from ganitprep.errors import PipelineError, json_object_file, naming, numbered_lines

# The demo chain; its directory holds the fixtures it reads.
DEMO_PLAN = Path(__file__).parent / "data" / "demo" / "plan.txt"


def _parse_language(value: str) -> Language:
    return {"en": Language.ENGLISH, "hi": Language.HINDI}[value]


def _counts_text(label: str, counts) -> str:
    """``<label>: Easy=n, Hard=n``, difficulties in name order."""
    return f"{label}: " + ", ".join(f"{d.value}={n}" for d, n in sorted(
        counts.items(), key=lambda item: item[0].value)) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers
#
# Each handler imports the stage modules it runs, so a stage process loads
# only those; ``corpus`` and ``structure`` are needed by every stage.


def _cmd_ingest(args) -> StageSummary:
    # IndiMathQA rows carry no language, so the format names it.
    ingestors = {"gsm8k": ingest_gsm8k, "math": ingest_math, "hawp": ingest_hawp,
                 "indimathqa-en": lambda path: ingest_indimathqa(path, Language.ENGLISH),
                 "indimathqa-hi": lambda path: ingest_indimathqa(path, Language.HINDI)}
    manifest = ingestors[args.format](args.infile)
    save_manifest(manifest, args.out)
    return StageSummary("ingest", len(manifest), len(manifest))


def _cmd_classify(args) -> StageSummary:
    from ganitprep import classify as classify_mod

    if args.bottom_k is not None and not args.score:
        raise PipelineError("--bottom-k requires --score")
    manifest = load_manifest(args.infile)
    text = ""
    if args.math_levels:
        result = classify_mod.apply_math_levels(manifest)
    elif args.annotations:
        annotations = classify_mod.read_annotations(args.annotations)
        with naming(args.annotations):
            outcome = classify_mod.apply_annotations(manifest, annotations)
        result = outcome.manifest
        text = _counts_text("annotated", outcome.counts)
    else:
        if args.bottom_k is None:
            raise PipelineError("--score requires --bottom-k N")
        result = classify_mod.rank_bottom_k(manifest, args.bottom_k)
    save_manifest(result, args.out)
    return StageSummary("classify", len(manifest), len(result), text=text)


def _cmd_decompose(args) -> StageSummary:
    from ganitprep import decompose as decompose_mod

    outcome = decompose_mod.apply_decomposition(load_manifest(args.infile))
    save_manifest(outcome.manifest, args.out)
    return outcome.summary("decompose")


def _cmd_structure(args) -> StageSummary:
    if args.action == "emit-config":
        structure_mod.emit_training_config(args.out)
        return StageSummary("structure", 0, 1)
    if args.action == "prompt":
        template = structure_mod.get_template(args.template)
        with json_object_file(args.bindings, "bindings file",
                              dict.fromkeys(template.placeholders, str)) as bindings:
            rendered = structure_mod.render_prompt(template, bindings)
    else:
        with naming(args.infile):
            solution = structure_mod.parse_structured(
                Path(args.infile).read_text(encoding="utf-8"))
        rendered = structure_mod.render_structured(solution, _parse_language(args.lang))
    if args.out is not None:
        write_text_atomic(args.out, rendered)
    return StageSummary("structure", 1, 1, text=rendered if args.out is None else "")


def _cmd_curriculum(args) -> StageSummary:
    from ganitprep import curriculum as curriculum_mod

    if args.action == "pair":
        en = load_manifest(args.en)
        hi = load_manifest(args.hi)
        key = curriculum_mod.PairKey.BY_ID if args.key == "byid" else \
            curriculum_mod.PairKey.BY_INDEX
        paired = curriculum_mod.pair_bilingual(en, hi, key)
        save_manifest(paired, args.out)
        return StageSummary("curriculum-pair", len(en) + len(hi), len(paired))
    if args.action == "merge":
        readers = []
        for path in args.infiles:
            try:
                readers.append(ManifestReader(path))
            except (PipelineError, OSError):
                # The inputs before it are read first, so their faults come
                # first, in file order, as when each input was loaded whole.
                for reader in readers:
                    for _ in reader:
                        pass
                raise
        totals = Counter()
        write_manifest(args.out, curriculum_mod.merged_records(readers, totals),
                       SourceFormat.MIXED, created_at=max(r.created_at for r in readers),
                       count=sum(r.count for r in readers))
        merged = sum(totals.values())
        return StageSummary("curriculum-merge", merged, merged,
                            text=_counts_text("totals", totals))
    if args.action == "split":
        assignment = curriculum_mod.split(ManifestReader(args.infile), seed=args.seed,
                                          ratio=args.ratio)
        curriculum_mod.save_split(assignment, args.out)
        count = len(assignment.assignments)
        return StageSummary("curriculum-split", count, count)
    if args.action == "build":
        reader = ManifestReader(args.infile)
        pool = curriculum_mod.TrainPool.read(reader, curriculum_mod.TrainingMode(args.mode))
        assignment = curriculum_mod.load_split(args.split)
        with naming(args.split):
            built = pool.curriculum(assignment, cumulative=args.cumulative)
        curriculum_mod.save_curriculum(built, args.out)
        return StageSummary("curriculum-build", reader.count,
                            sum(len(stage.train_ids) for stage in built.stages))
    # The curriculum comes first: only its stage's records are kept.
    built = curriculum_mod.load_curriculum(args.curriculum)
    with naming(args.curriculum):
        stage = built.stage(args.stage)
    problems = curriculum_mod.stage_problems(stage, ManifestReader(args.manifest))
    with naming(args.curriculum):  # its ids; a write error names no input
        curriculum_mod.check_stage_ids(stage, problems)
    outcome = curriculum_mod.export_stage(built, args.stage, problems.values(), args.out,
                                          seed=args.seed)
    return outcome.summary("curriculum-export")


def _cmd_augment(args) -> StageSummary:
    from ganitprep import llm_client

    manifest = load_manifest(args.infile)
    config = llm_client.load_client_config(args.config)
    with naming(args.config):
        client = llm_client.make_client(config)
    template = structure_mod.get_template(structure_mod.PromptName.AUGMENT)
    outcome = llm_client.augment_batch(manifest, template, args.target, client)
    save_manifest(outcome.manifest, args.out)
    return StageSummary("augment", len(manifest), len(outcome.manifest), outcome.flagged)


def _cmd_evaluate(args) -> StageSummary:
    from ganitprep import evaluate as evaluate_mod

    if args.action == "grade":
        # One prediction at a time: read, graded, written and counted.
        references = evaluate_mod.reference_answers(ManifestReader(args.manifest))
        verdicts = Counter()

        def grades():
            for record in evaluate_mod.grade_file(args.pred, references, args.model):
                verdicts[record.verdict] += 1
                yield record

        evaluate_mod.save_grades(grades(), args.out)
        graded = sum(verdicts.values())
        return StageSummary("evaluate-grade", graded, graded, text=(
            f"graded={graded} correct={verdicts[evaluate_mod.Verdict.CORRECT]} "
            f"unparseable={verdicts[evaluate_mod.Verdict.UNPARSEABLE]}\n"))
    if args.out is not None and Path(args.out).suffix == ".csv":
        raise PipelineError(f"{args.out}: the table and its .csv companion would be "
                            "the same file; name the table output otherwise")
    tally = evaluate_mod.AccuracyTally(ManifestReader(args.manifest))
    for path in args.grades:
        tally.add_file(path)
    report = tally.report()
    rendered = report.render_table()
    if args.out is not None:
        write_text_atomic(args.out, rendered)
        write_text_atomic(Path(args.out).with_suffix(".csv"), report.to_csv())
    return StageSummary("evaluate-report", sum(s.total for s in report.cells.values()),
                        len(report.cells), text=rendered if args.out is None else "")


def _cmd_kappa(args) -> StageSummary:
    from ganitprep import evaluate as evaluate_mod

    counts = evaluate_mod.read_counts_matrix(args.counts)
    kappa = evaluate_mod.fleiss_kappa(counts)
    return StageSummary("kappa", len(counts), 1, text=f"kappa={kappa:.6f}\n")


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> list[StageSummary]:
    """Parse every line of the plan, then run each command by its handler, its
    summary named by the line's label; a refusal or failure names the line."""
    import contextlib
    import dataclasses
    import io
    import re
    import shlex
    import tempfile

    parser, commands = build_parser(), []
    with tempfile.TemporaryDirectory() as tmp:
        places = {"data": str(Path(args.plan).parent), "out": args.out, "tmp": tmp}
        for lineno, line, _ in numbered_lines(args.plan):
            where, usage = f"{args.plan}:{lineno}", io.StringIO()
            try:
                words = [re.sub(r"\{([^{}]*)\}", lambda m: places[m[1]], word)
                         for word in shlex.split(line, comments=True)]
                if not words:  # a comment
                    continue
                with contextlib.redirect_stderr(usage):
                    command = parser.parse_args(words[1:])
            except KeyError as exc:
                raise PipelineError(f"{where}: unknown placeholder {{{exc.args[0]}}}") from exc
            except ValueError as exc:  # a quote left open
                raise PipelineError(f"{where}: {exc}") from exc
            except SystemExit:
                reason = usage.getvalue().strip().rpartition("\n")[2]  # argparse's last line
                raise PipelineError(f"{where}: not a stage command: {reason}") from None
            if command.func is _cmd_run:
                raise PipelineError(f"{where}: a plan cannot run a plan")
            commands.append((where, words[0], command))
        Path(args.out).mkdir(parents=True, exist_ok=True)
        stages = []
        for where, label, command in commands:
            try:
                stages.append(dataclasses.replace(command.func(command), name=label))
            except (PipelineError, OSError) as exc:
                raise PipelineError(f"{where}: {exc}") from exc
    return stages


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganitprep",
        description="Bilingual math-reasoning training-data pipeline "
                    "and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest an external corpus into a manifest")
    p.add_argument("--format", required=True,
                   choices=["gsm8k", "math", "hawp", "indimathqa-en", "indimathqa-hi"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("classify", help="assign difficulties")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--math-levels", action="store_true",
                       help="map published levels to difficulties")
    group.add_argument("--score", action="store_true",
                       help="feature-score the corpus (requires --bottom-k)")
    group.add_argument("--annotations", metavar="FILE",
                       help="id<TAB>difficulty annotation file")
    p.add_argument("--bottom-k", type=int, metavar="N",
                   help="with --score: mark the N lowest-complexity problems Easy")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="rewrite Mul/Div solutions as "
                                         "place-value decompositions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("structure", help="structured solutions and prompts")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("parse", help="validate and canonicalize a solution text")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--lang", default="en", choices=["en", "hi"])
    a.add_argument("--out")
    a = actions.add_parser("prompt", help="instantiate a prompt template")
    a.add_argument("--template", required=True,
                   choices=[n.value for n in structure_mod.PromptName])
    a.add_argument("--bindings", required=True, help="JSON object file")
    a.add_argument("--out")
    a = actions.add_parser("emit-config", help="write the training config")
    a.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("curriculum", help="pair, merge, split, build, export")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("pair")
    a.add_argument("--en", required=True)
    a.add_argument("--hi", required=True)
    a.add_argument("--key", default="byid", choices=["byid", "byindex"])
    a.add_argument("--out", required=True)
    a = actions.add_parser("merge")
    a.add_argument("--in", dest="infiles", nargs="+", required=True)
    a.add_argument("--out", required=True)
    a = actions.add_parser("split")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--ratio", type=float, default=0.70)
    a.add_argument("--out", required=True)
    a = actions.add_parser("build")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--split", required=True)
    a.add_argument("--mode", default="bilingual", choices=["en", "hi", "bilingual"])
    a.add_argument("--cumulative", action="store_true")
    a.add_argument("--out", required=True)
    a = actions.add_parser("export")
    a.add_argument("--curriculum", required=True)
    a.add_argument("--manifest", required=True)
    a.add_argument("--stage", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curriculum)

    p = sub.add_parser("augment", help="generate synthetic problems via a provider")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--config", required=True, help="provider config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("evaluate", help="grade predictions and report accuracy")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("grade")
    a.add_argument("--pred", required=True, help="problem_id<TAB>output file")
    a.add_argument("--manifest", required=True)
    a.add_argument("--model", required=True)
    a.add_argument("--out", required=True)
    a = actions.add_parser("report")
    a.add_argument("--grades", nargs="+", required=True)
    a.add_argument("--manifest", required=True)
    a.add_argument("--out", help="output path; a machine-readable .csv "
                                 "companion is written alongside")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("kappa", help="rater-agreement statistic from a counts matrix")
    p.add_argument("--counts", required=True)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("run", help="run a plan of stage commands, the bundled demo "
                                   "chain by default")
    p.add_argument("plan", nargs="?", default=str(DEMO_PLAN),
                   help="plan file: a label and a stage command per line")
    p.add_argument("--out", required=True, help="output directory, {out} in the plan")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        stages = args.func(args)
        # A command given no --out writes its artifact on stdout and its stage
        # line on stderr.
        line_stream = sys.stderr if getattr(args, "out", "") is None else sys.stdout
        for stage in (stages,) if isinstance(stages, StageSummary) else stages:
            sys.stdout.write(stage.text)
            print(stage.line(), file=line_stream)
    except (PipelineError, OSError) as exc:
        message = str(exc)
        print(f"error={json.dumps(message, ensure_ascii=False)}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
