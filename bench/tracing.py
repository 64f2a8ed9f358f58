"""Span tracing by wrapping the package's public functions from outside.

The traced run only: :meth:`Tracer.install` replaces module and class
attributes (``ganitprep.cli.load_manifest``, ``ganitprep.corpus.records_checksum``,
``CorpusManifest.from_records``, ...) with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back. Untraced iterations run
with no wrapper installed, so they pay nothing.

Each span records inclusive time, and self time (inclusive minus the time
covered by traced spans nested inside it), per thread. Count hooks record
work done at the same boundary (records loaded, bytes saved, verdicts).
Spans stay in memory; :meth:`Tracer.snapshot` returns them as plain data.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _len(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_load(tr, args, kwargs, result):
    tr.counts["corpus.load_records"] += len(result)


def _count_save(tr, args, kwargs, result):
    tr.counts["corpus.save_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))


def _count_checksum(tr, args, kwargs, result):
    tr.counts["corpus.checksum_records"] += _len(_arg(args, kwargs, 0, "records"))


def _count_scored(tr, args, kwargs, result):
    tr.counts["classify.scored"] += _len(_arg(args, kwargs, 0, "manifest"))


def _count_decompose(tr, args, kwargs, result):
    tr.counts["decompose.records"] += _len(_arg(args, kwargs, 0, "manifest"))
    tr.counts["decompose.rewritten"] += result.rewritten
    tr.counts["decompose.flagged"] += result.skipped


def _count_export(tr, args, kwargs, result):
    tr.counts["curriculum.exported"] += result.exported
    tr.counts["curriculum.export_bytes"] += _file_size(_arg(args, kwargs, 3, "out_path"))


def _count_grades(tr, args, kwargs, result):
    tr.counts["evaluate.graded"] += len(result)
    tr.counts["evaluate.unparseable"] += sum(g.verdict.value == "Unparseable" for g in result)
    tr.graded_ids.update(g.problem_id for g in result)


# (span name, ("module:attribute" or "module:Class.method", ...), count hook)
TRACE_POINTS = (
    # corpus
    ("corpus.ingest", ("ganitprep.corpus:ingest_gsm8k", "ganitprep.corpus:ingest_math",
                       "ganitprep.corpus:ingest_hawp", "ganitprep.cli:ingest_gsm8k",
                       "ganitprep.cli:ingest_math", "ganitprep.cli:ingest_hawp"), None),
    ("corpus.save", ("ganitprep.corpus:save_manifest", "ganitprep.cli:save_manifest"),
     _count_save),
    ("corpus.load", ("ganitprep.corpus:load_manifest", "ganitprep.cli:load_manifest"),
     _count_load),
    ("corpus.from_records", ("ganitprep.corpus:CorpusManifest.from_records",), None),
    ("corpus.checksum", ("ganitprep.corpus:records_checksum",), _count_checksum),
    # classify
    ("classify.score", ("ganitprep.classify:rank_bottom_k",), _count_scored),
    ("classify.levels", ("ganitprep.classify:apply_math_levels",), None),
    ("classify.annotate", ("ganitprep.classify:apply_annotations",), None),
    # decompose
    ("decompose.apply", ("ganitprep.decompose:apply_decomposition",), _count_decompose),
    # structure
    ("structure.render_prompt", ("ganitprep.structure:render_prompt",
                                 "ganitprep.curriculum:render_prompt",
                                 "ganitprep.llm_client:render_prompt"), None),
    # curriculum
    ("curriculum.pair", ("ganitprep.curriculum:pair_bilingual",), None),
    ("curriculum.merge", ("ganitprep.curriculum:merge_sources",), None),
    ("curriculum.split", ("ganitprep.curriculum:split",), None),
    ("curriculum.build", ("ganitprep.curriculum:build_curriculum",), None),
    ("curriculum.export", ("ganitprep.curriculum:export_stage",), _count_export),
    # evaluate
    ("evaluate.read_predictions", ("ganitprep.evaluate:read_predictions",), None),
    ("evaluate.grade", ("ganitprep.evaluate:grade_predictions",), _count_grades),
    ("evaluate.reference", ("ganitprep.evaluate:reference_answer",), None),
    ("evaluate.extract", ("ganitprep.evaluate:extract_answer",), None),
    ("evaluate.save_grades", ("ganitprep.evaluate:save_grades",), None),
    ("evaluate.report", ("ganitprep.evaluate:accuracy_report",
                         "ganitprep.evaluate:EvaluationReport.render_table"), None),
    # llm_client
    ("llm_client.generate", ("ganitprep.llm_client:HttpProvider.generate",), None),
)

# Spans whose every duration is kept, for percentiles.
SAMPLED = {"llm_client.generate"}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.graded_ids: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, call, hook=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - child
                    self.calls[name] += 1
                    if name in SAMPLED:
                        self.samples[name].append(elapsed)
            if hook is not None:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        # Import everything before patching anything, so no module copies a
        # wrapper into its namespace by ``from ... import``.
        for _, targets, _ in TRACE_POINTS:
            for target in targets:
                importlib.import_module(target.partition(":")[0])
        for name, targets, hook in TRACE_POINTS:
            for target in targets:
                module_name, _, attr = target.partition(":")
                owner = importlib.import_module(module_name)
                if "." in attr:
                    class_name, attr = attr.split(".")
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        replacement = staticmethod(self.span(name, getattr(owner, attr), hook))
                    else:
                        replacement = self.span(name, raw, hook)
                else:
                    raw = getattr(owner, attr)
                    replacement = self.span(name, raw, hook)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "graded_ids": sorted(self.graded_ids),
        }


def merge_snapshots(snapshots) -> dict:
    """Sum several snapshots (one per stage process or per iteration)."""
    merged = {"total": Counter(), "self": Counter(), "calls": Counter(),
              "counts": Counter(), "samples": defaultdict(list), "graded_ids": set()}
    for snap in snapshots:
        for key in ("total", "self", "calls", "counts"):
            merged[key].update(snap[key])
        for key, values in snap["samples"].items():
            merged["samples"][key].extend(values)
        merged["graded_ids"].update(snap["graded_ids"])
    return merged


def main(argv) -> int:
    """Run one CLI stage under the tracer: ``tracing.py OUT.json -- <cli args>``."""
    import json

    out, args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from ganitprep import cli

    code = cli.main(args)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
