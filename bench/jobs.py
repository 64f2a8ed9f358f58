"""The workload jobs, in process, and the artifacts they are checked by.

Every job call goes through a module attribute (``corpus.load_manifest``,
``classify.rank_bottom_k``, ...) so the traced run can wrap it. Each job
returns ``artifacts, problems, operations`` first: a map from artifact name
to its sha256 (a manifest's header checksum, or a file digest), a list of
mismatches against the generator's ground truth, and the number of
operations (library calls or ``generate`` requests) it made.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from pathlib import Path

from chain import STAGES, expect, export_name, sha256_file
from ganitprep import classify, corpus, curriculum, decompose, evaluate, llm_client, structure


def indimathqa_manifest(path, language: corpus.Language) -> corpus.CorpusManifest:
    """Build a manifest from an id/question/solution JSONL file.

    ``ingest`` has no IndiMathQA format, so this corpus enters every
    workload through the library.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            data = json.loads(line)
            records.append(corpus.Problem(
                id=data["id"], language=language, source=corpus.Source.INDIMATHQA,
                question=corpus.nfc(data["question"]),
                raw_solution=corpus.nfc(data["solution"])))
    return corpus.CorpusManifest.from_records(records, corpus.SourceFormat.INDIMATHQA,
                                              created_at=corpus.file_created_at(path))


def difficulty_tally(manifest) -> dict:
    counts = manifest.difficulty_counts()
    return {d.value: counts.get(d, 0) for d in (corpus.Difficulty.EASY,
                                                corpus.Difficulty.MEDIUM,
                                                corpus.Difficulty.HARD)}


# ---------------------------------------------------------------------------
# library-prep

# 3 ingests, 2 IndiMathQA builds, 2 annotation reads, 5 classify calls,
# decompose, pair, merge, split, save_split, build, save_curriculum,
# 2 exports and the final save.
LIBRARY_PREP_CALLS = 22


def library_prep(inp: Path, out: Path, truth: dict, seed: int):
    """ingest -> classify -> decompose -> pair -> merge -> split -> build -> export -> save."""
    problems: list[str] = []
    gsm = corpus.ingest_gsm8k(inp / "gsm8k.jsonl")
    math = corpus.ingest_math(inp / "math.jsonl")
    hawp = corpus.ingest_hawp(inp / "hawp.jsonl")
    en = indimathqa_manifest(inp / "imqa_en.jsonl", corpus.Language.ENGLISH)
    hi = indimathqa_manifest(inp / "imqa_hi.jsonl", corpus.Language.HINDI)
    artifacts = {"ingest.gsm8k": gsm.checksum, "ingest.math": math.checksum,
                 "ingest.hawp": hawp.checksum}

    gsm = classify.rank_bottom_k(gsm, truth["bottom_k"])
    math = classify.apply_math_levels(math)
    hawp_notes = classify.read_annotations(inp / "hawp_notes.tsv")
    hawp = classify.apply_annotations(hawp, hawp_notes).manifest
    notes = classify.read_annotations(inp / "imqa_notes.tsv")
    en = classify.apply_annotations(en, notes).manifest
    hi = classify.apply_annotations(hi, notes).manifest
    artifacts.update({"classify.gsm8k": gsm.checksum, "classify.math": math.checksum,
                      "classify.hawp": hawp.checksum, "classify.imqa_en": en.checksum,
                      "classify.imqa_hi": hi.checksum})

    outcome = decompose.apply_decomposition(hawp)
    expect(problems, "decompose rewritten", outcome.rewritten, truth["rewritten"])
    expect(problems, "decompose flagged", outcome.skipped, truth["flagged"])
    hawp = outcome.manifest
    paired = curriculum.pair_bilingual(en, hi)
    merged = curriculum.merge_sources([gsm, math, hawp, paired]).manifest
    artifacts.update({"decompose.hawp": hawp.checksum, "pair": paired.checksum,
                      "merge": merged.checksum})
    expect(problems, "merged records", len(merged), truth["size"])
    expect(problems, "difficulty tally", difficulty_tally(merged), truth["difficulty"])

    assignment = curriculum.split(merged, seed=seed)
    curriculum.save_split(assignment, out / "split.json")
    built = curriculum.build_curriculum(merged, assignment)
    curriculum.save_curriculum(built, out / "curriculum.json")
    for stage in STAGES:
        export = curriculum.export_stage(built, stage, merged, out / export_name(stage), seed=seed)
        expect(problems, f"{stage} exported", export.exported,
               len(built.stage(stage).train_ids))
    corpus.save_manifest(merged, out / "merged.jsonl")
    for name in ("split.json", "curriculum.json", "merged.jsonl", *map(export_name, STAGES)):
        artifacts[name] = sha256_file(out / name)
    return artifacts, problems, LIBRARY_PREP_CALLS, merged


# ---------------------------------------------------------------------------
# grading


def grade_models(manifest, inp: Path, out: Path, truth: dict):
    """read_predictions -> grade_predictions -> save_grades per model, then one report."""
    problems: list[str] = []
    artifacts = {}
    grades_all = []
    for model, expected in truth["verdicts"].items():
        predictions = evaluate.read_predictions(inp / f"pred_{model}.tsv")
        grades = evaluate.grade_predictions(predictions, manifest, model)
        name = f"grades_{model}.jsonl"
        evaluate.save_grades(grades, out / name)
        artifacts[name] = sha256_file(out / name)
        expect(problems, f"{model} verdicts",
               dict(Counter(g.verdict.value for g in grades)),
               {k: v for k, v in expected.items() if v})
        grades_all.extend(grades)
    report = evaluate.accuracy_report(grades_all, manifest)
    (out / "report.txt").write_text(report.render_table(), encoding="utf-8")
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    artifacts["report.txt"] = sha256_file(out / "report.txt")
    artifacts["report.csv"] = sha256_file(out / "report.csv")
    return artifacts, problems, 3 * len(truth["verdicts"]) + 2


def grade_many(inp: Path, out: Path, truth: dict):
    manifest = corpus.load_manifest(inp / "graded.jsonl")
    artifacts, problems, operations = grade_models(manifest, inp, out, truth)
    artifacts["graded.manifest"] = manifest.checksum
    return artifacts, problems, operations + 1


# ---------------------------------------------------------------------------
# augment-provider


def _unit(*parts) -> float:
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FakeTransport:
    """In-process stand-in for an HTTP provider: no sockets, no network.

    Each call waits ``latency_s``. Whether a call answers 503, and whether a
    prompt gets unparseable text, depends only on (seed, prompt digest,
    attempt number), never on arrival order.
    """

    def __init__(self, seed: int, latency_s: float, busy_share: float, garble_share: float):
        self.seed = seed
        self.latency_s = latency_s
        self.busy_share = busy_share
        self.garble_share = garble_share
        self.attempts: Counter = Counter()
        self.busy = 0
        self.garbled = 0
        self.wait_s = 0.0
        self._lock = threading.Lock()

    def __call__(self, endpoint, payload, headers):
        digest = hashlib.sha256(payload["prompt"].encode("utf-8")).hexdigest()
        with self._lock:
            self.attempts[digest] += 1
            attempt = self.attempts[digest]
        start = time.perf_counter()
        time.sleep(self.latency_s)
        waited = time.perf_counter() - start
        with self._lock:
            self.wait_s += waited
            if attempt == 1 and _unit(self.seed, digest, attempt, "busy") < self.busy_share:
                self.busy += 1
                return 503, "provider busy"
            if _unit(self.seed, digest, "garble") < self.garble_share:
                self.garbled += 1
                return 200, json.dumps({"text": "Sorry, here is something unrelated."})
        n = int(digest[:4], 16) % 90 + 10
        k = int(digest[4:6], 16) % 9 + 2
        text = (f"Question: A crate holds {n} boxes with {k} items in each box "
                f"(variant {digest[:10]}). How many items are there?\n"
                f"Answer: {n} × {k} = {n * k}")
        return 200, json.dumps({"text": text}, ensure_ascii=False)


AUGMENT_LATENCY_S = 0.002
AUGMENT_BUSY_SHARE = 0.05
AUGMENT_GARBLE_SHARE = 0.08
AUGMENT_RETRY = llm_client.RetryPolicy(base_seconds=0.001, factor=2.0, max_attempts=3)


def augment(seeds, out: Path, seed: int, target: int):
    """augment_batch through an HTTP client on the fake transport, then one save."""
    problems: list[str] = []
    transport = FakeTransport(seed, AUGMENT_LATENCY_S, AUGMENT_BUSY_SHARE, AUGMENT_GARBLE_SHARE)
    config = llm_client.ClientConfig(kind="http", endpoint="fake://provider", concurrency=2,
                                     retry=AUGMENT_RETRY)
    client = llm_client.make_client(config, transport=transport)
    template = structure.get_template("augment")
    outcome = llm_client.augment_batch(seeds, template, target, client)
    corpus.save_manifest(outcome.manifest, out / "synthetic.jsonl")
    expect(problems, "accepted", len(outcome.manifest), target)
    expect(problems, "discarded", outcome.discarded, transport.garbled)
    expect(problems, "distinct prompts", len(transport.attempts), outcome.attempts)
    expect(problems, "retries", sum(transport.attempts.values()) - outcome.attempts,
           transport.busy)
    artifacts = {"synthetic": outcome.manifest.checksum,
                 "synthetic.jsonl": sha256_file(out / "synthetic.jsonl")}
    stats = {"requests": outcome.attempts, "attempts": sum(transport.attempts.values()),
             "accepted": len(outcome.manifest), "discarded": outcome.discarded,
             "peak_in_flight": client.peak_in_flight, "transport_wait_s": transport.wait_s}
    return artifacts, problems, outcome.attempts, stats
