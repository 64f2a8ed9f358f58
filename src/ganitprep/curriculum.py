"""Bilingual pairing, source merging, stratified splits, and staged training sets.

The split is stratified by (source, difficulty, language) with a seeded
shuffle and a prefix cut per stratum, so each stratum's train share lands
within one problem of the requested ratio and the whole assignment is a pure
function of (manifest, seed, ratio). Problems sharing a pair id are
co-assigned so no translation pair straddles the train/test boundary.

Training happens in two stages: the first trains on Easy problems and names
its checkpoint ``SFT_easy``; the second continues from it on Medium problems
(optionally cumulative) and names its checkpoint ``SFT_easy+medium``. Hard
problems never enter a training stage; they surface only in test sets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from ganitprep.common import StageSummary, write_json_atomic, write_lines_atomic
from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Problem,
    Source,
    SourceFormat,
    canonical_json,
    passes_review,
)
from ganitprep.errors import PipelineError, check_json_object, json_object_file
from ganitprep.structure import PromptName, get_template, render_prompt, render_structured

STAGE_EASY = "SFT_easy"
STAGE_EASY_MEDIUM = "SFT_easy+medium"


class PairKey(Enum):
    BY_ID = "ById"
    BY_INDEX = "ByIndex"


class Assign(Enum):
    TRAIN = "Train"
    TEST = "Test"


class TrainingMode(Enum):
    MONOLINGUAL_EN = "en"
    MONOLINGUAL_HI = "hi"
    BILINGUAL_COMBINED = "bilingual"


def pair_bilingual(
    en: CorpusManifest, hi: CorpusManifest, key: PairKey = PairKey.BY_ID
) -> CorpusManifest:
    """Merge an English and a Hindi manifest into one paired corpus.

    Pairs are matched by shared id or by position. Each pair receives a
    fresh pair id; members must already agree on source and difficulty.
    When the two id spaces collide, ids are suffixed with the language and
    the original id is kept in ``extras["source_id"]``.
    """
    for manifest, language in ((en, Language.ENGLISH), (hi, Language.HINDI)):
        wrong = [p.id for p in manifest if p.language is not language]
        if wrong:
            raise PipelineError(
                f"{language.value} manifest has foreign-language problems: "
                f"{', '.join(wrong[:5])}"
            )
    if key is PairKey.BY_ID:
        en_ids = {p.id for p in en}
        hi_ids = {p.id for p in hi}
        if en_ids != hi_ids:
            missing = sorted(en_ids ^ hi_ids)
            raise PipelineError(f"id sets differ: {', '.join(missing[:5])}")
        order = sorted(en_ids)
        pairs = [(en.by_id(pid), hi.by_id(pid)) for pid in order]
    else:
        if len(en) != len(hi):
            raise PipelineError(f"size mismatch: {len(en)} English vs {len(hi)} Hindi")
        pairs = list(zip(en.records, hi.records))

    mismatched = [
        (a.id, b.id) for a, b in pairs
        if a.difficulty is not b.difficulty or a.source is not b.source
    ]
    if mismatched:
        listing = "; ".join(f"{a}/{b}" for a, b in mismatched[:5])
        raise PipelineError(f"pairs disagree on difficulty or source: {listing}")

    collisions = {p.id for p in en} & {p.id for p in hi}
    en_out, hi_out = [], []
    for index, (a, b) in enumerate(pairs):
        pair_id = f"pair-{index:06d}"
        if collisions:
            a = replace(a, id=f"{a.id}-en", pair_id=pair_id,
                        extras={**a.extras, "source_id": a.id})
            b = replace(b, id=f"{b.id}-hi", pair_id=pair_id,
                        extras={**b.extras, "source_id": b.id})
        else:
            a = replace(a, pair_id=pair_id)
            b = replace(b, pair_id=pair_id)
        en_out.append(a)
        hi_out.append(b)
    created = max(en.created_at, hi.created_at)
    return CorpusManifest.from_records(en_out + hi_out, SourceFormat.MIXED,
                                       created_at=created)


class MergeOutcome(NamedTuple):
    manifest: CorpusManifest
    totals: dict[Difficulty, int]
    discrepancies: tuple[str, ...]


def merge_sources(
    manifests: Sequence[CorpusManifest],
    audit_totals: Mapping[Difficulty, int] | None = None,
) -> MergeOutcome:
    """Concatenate manifests and tally difficulties.

    The merged manifest refuses an id that two of the manifests share, naming
    the first such id in concatenated order. ``audit_totals`` lets callers
    check the computed per-difficulty totals against externally documented
    figures; mismatches are reported as discrepancies, not errors.
    """
    if not manifests:
        raise PipelineError("nothing to merge")
    created = max(m.created_at for m in manifests)
    merged = CorpusManifest.from_records(chain.from_iterable(manifests), SourceFormat.MIXED,
                                         created_at=created)
    totals = merged.difficulty_counts()
    discrepancies = []
    for difficulty, expected in (audit_totals or {}).items():
        actual = totals.get(difficulty, 0)
        if actual != expected:
            discrepancies.append(
                f"{difficulty.value}: computed {actual}, documented {expected}"
            )
    return MergeOutcome(merged, totals, tuple(discrepancies))


@dataclass(frozen=True)
class SplitAssignment:
    seed: int
    ratio: float
    assignments: Mapping[str, Assign]
    strata: Mapping[tuple[str, str, str], tuple[int, int]]

    def train_ids(self) -> set[str]:
        return {pid for pid, a in self.assignments.items() if a is Assign.TRAIN}

    def test_ids(self) -> set[str]:
        return {pid for pid, a in self.assignments.items() if a is Assign.TEST}


def _stratum_seed(seed: int, label: tuple[str, ...]) -> int:
    digest = hashlib.sha256(("|".join((str(seed),) + label)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def split(manifest: CorpusManifest, seed: int, ratio: float = 0.70) -> SplitAssignment:
    """Stratified, pair-co-assigned train/test split.

    Deterministic given (manifest, seed, ratio); the train share per
    stratum is round(ratio * size) up to the pairing constraint.
    """
    if not 0 < ratio < 1:
        raise PipelineError(f"ratio must be in (0, 1), got {ratio}")
    groups: dict[str, list[Problem]] = {}
    for problem in manifest:
        key = problem.pair_id or f"solo:{problem.id}"
        groups.setdefault(key, []).append(problem)

    by_stratum: dict[tuple[str, ...], list[str]] = {}
    for key, members in groups.items():
        languages = ",".join(sorted(p.language.value for p in members))
        label = (members[0].source.value, members[0].difficulty.value, languages)
        by_stratum.setdefault(label, []).append(key)

    assignments: dict[str, Assign] = {}
    for label in sorted(by_stratum):
        keys = sorted(by_stratum[label])
        rng = random.Random(_stratum_seed(seed, label))
        rng.shuffle(keys)
        n_train = int(len(keys) * ratio + 0.5)
        for position, key in enumerate(keys):
            verdict = Assign.TRAIN if position < n_train else Assign.TEST
            for problem in groups[key]:
                assignments[problem.id] = verdict

    strata: dict[tuple[str, str, str], list[int]] = {}
    for problem in manifest:
        label = (problem.source.value, problem.difficulty.value, problem.language.value)
        counts = strata.setdefault(label, [0, 0])
        counts[0 if assignments[problem.id] is Assign.TRAIN else 1] += 1
    return SplitAssignment(
        seed=seed,
        ratio=ratio,
        assignments=assignments,
        strata={label: (t, s) for label, (t, s) in strata.items()},
    )


@dataclass(frozen=True)
class Stage:
    name: str
    train_ids: tuple[str, ...]
    parent_checkpoint: str
    checkpoint_name: str


@dataclass(frozen=True)
class CurriculumManifest:
    stages: tuple[Stage, ...]
    mode: TrainingMode
    cumulative: bool

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PipelineError(f"no stage named {name!r}")


def build_curriculum(
    manifest: CorpusManifest,
    assignment: SplitAssignment,
    mode: TrainingMode = TrainingMode.BILINGUAL_COMBINED,
    cumulative: bool = False,
) -> CurriculumManifest:
    """Assemble the two training stages from a classified, split corpus.

    The split must assign every problem of the manifest a side.
    """
    unassigned = [p.id for p in manifest if p.id not in assignment.assignments]
    if unassigned:
        raise PipelineError(f"the split assigns neither side to {len(unassigned)} of "
                              f"the manifest's problems, among them {unassigned[:5]}")
    pool = [p for p in manifest if passes_review(p)]  # pending review never trains
    if mode is TrainingMode.MONOLINGUAL_EN:
        pool = [p for p in pool if p.language is Language.ENGLISH]
    elif mode is TrainingMode.MONOLINGUAL_HI:
        pool = [p for p in pool if p.language is Language.HINDI]

    def train_ids(difficulty: Difficulty) -> tuple[str, ...]:
        return tuple(
            p.id for p in pool
            if p.difficulty is difficulty
            and assignment.assignments[p.id] is Assign.TRAIN
        )

    easy = train_ids(Difficulty.EASY)
    medium = train_ids(Difficulty.MEDIUM)
    if not easy or not medium:
        if any(p.difficulty is Difficulty.UNCLASSIFIED for p in pool):
            raise PipelineError("Unclassified problems in Easy/Medium strata; "
                                  "classify the corpus first")
        missing = "Easy" if not easy else "Medium"
        raise PipelineError(f"empty {missing} train stratum")

    stage_two_ids = easy + medium if cumulative else medium
    stages = (
        Stage(name=STAGE_EASY, train_ids=easy, parent_checkpoint="",
              checkpoint_name=STAGE_EASY),
        Stage(name=STAGE_EASY_MEDIUM, train_ids=stage_two_ids,
              parent_checkpoint=STAGE_EASY, checkpoint_name=STAGE_EASY_MEDIUM),
    )
    return CurriculumManifest(stages=stages, mode=mode, cumulative=cumulative)


class ExportOutcome(NamedTuple):
    exported: int
    flagged: dict[str, str]  # id -> why it was not exported

    @property
    def skipped(self) -> int:
        return len(self.flagged)

    def summary(self, name: str) -> StageSummary:
        """Every train id of the stage is either exported or flagged."""
        return StageSummary(name, self.exported + self.skipped, self.exported, self.flagged,
                            f"exported={self.exported} skipped={self.skipped}\n")


def export_stage(
    curriculum: CurriculumManifest,
    stage_name: str,
    manifest: CorpusManifest,
    out_path,
    seed: int = 0,
) -> ExportOutcome:
    """Write one stage as line-delimited instruction-tuning records.

    Each record holds the rendered fine-tuning prompt for one problem
    (structured solution preferred, raw solution otherwise). Ordering is a
    seeded shuffle recorded in the header line; problems that do not pass
    the review gate or have no solution text are skipped and flagged.
    """
    stage = curriculum.stage(stage_name)
    ids = sorted(stage.train_ids)
    random.Random(seed).shuffle(ids)
    template = get_template(PromptName.FINE_TUNE)
    rows = []
    flagged = {}
    for problem_id in ids:
        problem = manifest.by_id(problem_id)
        if not passes_review(problem):
            flagged[problem_id] = "pending review"
            continue
        if problem.structured_solution is not None:
            response = render_structured(problem.structured_solution, problem.language)
        elif problem.raw_solution:
            response = problem.raw_solution
        else:
            flagged[problem_id] = "no solution text"
            continue
        text = render_prompt(template, {"Question": problem.question,
                                        "Response": response})
        rows.append(canonical_json({"id": problem_id, "language": problem.language.value,
                                    "text": text}))
    header = {
        "format": "ganitprep/training",
        "version": 1,
        "stage": stage.name,
        "checkpoint": stage.checkpoint_name,
        "parent_checkpoint": stage.parent_checkpoint,
        "seed": seed,
        "count": len(rows),
    }
    write_lines_atomic(out_path, chain((canonical_json(header),), rows))
    return ExportOutcome(exported=len(rows), flagged=flagged)


def save_split(assignment: SplitAssignment, path) -> None:
    payload = {
        "seed": assignment.seed,
        "ratio": assignment.ratio,
        "assignments": {pid: a.value for pid, a in sorted(assignment.assignments.items())},
        "strata": [
            {"source": s, "difficulty": d, "language": l, "train": t, "test": e}
            for (s, d, l), (t, e) in sorted(assignment.strata.items())
        ],
    }
    write_json_atomic(path, payload)


def load_split(path) -> SplitAssignment:
    types = {"seed": int, "ratio": float, "assignments": dict[str, str], "strata": list}
    with json_object_file(path, "split file", types) as payload:
        return SplitAssignment(
            seed=payload["seed"],
            ratio=payload["ratio"],
            assignments={pid: Assign(a) for pid, a in payload["assignments"].items()},
            strata={
                (row["source"], row["difficulty"], row["language"]): (row["train"], row["test"])
                for row in payload["strata"]
            },
        )


def save_curriculum(curriculum: CurriculumManifest, path) -> None:
    payload = {
        "mode": curriculum.mode.value,
        "cumulative": curriculum.cumulative,
        "stages": [
            {
                "name": stage.name,
                "checkpoint_name": stage.checkpoint_name,
                "parent_checkpoint": stage.parent_checkpoint,
                "train_ids": list(stage.train_ids),
            }
            for stage in curriculum.stages
        ],
    }
    write_json_atomic(path, payload)


def load_curriculum(path) -> CurriculumManifest:
    types = {"stages": list, "mode": str, "cumulative": bool}
    with json_object_file(path, "curriculum file", types) as payload:
        for row in payload["stages"]:
            check_json_object(row, {"name": str, "train_ids": list[str],
                                    "parent_checkpoint": str, "checkpoint_name": str},
                              "curriculum file stage")
            ids = row["train_ids"]
            if len(set(ids)) < len(ids):
                repeat = next(pid for pid in ids if ids.count(pid) > 1)
                raise PipelineError(f"stage {row['name']!r} repeats train id {repeat!r}")
        return CurriculumManifest(
            stages=tuple(
                Stage(
                    name=row["name"],
                    train_ids=tuple(row["train_ids"]),
                    parent_checkpoint=row["parent_checkpoint"],
                    checkpoint_name=row["checkpoint_name"],
                )
                for row in payload["stages"]
            ),
            mode=TrainingMode(payload["mode"]),
            cumulative=payload["cumulative"],
        )
