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
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ganitprep.common import StageSummary, write_json_atomic, write_lines_atomic
from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Problem,
    RecordRules,
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


def merged_records(sources: Sequence[Iterable[Problem]],
                   totals: Counter[Difficulty]) -> Iterator[Problem]:
    """Each source's records in turn, each difficulty tallied in ``totals``.

    An id that two sources share, or a pair whose members in different
    sources break a pair rule, is raised once the last source has been read,
    so each source's own faults, raised as it is read, come first.
    """
    rules = RecordRules()
    for source in sources:
        for problem in source:
            rules.add(problem)
            totals[problem.difficulty] += 1
            yield problem
    rules.check()


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
    totals: Counter[Difficulty] = Counter()
    merged = CorpusManifest.from_records(merged_records(manifests, totals), SourceFormat.MIXED,
                                         created_at=created)
    discrepancies = []
    for difficulty, expected in (audit_totals or {}).items():
        actual = totals[difficulty]
        if actual != expected:
            discrepancies.append(
                f"{difficulty.value}: computed {actual}, documented {expected}"
            )
    return MergeOutcome(merged, dict(totals), tuple(discrepancies))


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


def _lineage_root(problem_id: str, seed_ids: dict[str, str]) -> str:
    """The first record on ``problem_id``'s ``seed_id`` chain with no seed of its
    own, a seed missing from the manifest included, or the least id of a cycle."""
    path: dict[str, int] = {}  # id -> position on the chain
    while problem_id in seed_ids and problem_id not in path:
        path[problem_id] = len(path)
        problem_id = seed_ids[problem_id]
    return min(list(path)[path[problem_id]:]) if problem_id in path else problem_id


def split(manifest: Iterable[Problem], seed: int, ratio: float = 0.70) -> SplitAssignment:
    """Stratified train/test split that keeps each lineage on one side: a
    translation pair, else the root of a ``seed_id`` chain, else the record.

    Deterministic given (manifest, seed, ratio); the train share per
    stratum is round(ratio * size) up to the lineage constraint. The records
    are read once, keeping each one's id, the enum values of its stratum and
    its seed; a lineage takes the stratum of its root records.
    """
    if not 0 < ratio < 1:
        raise PipelineError(f"ratio must be in (0, 1), got {ratio}")
    labels: dict[str, tuple[str, str, str]] = {}  # id -> (source, difficulty, language)
    shared: dict[tuple[str, str, str], tuple[str, str, str]] = {}  # one tuple per label
    groups: dict[str, tuple[str, ...]] = {}  # lineage key -> its root records' ids
    seed_ids: dict[str, str] = {}  # id -> seed id, for each unpaired record with a seed
    for problem in manifest:
        label = (problem.source.value, problem.difficulty.value, problem.language.value)
        labels[problem.id] = shared.setdefault(label, label)
        seed_id = problem.extras.get("seed_id")
        if seed_id and type(seed_id) is str and not problem.pair_id:
            seed_ids[problem.id] = seed_id
        else:
            key = problem.pair_id or f"solo:{problem.id}"
            groups[key] = groups.get(key, ()) + (problem.id,)

    descendants: dict[str, tuple[str, ...]] = {}  # lineage key -> the records with a seed
    key_of = {pid: key for key, members in groups.items() for pid in members} if seed_ids else {}
    for problem_id in seed_ids:
        root = _lineage_root(problem_id, seed_ids)
        key = key_of.get(root) or f"solo:{root}"
        descendants[key] = descendants.get(key, ()) + (problem_id,)

    by_stratum: dict[tuple[str, ...], list[str]] = {}
    for key in groups.keys() | descendants.keys():
        roots = groups.get(key) or descendants[key]  # a missing seed or a cycle: all
        source, difficulty, _ = labels[roots[0]]
        languages = ",".join(sorted(labels[pid][2] for pid in roots))
        by_stratum.setdefault((source, difficulty, languages), []).append(key)

    assignments: dict[str, Assign] = {}
    for label in sorted(by_stratum):
        keys = sorted(by_stratum[label])
        rng = random.Random(_stratum_seed(seed, label))
        rng.shuffle(keys)
        n_train = int(len(keys) * ratio + 0.5)
        for position, key in enumerate(keys):
            verdict = Assign.TRAIN if position < n_train else Assign.TEST
            for problem_id in groups.get(key, ()) + descendants.get(key, ()):
                assignments[problem_id] = verdict

    strata: dict[tuple[str, str, str], list[int]] = {}
    for problem_id, label in labels.items():
        counts = strata.setdefault(label, [0, 0])
        counts[0 if assignments[problem_id] is Assign.TRAIN else 1] += 1
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


_MODE_LANGUAGE = {TrainingMode.MONOLINGUAL_EN: Language.ENGLISH,
                  TrainingMode.MONOLINGUAL_HI: Language.HINDI}


@dataclass(frozen=True)
class TrainPool:
    """What a curriculum is built from, read from a manifest in one pass:
    every problem's id, and the ids of the Easy and Medium problems that the
    mode admits and that pass the review gate, in manifest order."""

    mode: TrainingMode
    ids: tuple[str, ...]
    easy: tuple[str, ...]
    medium: tuple[str, ...]
    unclassified: bool  # whether an admitted problem is Unclassified

    @classmethod
    def read(cls, manifest: Iterable[Problem], mode: TrainingMode) -> "TrainPool":
        language = _MODE_LANGUAGE.get(mode)
        ids: list[str] = []
        admitted: dict[Difficulty, list[str]] = {d: [] for d in Difficulty}
        for problem in manifest:
            ids.append(problem.id)
            # Pending review never trains.
            if passes_review(problem) and language in (None, problem.language):
                admitted[problem.difficulty].append(problem.id)
        return cls(mode, tuple(ids), tuple(admitted[Difficulty.EASY]),
                   tuple(admitted[Difficulty.MEDIUM]),
                   bool(admitted[Difficulty.UNCLASSIFIED]))

    def curriculum(self, assignment: SplitAssignment,
                   cumulative: bool = False) -> CurriculumManifest:
        """The two training stages: the pool's Easy, then its Medium (after
        its Easy when cumulative), train problems. The split must assign
        every problem of the manifest a side."""
        sides = assignment.assignments
        unassigned = [pid for pid in self.ids if pid not in sides]
        if unassigned:
            raise PipelineError(f"the split assigns neither side to {len(unassigned)} of "
                                f"the manifest's problems, among them {unassigned[:5]}")
        easy = tuple(pid for pid in self.easy if sides[pid] is Assign.TRAIN)
        medium = tuple(pid for pid in self.medium if sides[pid] is Assign.TRAIN)
        if not easy or not medium:
            if self.unclassified:
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
        return CurriculumManifest(stages=stages, mode=self.mode, cumulative=cumulative)


def build_curriculum(
    manifest: Iterable[Problem],
    assignment: SplitAssignment,
    mode: TrainingMode = TrainingMode.BILINGUAL_COMBINED,
    cumulative: bool = False,
) -> CurriculumManifest:
    """Assemble the two training stages from a classified, split corpus
    (see :class:`TrainPool`)."""
    return TrainPool.read(manifest, mode).curriculum(assignment, cumulative)


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


def stage_problems(stage: Stage, manifest: Iterable[Problem]) -> dict[str, Problem]:
    """The records of ``manifest`` that ``stage`` trains on, by id: the only
    records kept as the manifest is read. An id the manifest lacks is absent."""
    wanted = set(stage.train_ids)
    return {problem.id: problem for problem in manifest if problem.id in wanted}


def check_stage_ids(stage: Stage, problems: Mapping[str, Problem]) -> None:
    """Raise naming the first train id of ``stage`` that ``problems`` lacks."""
    for problem_id in stage.train_ids:
        if problem_id not in problems:
            raise PipelineError(f"no problem with id {problem_id!r}")


def export_stage(
    curriculum: CurriculumManifest,
    stage_name: str,
    manifest: Iterable[Problem],
    out_path,
    seed: int = 0,
) -> ExportOutcome:
    """Write one stage as line-delimited instruction-tuning records.

    Each record holds the rendered fine-tuning prompt for one problem
    (structured solution preferred, raw solution otherwise). Ordering is a
    seeded shuffle recorded in the header line; problems that do not pass
    the review gate or have no solution text are skipped and flagged. Only
    the stage's records are kept from ``manifest``. Which of them are
    exported is known before any is rendered, so the header goes first and
    each row is rendered, encoded and written before the next.
    """
    stage = curriculum.stage(stage_name)
    problems = stage_problems(stage, manifest)
    check_stage_ids(stage, problems)
    ids = sorted(stage.train_ids)
    random.Random(seed).shuffle(ids)
    exported = []
    flagged = {}
    for problem_id in ids:
        problem = problems[problem_id]
        if not passes_review(problem):
            flagged[problem_id] = "pending review"
        elif problem.structured_solution is None and not problem.raw_solution:
            flagged[problem_id] = "no solution text"
        else:
            exported.append(problem)
    template = get_template(PromptName.FINE_TUNE)

    def rows() -> Iterator[str]:
        for problem in exported:
            if problem.structured_solution is not None:
                response = render_structured(problem.structured_solution, problem.language)
            else:
                response = problem.raw_solution
            text = render_prompt(template, {"Question": problem.question,
                                            "Response": response})
            yield canonical_json({"id": problem.id, "language": problem.language.value,
                                  "text": text})

    header = {
        "format": "ganitprep/training",
        "version": 1,
        "stage": stage.name,
        "checkpoint": stage.checkpoint_name,
        "parent_checkpoint": stage.parent_checkpoint,
        "seed": seed,
        "count": len(exported),
    }
    write_lines_atomic(out_path, chain((canonical_json(header),), rows()))
    return ExportOutcome(exported=len(exported), flagged=flagged)


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
