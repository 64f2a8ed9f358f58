import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep.corpus import REVIEW_STATUSES, Difficulty, Language, Source, passes_review
from ganitprep.curriculum import (
    Assign,
    CurriculumManifest,
    PairKey,
    STAGE_EASY,
    STAGE_EASY_MEDIUM,
    SplitAssignment,
    Stage,
    TrainingMode,
    build_curriculum,
    export_stage,
    load_curriculum,
    load_split,
    merge_sources,
    pair_bilingual,
    save_curriculum,
    save_split,
    split,
)
from ganitprep.errors import PipelineError
from ganitprep.structure import FINE_TUNE_BODY, StructuredSolution


def _mono(count, language, source=Source.INDIMATHQA, difficulty=Difficulty.EASY,
          prefix="p", solution="x = 1\n#### 1"):
    suffix = "en" if language is Language.ENGLISH else "hi"
    return [
        make_problem(f"{prefix}{i:05d}-{suffix}", language=language, source=source,
                     difficulty=difficulty, raw_solution=solution)
        for i in range(count)
    ]


class TestPairBilingual:
    def test_by_id_cardinality(self):
        en = make_manifest(_mono(10, Language.ENGLISH))
        hi = make_manifest([
            make_problem(p.id, language=Language.HINDI, source=p.source,
                         difficulty=p.difficulty, raw_solution=p.raw_solution)
            for p in en
        ])
        paired = pair_bilingual(en, hi, PairKey.BY_ID)
        assert len(paired) == 20
        assert len({p.pair_id for p in paired}) == 10

    def test_difficulty_disagreement_listed(self):
        en = make_manifest([make_problem("a-en", difficulty=Difficulty.EASY,
                                         source=Source.INDIMATHQA)])
        hi = make_manifest([make_problem("a-hi", language=Language.HINDI,
                                         difficulty=Difficulty.MEDIUM,
                                         source=Source.INDIMATHQA)])
        with pytest.raises(PipelineError, match="a-en/a-hi"):
            pair_bilingual(en, hi, PairKey.BY_INDEX)

    def test_by_index_size_mismatch(self):
        en = make_manifest(_mono(3, Language.ENGLISH))
        hi = make_manifest(_mono(2, Language.HINDI))
        with pytest.raises(PipelineError, match="size mismatch"):
            pair_bilingual(en, hi, PairKey.BY_INDEX)

    def test_wrong_language_rejected(self):
        en = make_manifest(_mono(1, Language.ENGLISH))
        with pytest.raises(PipelineError, match="foreign-language"):
            pair_bilingual(en, en, PairKey.BY_ID)

    def test_doubling_of_difficulty_counts(self):
        # doubling oracle over per-language counts 820/2470/4533
        sizes = {Difficulty.EASY: 820, Difficulty.MEDIUM: 2470, Difficulty.HARD: 4533}
        en_problems, hi_problems = [], []
        index = 0
        for difficulty, size in sizes.items():
            for _ in range(size):
                en_problems.append(make_problem(
                    f"q{index:05d}-en", language=Language.ENGLISH,
                    source=Source.INDIMATHQA, difficulty=difficulty))
                hi_problems.append(make_problem(
                    f"q{index:05d}-hi", language=Language.HINDI,
                    source=Source.INDIMATHQA, difficulty=difficulty))
                index += 1
        paired = pair_bilingual(make_manifest(en_problems), make_manifest(hi_problems),
                                PairKey.BY_INDEX)
        counts = paired.difficulty_counts()
        assert counts[Difficulty.EASY] == 1640
        assert counts[Difficulty.MEDIUM] == 4940
        assert counts[Difficulty.HARD] == 9066

    def test_colliding_ids_get_language_suffix(self):
        en = make_manifest([make_problem("q1", source=Source.INDIMATHQA)])
        hi = make_manifest([make_problem("q1", language=Language.HINDI,
                                         source=Source.INDIMATHQA)])
        paired = pair_bilingual(en, hi, PairKey.BY_ID)
        assert {p.id for p in paired} == {"q1-en", "q1-hi"}
        assert all(p.extras["source_id"] == "q1" for p in paired)


def _counts_manifest(blocks):
    """blocks: list of (prefix, source, difficulty, count)."""
    problems = []
    for prefix, source, difficulty, count in blocks:
        for i in range(count):
            kwargs = {"math_level": 1} if source is Source.MATH else {}
            problems.append(make_problem(f"{prefix}-{i:05d}", source=source,
                                         difficulty=difficulty, **kwargs))
    return make_manifest(problems)


class TestMergeSources:
    def test_published_totals_reproduced(self):
        gsm8k = _counts_manifest([("g", Source.GSM8K, Difficulty.EASY, 700)])
        math = _counts_manifest([
            ("m-e", Source.MATH, Difficulty.EASY, 664),
            ("m-m", Source.MATH, Difficulty.MEDIUM, 3140),
            ("m-h", Source.MATH, Difficulty.HARD, 3994),
        ])
        imqa = _counts_manifest([
            ("i-e", Source.INDIMATHQA, Difficulty.EASY, 820),
            ("i-m", Source.INDIMATHQA, Difficulty.MEDIUM, 2470),
            ("i-h", Source.INDIMATHQA, Difficulty.HARD, 4533),
        ])
        outcome = merge_sources(
            [gsm8k, math, imqa],
            audit_totals={Difficulty.EASY: 2184, Difficulty.MEDIUM: 5470,
                          Difficulty.HARD: 8527},
        )
        assert outcome.totals[Difficulty.EASY] == 2184
        assert outcome.totals[Difficulty.HARD] == 8527
        assert outcome.totals[Difficulty.MEDIUM] == 5610
        assert len(outcome.discrepancies) == 1
        assert "Medium" in outcome.discrepancies[0]
        assert "5610" in outcome.discrepancies[0]
        assert "5470" in outcome.discrepancies[0]

    def test_id_collision(self):
        # The first shared id in concatenated order is the one named.
        a = make_manifest([make_problem("p"), make_problem("q")])
        b = make_manifest([make_problem(pid, language=Language.HINDI) for pid in ("q", "p")])
        with pytest.raises(PipelineError, match="^duplicate problem id: q$"):
            merge_sources([a, b])

    def test_no_audit_no_discrepancies(self):
        outcome = merge_sources([make_manifest([make_problem("a")])])
        assert outcome.discrepancies == ()


class TestSplit:
    def test_basic_seventy_thirty(self):
        manifest = make_manifest(_mono(100, Language.ENGLISH))
        assignment = split(manifest, seed=5)
        train = assignment.train_ids()
        assert len(train) == 70
        assert len(assignment.test_ids()) == 30

    def test_same_seed_identical(self):
        manifest = make_manifest(_mono(73, Language.ENGLISH))
        a = split(manifest, seed=11)
        b = split(manifest, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        manifest = make_manifest(_mono(73, Language.ENGLISH))
        assert split(manifest, seed=1).assignments != split(manifest, seed=2).assignments

    def test_rounding_rule_101(self):
        manifest = make_manifest(_mono(101, Language.ENGLISH))
        train = split(manifest, seed=3).train_ids()
        assert len(train) in (70, 71)
        assert abs(len(train) - 0.7 * 101) <= 1

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
    def test_ratio_bounds(self, ratio):
        manifest = make_manifest(_mono(4, Language.ENGLISH))
        with pytest.raises(PipelineError, match=rf"^ratio must be in \(0, 1\), got {ratio}$"):
            split(manifest, seed=0, ratio=ratio)

    def test_pairs_co_assigned(self):
        en = make_manifest(_mono(21, Language.ENGLISH))
        hi = make_manifest(_mono(21, Language.HINDI))
        paired = pair_bilingual(en, hi, PairKey.BY_INDEX)
        assignment = split(paired, seed=9)
        groups = {}
        for problem in paired:
            groups.setdefault(problem.pair_id, set()).add(
                assignment.assignments[problem.id])
        assert all(len(verdicts) == 1 for verdicts in groups.values())

    def test_strata_bounds_random_corpora(self):
        rng = random.Random(404)
        for trial in range(20):
            problems = []
            for s_index, source in enumerate((Source.GSM8K, Source.INDIMATHQA)):
                for d_index, difficulty in enumerate(
                        (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)):
                    for i in range(rng.randrange(1, 60)):
                        problems.append(make_problem(
                            f"t{trial}-{s_index}{d_index}-{i:04d}",
                            source=source, difficulty=difficulty))
            manifest = make_manifest(problems)
            assignment = split(manifest, seed=trial)
            for (src, diff, lang), (train, test) in assignment.strata.items():
                size = train + test
                assert abs(train - 0.70 * size) <= 1

    def test_round_trip_file(self, tmp_path):
        manifest = make_manifest(_mono(12, Language.ENGLISH))
        assignment = split(manifest, seed=2)
        path = tmp_path / "split.json"
        save_split(assignment, path)
        assert load_split(path) == assignment

    def test_synthetic_variants_follow_their_seed(self):
        # One variant of each of 20 problems: each lands with its seed, and
        # the seeds land where they land without their variants.
        seeds = _mono(20, Language.ENGLISH, source=Source.GSM8K)
        variants = [make_problem(f"syn-{i}", source=Source.SYNTHETIC,
                                 difficulty=Difficulty.EASY, extras={"seed_id": seed.id})
                    for i, seed in enumerate(seeds)]
        together = split(make_manifest(seeds + variants), seed=7).assignments
        alone = split(make_manifest(seeds), seed=7).assignments
        assert [together[v.id] for v in variants] == [together[s.id] for s in seeds]
        assert {s.id: together[s.id] for s in seeds} == alone

    @pytest.mark.parametrize("seed_id", [None, "", 5, ["p00000-en"]])
    def test_seed_id_that_names_no_record_is_no_seed(self, seed_id):
        # Such records are split one by one, not joined into one lineage.
        problems = [make_problem(f"syn-{i}", source=Source.SYNTHETIC,
                                 extras={"seed_id": seed_id}) for i in range(40)]
        assert split(make_manifest(problems), seed=7) == split(
            make_manifest([replace(p, extras={}) for p in problems]), seed=7)


_DIFFICULTIES = (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)


@st.composite
def _lineage_manifests(draw):
    """Solo records, translation pairs, and synthetic records whose seed is any
    record, another synthetic one (chains and cycles) or a missing id."""
    problems = [make_problem(f"r{i}", draw(st.sampled_from(Language)),
                             difficulty=draw(st.sampled_from(_DIFFICULTIES)))
                for i in range(draw(st.integers(0, 8)))]
    for i in range(draw(st.integers(0, 4))):
        difficulty = draw(st.sampled_from(_DIFFICULTIES))
        problems += [make_problem(f"p{i}-{language.name}", language, source=Source.INDIMATHQA,
                                  difficulty=difficulty, pair_id=f"pair-{i}")
                     for language in Language]
    synthetic = [f"s{i}" for i in range(draw(st.integers(0, 12)))]
    seeds = [problem.id for problem in problems] + synthetic + ["missing-0", "missing-1"]
    problems += [make_problem(pid, draw(st.sampled_from(Language)), source=Source.SYNTHETIC,
                              difficulty=draw(st.sampled_from(_DIFFICULTIES)),
                              extras={"seed_id": draw(st.sampled_from(seeds))})
                 for pid in synthetic]
    return make_manifest(draw(st.permutations(problems)))


@settings(max_examples=200, deadline=None)
@given(_lineage_manifests(), st.integers(0, 3))
def test_no_lineage_straddles_the_split(manifest, seed):
    # A lineage is what pair and seed links join, found here by union-find.
    parent = {}

    def root(node):
        while parent.get(node, node) != node:
            node = parent[node]
        return node

    for problem in manifest:
        links = [f"pair:{problem.pair_id}"] if problem.pair_id else []
        links += [problem.extras["seed_id"]] if "seed_id" in problem.extras else []
        for link in links:
            a, b = root(problem.id), root(link)
            if a != b:
                parent[a] = b
    assignments = split(manifest, seed=seed).assignments
    sides = {}
    for problem in manifest:
        sides.setdefault(root(problem.id), set()).add(assignments[problem.id])
    assert set(assignments) == {problem.id for problem in manifest}
    assert all(len(side) == 1 for side in sides.values())


def _classified_corpus():
    problems = []
    problems += _mono(10, Language.ENGLISH, difficulty=Difficulty.EASY, prefix="e")
    problems += _mono(10, Language.HINDI, difficulty=Difficulty.EASY, prefix="e")
    problems += _mono(10, Language.ENGLISH, difficulty=Difficulty.MEDIUM, prefix="m")
    problems += _mono(10, Language.HINDI, difficulty=Difficulty.MEDIUM, prefix="m")
    problems += _mono(6, Language.ENGLISH, difficulty=Difficulty.HARD, prefix="h")
    return make_manifest(problems)


class TestBuildCurriculum:
    def test_stage_names_and_lineage(self):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        assert [s.name for s in built.stages] == [STAGE_EASY, STAGE_EASY_MEDIUM]
        assert built.stages[0].checkpoint_name == "SFT_easy"
        assert built.stages[0].parent_checkpoint == ""
        assert built.stages[1].checkpoint_name == "SFT_easy+medium"
        assert built.stages[1].parent_checkpoint == "SFT_easy"

    def test_disjoint_stages_by_default(self):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1), cumulative=False)
        first = set(built.stages[0].train_ids)
        second = set(built.stages[1].train_ids)
        assert first.isdisjoint(second)

    def test_cumulative_superset_chain(self):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1), cumulative=True)
        first = set(built.stages[0].train_ids)
        second = set(built.stages[1].train_ids)
        assert first <= second
        assert len(second) == len(first) + sum(
            1 for p in manifest
            if p.difficulty is Difficulty.MEDIUM
            and split(manifest, seed=1).assignments[p.id] is Assign.TRAIN)

    def test_monolingual_filters(self):
        manifest = _classified_corpus()
        assignment = split(manifest, seed=1)
        english = build_curriculum(manifest, assignment, TrainingMode.MONOLINGUAL_EN)
        for stage in english.stages:
            for pid in stage.train_ids:
                assert manifest.by_id(pid).language is Language.ENGLISH
        hindi = build_curriculum(manifest, assignment, TrainingMode.MONOLINGUAL_HI)
        for stage in hindi.stages:
            for pid in stage.train_ids:
                assert manifest.by_id(pid).language is Language.HINDI

    def test_hard_never_in_training(self):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1), cumulative=True)
        for stage in built.stages:
            for pid in stage.train_ids:
                assert manifest.by_id(pid).difficulty in (Difficulty.EASY,
                                                          Difficulty.MEDIUM)

    def test_no_test_id_in_train(self):
        manifest = _classified_corpus()
        assignment = split(manifest, seed=1)
        built = build_curriculum(manifest, assignment, cumulative=True)
        test_ids = assignment.test_ids()
        for stage in built.stages:
            assert test_ids.isdisjoint(stage.train_ids)

    def test_bilingual_pairs_stay_whole(self):
        en = make_manifest(_mono(12, Language.ENGLISH, difficulty=Difficulty.EASY))
        hi = make_manifest(_mono(12, Language.HINDI, difficulty=Difficulty.EASY))
        paired = pair_bilingual(en, hi, PairKey.BY_INDEX)
        extra = _mono(8, Language.ENGLISH, difficulty=Difficulty.MEDIUM, prefix="m")
        manifest = make_manifest(list(paired.records) + extra)
        assignment = split(manifest, seed=4)
        built = build_curriculum(manifest, assignment)
        stage_sets = [set(s.train_ids) for s in built.stages]
        test_ids = assignment.test_ids()
        for problem in paired:
            containers = [problem.id in s for s in stage_sets]
            containers.append(problem.id in test_ids)
            twin_id = [p.id for p in paired
                       if p.pair_id == problem.pair_id and p.id != problem.id][0]
            twin_containers = [twin_id in s for s in stage_sets]
            twin_containers.append(twin_id in test_ids)
            assert containers == twin_containers

    def test_unclassified_error_message(self):
        manifest = make_manifest(_mono(10, Language.ENGLISH,
                                       difficulty=Difficulty.UNCLASSIFIED))
        with pytest.raises(PipelineError, match="Unclassified problems in Easy/Medium"):
            build_curriculum(manifest, split(manifest, seed=1))

    def test_empty_medium_stratum_error(self):
        manifest = make_manifest(_mono(10, Language.ENGLISH, difficulty=Difficulty.EASY))
        with pytest.raises(PipelineError, match="empty Medium train stratum"):
            build_curriculum(manifest, split(manifest, seed=1))

    def test_round_trip_file(self, tmp_path):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        path = tmp_path / "curriculum.json"
        save_curriculum(built, path)
        assert load_curriculum(path) == built

    def test_repeated_train_id_refused(self, tmp_path):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        easy = built.stages[0]
        path = tmp_path / "curriculum.json"
        save_curriculum(replace(built, stages=(
            replace(easy, train_ids=easy.train_ids + easy.train_ids[:1]),)), path)
        with pytest.raises(PipelineError, match=re.escape(
                f"{path}: stage 'SFT_easy' repeats train id {easy.train_ids[0]!r}")):
            load_curriculum(path)

    def test_pending_review_never_trains(self):
        problems = [
            make_problem(f"{status or 'none'}-{difficulty.value}", source=Source.SYNTHETIC,
                         difficulty=difficulty, raw_solution="#### 1",
                         extras={"review_status": status} if status else {})
            for difficulty in (Difficulty.EASY, Difficulty.MEDIUM)
            for status in ("pending", "approved", "corrected", "")
        ]
        manifest = make_manifest(problems)
        everything = SplitAssignment(seed=0, ratio=0.7, strata={},
                                     assignments={p.id: Assign.TRAIN for p in manifest})
        built = build_curriculum(manifest, everything, cumulative=True)
        assert built.stage(STAGE_EASY).train_ids == (
            "approved-Easy", "corrected-Easy", "none-Easy")
        assert built.stage(STAGE_EASY_MEDIUM).train_ids == (
            "approved-Easy", "corrected-Easy", "none-Easy",
            "approved-Medium", "corrected-Medium", "none-Medium")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.sampled_from(REVIEW_STATUSES), st.text(max_size=12)),
                    max_size=8))
    def test_review_gate_matches_passes_review(self, statuses):
        # Absent (None), known and unknown statuses; two ungated anchors keep
        # both training strata nonempty.
        problems = [make_problem(f"anchor-{d.value}", difficulty=d, raw_solution="#### 1")
                    for d in (Difficulty.EASY, Difficulty.MEDIUM)]
        problems += [
            make_problem(f"s{i}", source=Source.SYNTHETIC, raw_solution="#### 1",
                         difficulty=(Difficulty.EASY, Difficulty.MEDIUM)[i % 2],
                         extras={} if status is None else {"review_status": status})
            for i, status in enumerate(statuses)
        ]
        manifest = make_manifest(problems)
        everything = SplitAssignment(seed=0, ratio=0.7, strata={},
                                     assignments={p.id: Assign.TRAIN for p in manifest})
        built = build_curriculum(manifest, everything, cumulative=True)
        assert sorted(built.stage(STAGE_EASY_MEDIUM).train_ids) == sorted(
            p.id for p in manifest if passes_review(p))

    def test_split_leaving_a_problem_unassigned_refused(self):
        manifest = _classified_corpus()
        assignment = split(manifest, seed=1)
        stale = replace(assignment, assignments={
            pid: side for pid, side in assignment.assignments.items()
            if pid != manifest.records[3].id})
        with pytest.raises(PipelineError, match=re.escape(
                f"assigns neither side to 1 of the manifest's problems, among them "
                f"{[manifest.records[3].id]}")):
            build_curriculum(manifest, stale)


class TestExportStage:
    def test_records_contain_instruction_marker(self, tmp_path):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        out = tmp_path / "stage.jsonl"
        outcome = export_stage(built, STAGE_EASY, manifest, out, seed=3)
        lines = out.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 3
        assert header["checkpoint"] == "SFT_easy"
        assert header["count"] == outcome.exported == len(lines) - 1
        for line in lines[1:]:
            assert "### Instruction:" in json.loads(line)["text"]

    def test_byte_identical_same_seed(self, tmp_path):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_stage(built, STAGE_EASY, manifest, a, seed=3)
        export_stage(built, STAGE_EASY, manifest, b, seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_pending_item_flagged_not_written(self, tmp_path):
        problems = [make_problem(f"syn-{status}", source=Source.SYNTHETIC, raw_solution="#### 1",
                                 difficulty=Difficulty.EASY, extras={"review_status": status})
                    for status in REVIEW_STATUSES]
        manifest = make_manifest(problems)
        built = CurriculumManifest((Stage(STAGE_EASY, tuple(p.id for p in problems), "",
                                          STAGE_EASY),), TrainingMode.BILINGUAL_COMBINED, False)
        out = tmp_path / "s.jsonl"
        outcome = export_stage(built, STAGE_EASY, manifest, out)
        assert (outcome.exported, outcome.flagged) == (2, {"syn-pending": "pending review"})
        assert "syn-pending" not in out.read_text(encoding="utf-8")

    def test_missing_solution_flagged(self, tmp_path):
        problems = [
            make_problem("e1", difficulty=Difficulty.EASY, raw_solution="#### 1"),
            make_problem("e2", difficulty=Difficulty.EASY, raw_solution="#### 2"),
            make_problem("e3", difficulty=Difficulty.EASY, raw_solution=None),
            make_problem("m1", difficulty=Difficulty.MEDIUM, raw_solution="#### 3"),
        ]
        manifest = make_manifest(problems)
        assignment = split(manifest, seed=1, ratio=0.9)
        built = build_curriculum(manifest, assignment)
        outcome = export_stage(built, STAGE_EASY, manifest, tmp_path / "s.jsonl")
        assert outcome.exported + outcome.skipped == len(built.stages[0].train_ids)
        if "e3" in built.stages[0].train_ids:
            assert outcome.flagged == {"e3": "no solution text"}

    def test_structured_solution_exported_under_hindi_headings(self, tmp_path):
        solution = StructuredSolution("d", "a", "t", "m", "c", "हल 7")
        problems = [
            make_problem("h1", language=Language.HINDI, question="प्रश्न?",
                         difficulty=Difficulty.EASY, raw_solution="#### 99",
                         structured_solution=solution),
            make_problem("m1", difficulty=Difficulty.MEDIUM, raw_solution="#### 3"),
        ]
        manifest = make_manifest(problems)
        everything = SplitAssignment(seed=0, ratio=0.7, strata={},
                                     assignments={p.id: Assign.TRAIN for p in manifest})
        built = build_curriculum(manifest, everything)
        out = tmp_path / "easy.jsonl"
        assert export_stage(built, STAGE_EASY, manifest, out).exported == 1
        row = json.loads(out.read_text(encoding="utf-8").splitlines()[1])
        response = ("डेटा पहचान:\nd\n\nसमस्या विश्लेषण:\na\n\nसैद्धांतिक ढांचा:\nt\n\n"
                    "विधि विकास:\nm\n\nगणना:\nc\n\nहल:\nहल 7\n")
        assert (row["id"], row["language"]) == ("h1", "Hindi")
        assert row["text"] == FINE_TUNE_BODY.format(Question="प्रश्न?", Response=response)

    def test_unknown_stage(self, tmp_path):
        manifest = _classified_corpus()
        built = build_curriculum(manifest, split(manifest, seed=1))
        with pytest.raises(PipelineError, match="no stage named"):
            export_stage(built, "SFT_hard", manifest, tmp_path / "x.jsonl")
