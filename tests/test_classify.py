import pytest

from conftest import make_manifest, make_problem
from ganitprep.classify import (
    CRITERIA,
    DEFAULT_WEIGHTS,
    apply_annotations,
    apply_math_levels,
    extract_features,
    map_math_level,
    rank_bottom_k,
    read_annotations,
    score_complexity,
)
from ganitprep.corpus import Difficulty, Source
from ganitprep.errors import PipelineError


class TestMapMathLevel:
    @pytest.mark.parametrize("level,expected", [
        (1, Difficulty.EASY),
        (2, Difficulty.MEDIUM),
        (3, Difficulty.MEDIUM),
        (4, Difficulty.HARD),
        (5, Difficulty.HARD),
    ])
    def test_mapping(self, level, expected):
        assert map_math_level(level) is expected

    def test_surjective_onto_bands(self):
        bands = {map_math_level(level) for level in range(1, 6)}
        assert bands == {Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD}

    @pytest.mark.parametrize("level", [0, 6, -1, "3", 2.5])
    def test_out_of_range(self, level):
        with pytest.raises(PipelineError, match=rf"^level must be in 1\.\.5, got {level!r}$"):
            map_math_level(level)

    def test_apply_to_manifest(self):
        manifest = make_manifest([
            make_problem(f"m{level}", source=Source.MATH, math_level=level)
            for level in range(1, 6)
        ])
        result = apply_math_levels(manifest)
        got = [p.difficulty for p in result]
        assert got == [Difficulty.EASY, Difficulty.MEDIUM, Difficulty.MEDIUM,
                       Difficulty.HARD, Difficulty.HARD]


class TestScoreComplexity:
    def test_minimal_problem_floors_scale(self):
        score = score_complexity(make_problem("p", question="What is 2 + 2?"))
        for name in CRITERIA:
            assert getattr(score, name) == pytest.approx(1.0)
        assert score.total == pytest.approx(1.0)

    def test_deterministic(self):
        problem = make_problem("p", question="If a train travels 60 km in 2 hours, "
                                              "how fast is it going?")
        assert score_complexity(problem) == score_complexity(problem)

    def test_monotone_under_feature_domination(self):
        # p2 dominates p1 on every raw feature by construction
        p1 = make_problem("p1", question="Add 3 and 4, then multiply by 2.")
        p2 = make_problem(
            "p2",
            question="Add 3 and 4, then multiply by 2, and if the result exceeds "
                     "10, subtract 5, then divide the total by x + y first, "
                     "then report how many remain after 7 more steps.",
            topic="Geometry",
        )
        f1, f2 = extract_features(p1), extract_features(p2)
        assert all(b >= a for a, b in zip(f1, f2))
        s1, s2 = score_complexity(p1), score_complexity(p2)
        assert s2.total >= s1.total
        for name in CRITERIA:
            assert getattr(s2, name) >= getattr(s1, name)

    def test_sub_scores_bounded(self):
        problem = make_problem("p", question=("compute " + "x + y * z, " * 120),
                               topic="Precalculus")
        score = score_complexity(problem)
        for name in CRITERIA:
            assert 1.0 <= getattr(score, name) <= 5.0

    def test_total_is_weighted_combination(self):
        problem = make_problem("p", question="Solve for x: 3x + 4 = 19, then "
                                              "double the result.")
        score = score_complexity(problem)
        combined = sum(DEFAULT_WEIGHTS[name] * getattr(score, name) for name in CRITERIA)
        assert score.total == combined / sum(DEFAULT_WEIGHTS.values())

    def test_unknown_topic_scores_tier_one(self):
        problem = make_problem("p", question="short", topic="origami")
        assert score_complexity(problem).conceptual_complexity == 1.0

    def test_listed_topic_scores_its_tier(self):
        problem = make_problem("p", question="short", topic="Precalculus")
        assert score_complexity(problem).conceptual_complexity == 5.0


class TestRankBottomK:
    def _manifest(self):
        questions = {
            "q1": "What is 2 + 2?",
            "q2": "Add 15 and 27, then subtract 9.",
            "q3": "A shop sells 12 pens per day for 30 days; if 40 are returned, "
                  "how many were kept, and what fraction is that?",
            "q4": "If x + y = 10 and x - y = 4, first find x, then y, then "
                  "compute x * y - 3 after doubling both.",
            "q5": "Compute the probability of two heads in two coin flips, then "
                  "multiply by the number of permutations of 4 items, and divide "
                  "the result by 6 before adding the remainder of 17 / 5.",
        }
        return make_manifest([make_problem(pid, question=q)
                              for pid, q in questions.items()])

    def test_bottom_two_match_sort_oracle(self):
        manifest = self._manifest()
        scored = sorted(
            ((score_complexity(p).total, p.id) for p in manifest))
        expected = {pid for _, pid in scored[:2]}
        result = rank_bottom_k(manifest, 2)
        selected = {p.id for p in result if p.difficulty is Difficulty.EASY}
        assert selected == expected

    def test_k_zero(self):
        result = rank_bottom_k(self._manifest(), 0)
        assert all(p.difficulty is Difficulty.UNCLASSIFIED for p in result)

    def test_k_too_large(self):
        with pytest.raises(PipelineError, match=r"^k must be in 0\.\.5, got 6$"):
            rank_bottom_k(self._manifest(), 6)

    def test_permutation_invariance(self):
        manifest = self._manifest()
        reordered = make_manifest(list(reversed(manifest.records)))
        a = {p.id for p in rank_bottom_k(manifest, 3) if p.difficulty is Difficulty.EASY}
        b = {p.id for p in rank_bottom_k(reordered, 3) if p.difficulty is Difficulty.EASY}
        assert a == b

    def test_tie_break_by_id(self):
        manifest = make_manifest([
            make_problem("b", question="What is 2 + 2?"),
            make_problem("a", question="What is 2 + 2?"),
        ])
        result = rank_bottom_k(manifest, 1)
        assert result.by_id("a").difficulty is Difficulty.EASY
        assert result.by_id("b").difficulty is Difficulty.UNCLASSIFIED


class TestApplyAnnotations:
    def test_annotated_counts(self):
        # same shape as the curated-corpus annotation tally: 136/218/244 of 598
        sizes = {Difficulty.EASY: 136, Difficulty.MEDIUM: 218, Difficulty.HARD: 244}
        problems = []
        annotations = {}
        index = 0
        for difficulty, size in sizes.items():
            for _ in range(size):
                pid = f"p{index:04d}"
                problems.append(make_problem(pid, source=Source.INDIMATHQA))
                annotations[pid] = difficulty
                index += 1
        assert len(problems) == 598
        outcome = apply_annotations(make_manifest(problems), annotations)
        assert outcome.counts == sizes
        assert outcome.manifest.difficulty_counts() == sizes

    def test_empty_annotations_is_identity(self):
        manifest = make_manifest([make_problem("a"), make_problem("b")])
        outcome = apply_annotations(manifest, {})
        assert outcome.manifest == manifest
        assert outcome.counts == {}

    def test_unknown_id_listed(self):
        manifest = make_manifest([make_problem("a")])
        with pytest.raises(PipelineError, match="ghost"):
            apply_annotations(manifest, {"ghost": Difficulty.EASY})

    def test_only_difficulty_changes(self):
        manifest = make_manifest([make_problem("a", question="q?", topic="sets")])
        outcome = apply_annotations(manifest, {"a": Difficulty.HARD})
        before = manifest.records[0].to_dict()
        after = outcome.manifest.records[0].to_dict()
        before.pop("difficulty")
        after.pop("difficulty")
        assert before == after

    def test_read_annotation_file(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("a\tEasy\nb\tHard\n", encoding="utf-8")
        assert read_annotations(path) == {"a": Difficulty.EASY, "b": Difficulty.HARD}

    def test_read_rejects_bad_label(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("a\tTricky\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="Tricky"):
            read_annotations(path)
