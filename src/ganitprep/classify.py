"""Difficulty assignment: level mapping, feature scoring, and annotations.

Three classification routes, matching how each corpus is labeled:

* competition problems map their published level deterministically
  (1 -> Easy, 2-3 -> Medium, 4-5 -> Hard);
* unleveled corpora get a five-criterion feature score and a bottom-k cut
  marks the lowest-complexity problems Easy;
* human annotation files overwrite difficulties directly.

The feature scorer is deterministic and monotone: adding tokens, operators,
or literals to a question never lowers the corresponding sub-score.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from ganitprep.answers import map_devanagari_digits
from ganitprep.corpus import CorpusManifest, Difficulty, Problem, replace_records
from ganitprep.errors import PipelineError, numbered_lines


def map_math_level(level: int) -> Difficulty:
    """Map a competition level 1..5 to a difficulty band."""
    if not isinstance(level, int) or isinstance(level, bool) or not 1 <= level <= 5:
        raise PipelineError(f"level must be in 1..5, got {level!r}")
    if level == 1:
        return Difficulty.EASY
    if level in (2, 3):
        return Difficulty.MEDIUM
    return Difficulty.HARD


def apply_math_levels(manifest: CorpusManifest) -> CorpusManifest:
    """Set difficulty from math_level wherever one is present."""
    records = [
        replace(p, difficulty=map_math_level(p.math_level))
        if p.math_level is not None else p
        for p in manifest
    ]
    return replace_records(manifest, records)


CRITERIA = (
    "language_understanding",
    "mathematical_complexity",
    "reasoning_complexity",
    "num_variables",
    "conceptual_complexity",
)

DEFAULT_WEIGHTS = {name: 0.2 for name in CRITERIA}
_WEIGHT_NORM = sum(DEFAULT_WEIGHTS.values())

# Topic tiers by lowercased topic, lowest conceptual load first; an unlisted
# topic is tier 1.
TOPIC_TIERS = {
    "prealgebra": 1,
    "arithmetic": 1,
    "algebra": 2,
    "number theory": 3,
    "counting & probability": 3,
    "counting and probability": 3,
    "probability": 3,
    "geometry": 4,
    "intermediate algebra": 5,
    "precalculus": 5,
}

_SENTENCE_RE = re.compile(r"[.!?।]+")
_OPERATOR_RE = re.compile(r"[+\-*/×÷=^%√]")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_IDENTIFIER_RE = re.compile(r"(?<![0-9A-Za-z])([b-hj-z])(?![0-9A-Za-z])")
_CLAUSE_RE = re.compile(r"[,;:]")


def _by_script(words: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(the ASCII words, all the words): ASCII text holds none of the rest."""
    return tuple(word for word in words if word.isascii()), words


_OPERATOR_WORDS = _by_script((
    "plus", "minus", "times", "divided", "sum", "difference", "product",
    "quotient", "percent", "ratio", "जोड़", "घटा", "गुणा", "भाग", "योग", "अंतर",
))
_CONCEPT_WORDS = _by_script((
    "sqrt", "square root", "log", "sin", "cos", "tan", "integral",
    "derivative", "factorial", "probability", "equation", "matrix", "vector",
    "polynomial", "prime", "प्रायिकता", "समीकरण", "वर्गमूल",
))
_CLAUSE_WORDS = _by_script((
    " and ", " but ", " if ", " because ", " while ", " और ", " लेकिन ",
    " अगर ", " यदि ", " तो ",
))
_STEP_WORDS = _by_script((
    "first", "then", "next", "after", "finally", "total", "remain", "left",
    "each", "every", "per", "how many", "कितने", "कितना", "पहले", "फिर",
    "बाद", "कुल", "प्रत्येक",
))


class RawFeatures(NamedTuple):
    token_count: int
    sentence_count: int
    operator_count: int
    concept_count: int
    clause_count: int
    step_cue_count: int
    identifier_count: int
    literal_count: int
    topic_tier: int


def _count_words(text: str, words: tuple[tuple[str, ...], tuple[str, ...]]) -> int:
    # One non-overlapping str.count per word: "cosin" holds both cos and sin.
    return sum(map(text.count, words[0] if text.isascii() else words[1]))


def extract_features(problem: Problem) -> RawFeatures:
    text = map_devanagari_digits(problem.question)
    lowered = text.lower()
    return RawFeatures(
        token_count=len(text.split()),
        sentence_count=max(1, len(_SENTENCE_RE.findall(text))),
        operator_count=len(_OPERATOR_RE.findall(text)) + _count_words(lowered, _OPERATOR_WORDS),
        concept_count=_count_words(lowered, _CONCEPT_WORDS),
        clause_count=len(_CLAUSE_RE.findall(text)) + _count_words(lowered, _CLAUSE_WORDS),
        step_cue_count=_count_words(lowered, _STEP_WORDS),
        identifier_count=len(set(_IDENTIFIER_RE.findall(lowered))),
        literal_count=len(_NUMBER_RE.findall(text)),
        topic_tier=TOPIC_TIERS.get((problem.topic or "").lower(), 1),
    )


def _unit(value: float, base: float, span: float) -> float:
    """Saturating ramp: 0 at or below base, 1 at base+span; monotone."""
    return min(1.0, max(0.0, value - base) / span)


@dataclass(frozen=True)
class ComplexityScore:
    language_understanding: float
    mathematical_complexity: float
    reasoning_complexity: float
    num_variables: float
    conceptual_complexity: float
    total: float


def _sub_scores(raw: RawFeatures) -> tuple[float, ...]:
    """The five sub-scores, in ``CRITERIA`` order."""
    return (
        1 + 4 * (0.7 * _unit(raw.token_count, 8, 72) + 0.3 * _unit(raw.sentence_count, 1, 5)),
        1 + 4 * (0.7 * _unit(raw.operator_count, 1, 7) + 0.3 * _unit(raw.concept_count, 0, 4)),
        1 + 4 * (0.6 * _unit(raw.clause_count, 0, 6) + 0.4 * _unit(raw.step_cue_count, 0, 6)),
        1 + 4 * (0.6 * _unit(raw.identifier_count, 0, 4)
                 + 0.4 * _unit(raw.literal_count, 2, 6)),
        float(raw.topic_tier),
    )


_WEIGHTS = tuple(DEFAULT_WEIGHTS[name] for name in CRITERIA)


def _total(subs: tuple[float, ...]) -> float:
    return sum(weight * sub for weight, sub in zip(_WEIGHTS, subs)) / _WEIGHT_NORM


def score_complexity(problem: Problem) -> ComplexityScore:
    """Score a problem on the five criteria, each on a 1..5 scale.

    The total is the mean of the sub-scores under ``DEFAULT_WEIGHTS`` (equal
    weights). Degenerate text floors every scale at 1.
    """
    raw = extract_features(problem)
    subs = _sub_scores(raw)
    return ComplexityScore(*subs, total=_total(subs))


def rank_bottom_k(manifest: CorpusManifest, k: int) -> CorpusManifest:
    """Mark the k lowest-complexity problems Easy; leave the rest untouched.

    Ties break by id, so the selection is invariant under input order.
    """
    if k < 0 or k > len(manifest):
        raise PipelineError(f"k must be in 0..{len(manifest)}, got {k}")
    # The total alone, without building a ComplexityScore.
    ranked = sorted(
        manifest,
        key=lambda p: (_total(_sub_scores(extract_features(p))), p.id),
    )
    selected = {p.id for p in ranked[:k]}
    records = [
        replace(p, difficulty=Difficulty.EASY) if p.id in selected else p
        for p in manifest
    ]
    return replace_records(manifest, records)


class AnnotationOutcome(NamedTuple):
    manifest: CorpusManifest
    counts: dict[Difficulty, int]


def apply_annotations(
    manifest: CorpusManifest, annotations: Mapping[str, Difficulty]
) -> AnnotationOutcome:
    """Overwrite difficulties from an id -> difficulty map."""
    known = {p.id for p in manifest}
    unknown = sorted(set(annotations) - known)
    if unknown:
        raise PipelineError(f"annotations reference unknown ids: {', '.join(unknown)}")
    records = [
        replace(p, difficulty=annotations[p.id]) if p.id in annotations else p
        for p in manifest
    ]
    counts: dict[Difficulty, int] = {}
    for difficulty in annotations.values():
        counts[difficulty] = counts.get(difficulty, 0) + 1
    return AnnotationOutcome(replace_records(manifest, records), counts)


def read_annotations(path) -> dict[str, Difficulty]:
    """Read a line-delimited ``id<TAB>difficulty`` annotation file, one line per id."""
    annotations: dict[str, Difficulty] = {}
    for lineno, line, _ in numbered_lines(path):
        parts = line.strip().split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{path}:{lineno}: expected id<TAB>difficulty")
        problem_id, label = parts
        if problem_id in annotations:
            raise PipelineError(f"{path}:{lineno}: duplicate id {problem_id!r}")
        try:
            annotations[problem_id] = Difficulty(label)
        except ValueError:
            raise PipelineError(f"{path}:{lineno}: unknown difficulty {label!r}") from None
    return annotations
