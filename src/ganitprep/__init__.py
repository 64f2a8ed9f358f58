"""Bilingual (English/Hindi) math-reasoning training-data pipeline.

The package covers corpus ingestion, difficulty classification, exact
place-value decomposition of arithmetic solutions, six-phase structured
solutions and prompt templating, stratified bilingual curriculum splits,
and an answer-grading/reporting harness with a rater-agreement statistic.
"""

from ganitprep.answers import AnswerKind, AnswerValue, format_exact, map_devanagari_digits
from ganitprep.classify import (
    ComplexityScore,
    apply_annotations,
    apply_math_levels,
    map_math_level,
    rank_bottom_k,
    score_complexity,
)
from ganitprep.corpus import (
    CorpusManifest,
    Difficulty,
    Language,
    Operation,
    Problem,
    Source,
    ingest_gsm8k,
    ingest_hawp,
    ingest_indimathqa,
    ingest_math,
    load_manifest,
    save_manifest,
)
from ganitprep.curriculum import (
    CurriculumManifest,
    PairKey,
    SplitAssignment,
    TrainingMode,
    build_curriculum,
    export_stage,
    merge_sources,
    pair_bilingual,
    split,
)
from ganitprep.decompose import (
    DecompositionTrace,
    apply_decomposition,
    decompose_div,
    decompose_mul,
    render_trace,
)
from ganitprep.evaluate import (
    EvaluationReport,
    GradeRecord,
    KappaInput,
    Verdict,
    accuracy_report,
    extract_answer,
    fleiss_kappa,
    grade,
)
from ganitprep.structure import (
    PromptName,
    PromptTemplate,
    StructuredSolution,
    emit_training_config,
    get_template,
    parse_structured,
    render_prompt,
    render_structured,
)

__version__ = "0.1.0"
