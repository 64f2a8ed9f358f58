"""Bilingual (English/Hindi) math-reasoning training-data pipeline.

The package covers corpus ingestion, difficulty classification, exact
place-value decomposition of arithmetic solutions, six-phase structured
solutions and prompt templating, stratified bilingual curriculum splits,
and an answer-grading/reporting harness with a rater-agreement statistic.
"""

__version__ = "0.1.0"
