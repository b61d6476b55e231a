"""Evaluation of probabilistic ordinal classifiers.

Distance-sensitive per-sample scoring rules (ranked probability score and a
squared-absolute variant, next to Brier and log), hard-prediction metrics
(quadratic-weighted kappa, expected cost, accuracy, ECE), and the sample-
retention protocol that ties the two together: drop the worst-scored samples
and watch how fast the hard metrics improve (AURSC), with bootstrap
uncertainty. Includes seeded synthetic prediction generators, CSV/JSON/SVG
i/o, and the ``ordeval`` command-line tool.
"""

from . import errors
from .data import (
    CostMatrix,
    EvalDataset,
    validate_dataset,
)
from .hard import (
    MetricReport,
    accuracy,
    confusion,
    ece,
    expected_cost,
    metric_report,
    qwk,
)
from .retention import (
    BootstrapSummary,
    RetentionCurve,
    bootstrap_aursc,
    rank_samples,
    retained_count,
    sample_retention_curve,
)
from .io import (
    read_cost_matrix,
    read_predictions,
    render_curve_svg,
    write_predictions,
    write_report,
)
from .scoring import (
    RULES,
    brier,
    log_score,
    rps,
    sa_rps,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BootstrapSummary",
    "CostMatrix",
    "EvalDataset",
    "MetricReport",
    "RULES",
    "RetentionCurve",
    "SynthConfig",
    "accuracy",
    "bootstrap_aursc",
    "brier",
    "confusion",
    "ece",
    "errors",
    "expected_cost",
    "generate",
    "log_score",
    "metric_report",
    "qwk",
    "rank_samples",
    "read_cost_matrix",
    "read_predictions",
    "render_curve_svg",
    "retained_count",
    "rps",
    "sa_rps",
    "sample_retention_curve",
    "validate_dataset",
    "write_predictions",
    "write_report",
]
