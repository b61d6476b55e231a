import inspect

import ordeval
from ordeval import _rng, retention

PUBLIC = (
    "BootstrapSummary", "CostMatrix", "EvalDataset", "MetricReport", "RULES",
    "RetentionCurve", "SynthConfig", "accuracy", "bootstrap_aursc", "brier",
    "confusion", "ece", "errors", "expected_cost", "generate",
    "log_score", "metric_report", "qwk", "rank_samples", "read_cost_matrix",
    "read_predictions", "render_curve_svg", "retained_count", "rps", "sa_rps",
    "sample_retention_curve", "validate_dataset", "write_predictions",
    "write_report",
)


def test_public_surface():
    assert sorted(ordeval.__all__) == sorted(PUBLIC) and len(PUBLIC) == 29
    for name in PUBLIC:
        assert getattr(ordeval, name) is not None
    # the bootstrap runs in the calling thread: no thread count is taken
    for fn in (retention.retention_analysis, retention.bootstrap_aursc):
        assert "threads" not in inspect.signature(fn).parameters
    assert list(inspect.signature(retention.check_bootstrap).parameters) == [
        "num_replicates"
    ]
    assert not hasattr(retention, "MAX_THREADS")
    assert not hasattr(_rng, "resample_indices")
