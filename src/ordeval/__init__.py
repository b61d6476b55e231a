"""Evaluation of probabilistic ordinal classifiers.

Distance-sensitive per-sample scoring rules (ranked probability score and a
squared-absolute variant, next to Brier and log), hard-prediction metrics
(quadratic-weighted kappa, expected cost, accuracy, ECE), and the sample-
retention protocol that ties the two together: drop the worst-scored samples
and watch how fast the hard metrics improve (AURSC), with bootstrap
uncertainty. Includes seeded synthetic prediction generators, CSV/JSON/SVG
i/o, and the ``ordeval`` command-line tool.

Each public name is imported from its module when it is first used (PEP
562), so ``import ordeval.cli`` loads only the modules the command line
needs; ``from ordeval import *`` and ``dir(ordeval)`` see every name in
``__all__``.
"""

import importlib

# the public names each module defines, sorted into ``__all__``; ``errors``
# is a module itself
_EXPORTS = {
    "errors": ("errors",),
    "data": ("CostMatrix", "EvalDataset", "validate_dataset"),
    "hard": ("MetricReport", "accuracy", "confusion", "ece", "expected_cost", "metric_report",
             "qwk"),
    "retention": ("BootstrapSummary", "RetentionCurve", "bootstrap_aursc", "rank_samples",
                  "retained_count", "sample_retention_curve"),
    "io": ("read_cost_matrix", "read_predictions", "render_curve_svg", "write_predictions",
           "write_report"),
    "scoring": ("RULES", "brier", "log_score", "rps", "sa_rps"),
    "synth": ("SynthConfig", "generate"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
