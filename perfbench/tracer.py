"""Layer spans for one traced ``ordeval`` invocation.

Run as ``python3 perfbench/tracer.py SPANS_JSON -- <ordeval arguments>``.
It wraps the package's public functions at the names their callers look up
(``ordeval.retention.qwk``, ``ordeval.cli.bootstrap_aursc``, the entries of
``ordeval.scoring.RULES``, ...), runs ``ordeval.cli.main`` on the arguments,
and writes every span to SPANS_JSON when the command ends. Nothing in the
package itself is edited; a wrapped name the package no longer has is
skipped, so the layer simply reports no calls.

A span is (name, start ns, end ns, parent span index). The driver turns the
spans into per-layer self time: a span's duration minus its child spans.
"""

import functools
import inspect
import json
import os
import sys
from time import perf_counter_ns

# (module, attribute, span name): each entry patches one lookup site. The same
# function can be looked up from several modules; every site gets a wrapper
# with the same span name, so the layer counts every call exactly once.
SITES = (
    ("ordeval.cli", "main", "cli.main"),
    ("ordeval.cli", "cmd_score", "cli.cmd_score"),
    ("ordeval.cli", "cmd_evaluate", "cli.cmd_evaluate"),
    ("ordeval.cli", "cmd_rsc", "cli.cmd_rsc"),
    ("ordeval.cli", "cmd_synth", "cli.cmd_synth"),
    ("ordeval.io", "read_predictions", "io.read_predictions"),
    ("ordeval.io", "write_predictions", "io.write_predictions"),
    ("ordeval.io", "write_report", "io.write_report"),
    ("ordeval.io", "render_curve_svg", "io.render_curve_svg"),
    ("ordeval.io", "validate_dataset", "data.validate_dataset"),
    ("ordeval.synth", "validate_dataset", "data.validate_dataset"),
    ("ordeval.cli", "generate", "synth.generate"),
    ("ordeval.cli", "rank_samples", "retention.rank_samples"),
    ("ordeval.cli", "sample_retention_curve", "retention.sample_retention_curve"),
    ("ordeval.cli", "bootstrap_aursc", "retention.bootstrap_aursc"),
    ("ordeval.cli", "metric_report", "hard.metric_report"),
    ("ordeval.hard", "ece", "hard.ece"),
    ("ordeval.hard", "qwk", "hard.qwk"),
    ("ordeval.hard", "expected_cost", "hard.expected_cost"),
    ("ordeval.hard", "confusion_from_arrays", "hard.confusion_from_arrays"),
    ("ordeval.retention", "qwk", "hard.qwk"),
    ("ordeval.retention", "expected_cost", "hard.expected_cost"),
    ("ordeval.retention", "confusion_from_arrays", "hard.confusion_from_arrays"),
    ("ordeval._rng", "resample_indices", "rng.resample_indices"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []
        self._stack = []
        self.counters = {}
        self.missing = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs)`` runs
        once the span has closed, for counters that need the arguments."""
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[slot] = (index, start, end, parent)
                if after is not None:
                    after(args, kwargs)

        return traced

    def install(self):
        """Patch every lookup site, for the rest of this process."""
        import ordeval.cli  # noqa: F401  (imports every layer module)
        import ordeval.io
        from ordeval import scoring

        for module_name, attr, name in SITES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(name, original, self._after(name, original))
            setattr(sys.modules[module_name], attr, traced)

        for rule, fn in list(scoring.RULES.items()):
            scoring.RULES[rule] = self.wrap(
                "scoring.rule", fn, lambda a, k, rule=rule: self.count("rule:" + rule)
            )

        # every file write goes through io._atomic_write; count its bytes
        # without a span, so the write's time stays in its caller's self time
        write = getattr(ordeval.io, "_atomic_write", None)
        if write is None:
            self.missing.append("ordeval.io._atomic_write")
            return

        @functools.wraps(write)
        def counted(path, text, *args, **kwargs):
            data = text.encode("utf-8") if isinstance(text, str) else text
            self.count("io.bytes_written", len(data))
            return write(path, text, *args, **kwargs)

        ordeval.io._atomic_write = counted

    def _after(self, name, original):
        if name == "io.read_predictions":
            return lambda args, kwargs: self.count(
                "io.bytes_read", os.path.getsize(_argument(original, args, kwargs, "path"))
            )
        if name == "retention.bootstrap_aursc":
            return lambda args, kwargs: self.count(
                "replicates", _argument(original, args, kwargs, "num_replicates")
            )
        return None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                    "missing": self.missing,
                },
                fh,
                separators=(",", ":"),
            )


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <ordeval arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import ordeval.cli

    try:
        return ordeval.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
