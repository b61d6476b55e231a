"""The retained-samples protocol: which rule finds the damaging mistakes?

Sort a test set by a per-sample rule, drop the worst-scored fraction, and
watch QWK on the remainder. A rule that understands ordinal damage pushes
the curve up faster; the area under the curve (AURSC, here a plain sum over
the 20-point retention grid) condenses the sweep, and a seeded bootstrap
puts uncertainty on it. Writes curve CSVs and a combined SVG chart to
demos/output/.
"""

from pathlib import Path

from ordeval import (
    SynthConfig,
    bootstrap_aursc,
    generate,
    rank_samples,
    render_curve_svg,
    sample_retention_curve,
    write_report,
)

OUT = Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)

RULES = ("brier", "log", "rps", "sa_rps")

# A synthetic 5-grade test set with realistic failure modes: most errors
# land near the truth, but a quarter of the samples trade much of their
# mass to one lookalike class that can sit far away.
ds = generate(SynthConfig(n=2000, k=5, noise=1.2, miscal=1.5, seed=7))

# --- 1. Per-sample error analysis ------------------------------------------
#
# The worst sample under each rule. Brier/log tend to surface confidently
# wrong predictions regardless of where the mass went; the cumulative rules
# surface order violations.
for rule in RULES:
    order, scores = rank_samples(ds, rule)
    i = order[0]
    probs = ", ".join(f"{p:.2f}" for p in ds.probs[i])
    print(
        f"worst by {rule:<7} id={ds.ids[i]} label={ds.labels[i]} "
        f"argmax={ds.probs[i].argmax()} score={scores[i]:.4f} probs=[{probs}]"
    )

# --- 2. Retention curves and bootstrapped AURSC -----------------------------
curves = []
print(f"\n{'rule':<8} {'aursc':>9}  bootstrap mean +/- std (R=50)")
for rule in RULES:
    curve = sample_retention_curve(ds, rule, "qwk")
    boot = bootstrap_aursc(ds, rule, "qwk")
    curves.append(curve)
    write_report(curve, str(OUT / f"retention_{rule}.csv"), fmt="csv")
    print(f"{rule:<8} {curve.aursc:>9.4f}  {boot.mean:.4f} +/- {boot.std:.4f}")

# --- 3. One picture ----------------------------------------------------------
render_curve_svg(curves, str(OUT / "retention_qwk.svg"))
print(f"\nwrote {OUT / 'retention_qwk.svg'} (one polyline per rule)")

# The same sweep against expected cost (lower is better) tells the same
# story from the other side.
print(f"\n{'rule':<8}  AURSC-ec mean +/- std")
for rule in RULES:
    boot = bootstrap_aursc(ds, rule, "ec")
    print(f"{rule:<8}  {boot.mean:.4f} +/- {boot.std:.4f}")
