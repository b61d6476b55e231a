"""File formats and the command-line surface.

Everything the library does is reachable from the ``ordeval`` executable;
this script drives the same entry point in-process. Artifacts land in
demos/output/. The script runs from inside that directory and passes
relative paths, so the configuration echoed into the JSON reports does not
depend on where the repository is checked out.
"""

import json
import os
from pathlib import Path

from ordeval import read_predictions
from ordeval.cli import main

OUT = Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)
os.chdir(OUT)

data = Path("synthetic.csv")

# --- 1. Generate a prediction file -----------------------------------------
#
# The interchange format is a plain CSV: id,label,p0,...,p{K-1}. Any
# framework that can dump its softmax outputs to text can feed this tool.
main(["synth", "--n", "500", "--k", "5", "--noise", "1.2", "--miscal", "1.5",
      "--seed", "11", "--output", str(data)])
print("prediction file header + first row:")
print("\n".join(data.read_text().splitlines()[:2]))

# Reading it back gives a validated dataset (probabilities renormalized,
# labels checked, ids unique).
ds = read_predictions(str(data))
print(f"\nparsed {len(ds)} samples over {ds.num_classes} classes")

# --- 2. Worst samples under a rule ------------------------------------------
main(["score", "--input", str(data), "--rule", "rps",
      "--output", "worst_by_rps.csv"])

# --- 3. Dataset-level report --------------------------------------------------
main(["evaluate", "--input", str(data), "--cost", "quadratic",
      "--output", "report.json"])
report = json.loads(Path("report.json").read_text())
print(f"\nevaluate: qwk={report['qwk']:.3f} ec={report['expected_cost']:.3f} "
      f"ece={report['ece']:.3f} mean rps={report['mean_scores']['rps']:.4f}")

# --- 4. The full retention pipeline ------------------------------------------
#
# One command produces, per rule: a curve CSV and a bootstrap JSON, plus a
# combined SVG and the summary table below. Fixed seed means byte-identical
# outputs on every run, regardless of --threads.
main(["rsc", "--input", str(data), "--metric", "qwk", "--bootstrap", "50",
      "--seed", "42", "--output-prefix", "rsc"])
print("\nrsc outputs:", sorted(p.name for p in Path().glob("rsc_*")))
