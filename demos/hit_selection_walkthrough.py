"""
Hit selection on a two-plate synthetic screen
=============================================

Builds two replicate plates (controls plus a handful of planted hits in a
long-tailed sample population), writes them through the CSV schema, and
compares the four threshold rules: the overlap density-crossing rule, the
classic 3-sigma rule, the per-well SSMD rule, and the logistic-regression
reference boundary. The logistic fit on plate 1 is then scored on the
replicate plate 2.
"""

import io

import numpy as np

from assayqc import (
    ThresholdRule,
    evaluate_threshold,
    fit_logistic_1d,
    load_plate_csv,
    select_hits,
)


def plate_rows(pid, rng):
    neg = np.concatenate([rng.normal(0, 1, 150), rng.exponential(2.5, 50)])
    pos = rng.normal(12, 1, 200)
    samples = np.concatenate([
        rng.normal(0, 1, 100),          # inactive wells
        rng.exponential(2.5, 40),       # long-tailed inactives
        rng.normal(12, 1, 12),          # planted hits
    ])
    rows = [f"{pid},{r},1,neg,{v}" for r, v in enumerate(neg, 1)]
    rows += [f"{pid},{r},2,pos,{v}" for r, v in enumerate(pos, 1)]
    rows += [f"{pid},{r},3,sample,{v}" for r, v in enumerate(samples, 1)]
    return rows


rng = np.random.default_rng(0)
csv_text = "plate_id,row,col,role,value\n" + "\n".join(
    plate_rows("plate1", rng) + plate_rows("plate2", rng)
) + "\n"
plate1, plate2 = load_plate_csv(io.StringIO(csv_text))

reports = {rule.kind.value: select_hits(plate1, rule)
           for rule in (ThresholdRule.gssmd(), ThresholdRule.sigma(), ThresholdRule.ssmd(),
                        ThresholdRule.logistic())}
quality = reports["gssmd"].assay_quality  # every rule's report holds the same one
print(f"plate1 assay quality: Z'={quality.z_factor:.2f} SSMD={quality.ssmd:.2f} "
      f"GSSMD={quality.gssmd:.3f} accepted={quality.accepted}")

print(f"\n{'rule':>10} {'threshold':>10} {'hits':>5}   (12 planted)")
for kind, report in reports.items():
    print(f"{kind:>10} {report.threshold:10.3f} {report.n_hits:5d}")

neg1, pos1 = plate1.control_sets()
neg2, pos2 = plate2.control_sets()
model = fit_logistic_1d(neg1, pos1)
direction = reports["logistic"].direction
result = evaluate_threshold(neg2, pos2, model.boundary, direction)
print(f"\nlogistic boundary from plate1: {model.boundary:.3f} "
      f"(converged={model.converged}, {model.iterations} iterations)")
print(f"scored on plate2 controls: accuracy={result.accuracy:.3f}, "
      f"type I error={result.type1_error:.3f}")

print("""
The overlap rule and the logistic boundary land in the same place: both
approximate the point where a well becomes more plausibly positive than
negative. The 3-sigma rule cuts inside the negative control's long tail
and flags extra inactive wells; the per-well SSMD rule is stricter than
sigma here but still blind to the tail shape.
""")
