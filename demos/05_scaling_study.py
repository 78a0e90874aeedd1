"""Desk-scale scaling study: iteration growth against the condition number.

Generates a batch of random problems, runs plain ADMM at the balanced
penalty and right-preconditioned GMRES at a random penalty on each, and
compares against the square-root reference 17*sqrt(kappa).  Balanced-split
problems (nz well inside ny) converge strictly faster than the norm rate,
so the square-root growth is an upper envelope; the exponent is therefore
fitted with an upper-quantile regression.

The published-scale profile is the same command with
--count 1000 --dim-max 1000 (about 8 minutes, not part of the test suite).
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np

from admmgmres.cli import fit_scaling_exponent, main

out = Path(tempfile.mkdtemp()) / "scaling.csv"
main(["scaling", "--count", "120", "--dim-max", "40", "--seed", "2026",
      "-o", str(out)])

rows = list(csv.DictReader(open(out, encoding="utf-8")))
ok = [r for r in rows if r["status"] == "ok" and float(r["kappa"]) <= 1e4]
gm = [r for r in ok if r["method"] == "admm-gmres-right"]
ad = [r for r in ok if r["method"] == "admm" and r["converged"] == "true"
      and float(r["kappa"]) > 1.0]

under = [int(r["iterations"]) <= math.ceil(17 * math.sqrt(float(r["kappa"]))) + 10
         for r in gm]
print(f"runs with kappa <= 1e4: {len(gm)} per method")
print(f"GMRES at random penalties under ceil(17*sqrt(kappa)) + 10: "
      f"{sum(under)}/{len(under)}")

slope = fit_scaling_exponent([float(r["kappa"]) for r in ad],
                             [int(r["iterations"]) for r in ad], quantile=0.9)
mean_fit = np.polyfit(np.log([float(r["kappa"]) for r in ad]),
                      np.log([int(r["iterations"]) for r in ad]), 1)[0]
print(f"ADMM envelope exponent (0.9-quantile fit): {slope:.3f}")
print(f"ADMM mean-regression exponent, for contrast: {mean_fit:.3f}")
print("(the mean fit sits lower because balanced-split problems beat the norm rate)")

print("\nsample rows, decades apart in kappa:")
gm_sorted = sorted(gm, key=lambda r: float(r["kappa"]))
for r in gm_sorted[:: max(1, len(gm_sorted) // 6)]:
    print(f"  kappa={float(r['kappa']):10.2f}  gmres iters={int(r['iterations']):4d}  "
          f"17*sqrt(kappa)={float(r['seventeen_sqrt_kappa']):8.1f}")
print(f"\nfull CSV written to {out}")
