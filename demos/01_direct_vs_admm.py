"""Build a random saddle-point problem and solve it three ways.

Walks through the basic objects: the problem container, the assembled KKT
matrix, the dense direct solve used as the reference oracle, and the ADMM
sweep at a few penalty values including the balanced choice sqrt(m*ell).
"""

import math

import numpy as np

from admmgmres import (
    admm_solve,
    assemble_kkt,
    direct_solve,
    dtilde_extremes,
    kkt_residual,
    make_engine,
    random_problem,
)
from admmgmres.randgen import GenSpec

problem = random_problem(GenSpec(nx=30, ny=20, nz=8, s=0.6, seed=7))
M = assemble_kkt(problem)
print(f"problem: nx={problem.nx} ny={problem.ny} nz={problem.nz} "
      f"(stacked dimension {problem.dim})")
print(f"KKT matrix symmetric: {np.array_equal(M, M.T)}")

star = direct_solve(problem)
print(f"direct solve residual: {kkt_residual(problem, star):.3e} "
      f"(rhs norm {np.linalg.norm(problem.rhs()):.3e})")

m, ell, kappa = dtilde_extremes(problem)
balanced = math.sqrt(m * ell)
print(f"\nrescaled-matrix extremes: m={m:.4f} ell={ell:.4f} kappa={kappa:.1f}")
print(f"balanced penalty sqrt(m*ell) = {balanced:.4f}\n")

print(f"{'beta':>10}  {'iterations':>10}  {'converged':>9}")
for beta in (0.05 * balanced, balanced, 20.0 * balanced):
    trace = admm_solve(make_engine(problem, beta), epsilon=1e-6, max_iter=200_000)
    print(f"{beta:10.4f}  {trace.iterations:10d}  {str(trace.converged):>9}")

print("\nThe balanced penalty is fastest; badly scaled penalties still")
print("converge, just slowly. The next demo accelerates them with GMRES.")
