"""Gibbs-Thomson relation from mass-constrained minimizers.

Criterion 04 (``experiments.run_gibbs_thomson``) on 128^2, eps = 0.08 and
0.04: minimizing the diffuse energy at fixed mean around a disk of the
upper phase (R = 0.25, constant sigma) gives a Lagrange multiplier that
converges to -sigma H / gamma = -sigma / R as eps shrinks; the stationarity
residual certifies the first-order conditions. Exits 1 on a FAIL.

Run:  python demos/gibbs_thomson.py
"""

from wmcflab.experiments import run_gibbs_thomson

res = run_gibbs_thomson(grid_n=128, eps_list=(0.08, 0.04))
print("{:>6} {:>12} {:>10} {:>10} {:>13} {:>10}".format(*res.csv_header))
for row in res.csv_rows:
    print("{:6.3f} {:12.6f} {:10.4f} {:10.2e} {:13.4f} {:10d}".format(*row))
print(*res.summary_lines(), sep="\n")
print("\nthe multiplier is negative (a convex upper-phase droplet is under")
print("curvature pressure) and approaches -sigma/R linearly in eps.")
raise SystemExit(0 if res.passed else 1)
