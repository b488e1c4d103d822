"""Equipartition of energy along a diffuse-width sweep.

Criterion 02 (``experiments.run_equipartition``) on 256^2, eps = 0.08,
0.04 and 0.02 (the acceptance suite drives 512^2 down to 0.01): disk
recovery states for moving wells (a = 0.6 x, b = 1) carry an
equipartition defect that, like the gaps between the three localized
densities paired with each tester (one, bump, tilt), shrinks as eps
halves, by about 1.5 times here. One column per eps; exits 1 on a FAIL.

Run:  python demos/equipartition_sweep.py
"""

from wmcflab.experiments import run_equipartition

res = run_equipartition(grid_n=256, eps_list=(0.08, 0.04, 0.02))
print(f"{'eps':<29}" + "".join(f"{r[0]:10.3f}" for r in res.csv_rows))
for j, name in enumerate(res.csv_header[1:], 1):
    print(f"{name:<29}" + "".join(f"{r[j]:10.3e}" for r in res.csv_rows))
print(*res.summary_lines(), sep="\n")
print("\nall three densities pair toward the weighted perimeter; their")
print("pairwise gaps are controlled by sqrt(defect * 4 E) (Cauchy-Schwarz).")
raise SystemExit(0 if res.passed else 1)
