"""Convergence of the diffuse first variation to the sharp pairing.

Criterion 03 (``experiments.run_first_variation``) on 256^2, eps = 0.08
and 0.04: the diffuse pairing of the energy gradient with a test vector
field converges, as the interface width vanishes, to

    -int sigma (Id - n x n):grad Psi dH  -  int grad sigma . Psi dH

over the sharp circle of radius 0.3: a dilation field with constant sigma
gives -2 pi R sigma, a localized translation field against an x-graded
sigma the grad-sigma term alone. Both assembly routes of one diffuse
value follow. Exits 1 if a check fails.

Run:  python demos/first_variation.py
"""

from wmcflab import sharp, testfields as tf, variations as var, wells
from wmcflab.experiments import run_first_variation
from wmcflab.grid import Grid

res = run_first_variation(grid_n=256, eps_list=(0.08, 0.04))
print("{:<13} {:>5} {:>9} {:>11} {:>8} {:>8} {:>8} {:>12}".format(
    *res.csv_header))
for row in res.csv_rows:
    print("{:<13} {:5.3f} {:+9.6f} {:+11.8f} {:8.2e} {:8.2e} {:8.6f} "
          "{:12.6f}".format(*row))
print(*res.summary_lines(), sep="\n")

print("\ntwo assembly routes of the diffuse value (direct vs reassembled):")
spec_h = wells.affine_scaled_quartic(offset=1.0, slope=1.0)
rec = var.build_recovery(sharp.Sphere((0.5, 0.5), 0.3), spec_h,
                         Grid.box((0.0, 0.0), (1.0, 1.0), (256, 256)), 0.04)
fv = var.diffuse_first_variation(rec.state, spec_h,
                                 tf.dilation_field((0.5, 0.5), 0.38, 0.47))
print(f"  direct      {fv.value:+.8f}")
print(f"  reassembled {fv.reassembled:+.8f}")
print(f"  gap         {fv.gap:.2e}")
raise SystemExit(0 if res.passed else 1)
