"""Equipartition of energy along a diffuse-width sweep.

Recovery states over a disk, built for a well with moving branches, carry
a nonzero equipartition defect; the defect integral and the gaps between
the three localized energy densities all shrink as eps halves (the defect
by about 1.5 times per halving here, an observed order near 0.6). Each
state is read once (W and |grad u|, by ``build_recovery``) and the
defect and the pairings are formed from that reading. Uses a 256^2 grid
so it runs in seconds (the acceptance suite drives 512^2).

Run:  python demos/equipartition_sweep.py
"""

import numpy as np

from wmcflab import sharp, variations as var, wells
from wmcflab.grid import Field, Grid

grid = Grid.box((0.0, 0.0), (1.0, 1.0), (256, 256))
spec = wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0,
                                  bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
disk = sharp.Sphere((0.5, 0.5), 0.3)
one = Field.constant(grid, 1.0)

print("disk recovery states, moving wells a = 0.6 x, b = 1")
print(f"{'eps':>6} {'defect':>12} {'E_eps':>10} {'E_sharp':>10} "
      f"{'|pot-grad|':>12} {'|pot-geo|':>12} {'|grad-geo|':>12}")
for eps in (0.08, 0.04, 0.02):
    rec = var.build_recovery(disk, spec, grid, eps)
    defect = var.equipartition_defect(rec.reading)
    [(pot, gra, geo)] = var.measure_pairing(rec.reading, [one])
    print(f"{eps:6.3f} {defect:12.3e} {rec.energy_diffuse:10.6f} "
          f"{rec.energy_sharp:10.6f} {abs(pot - gra):12.3e} "
          f"{abs(pot - geo):12.3e} {abs(gra - geo):12.3e}")

print("\nall three densities pair toward the weighted perimeter; their")
print("pairwise gaps are controlled by sqrt(defect * 4 E) (Cauchy-Schwarz).")
