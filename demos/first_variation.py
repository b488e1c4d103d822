"""Convergence of the diffuse first variation to the sharp pairing.

The diffuse pairing of the energy gradient with a test vector field
converges, as the interface width vanishes, to

    -int sigma (Id - n x n):grad Psi dH  -  int grad sigma . Psi dH

over the sharp interface. A dilation field against a disk with constant
sigma gives the closed-form value -2 pi R sigma; a localized translation
field against an x-graded sigma isolates the grad-sigma term. The same
machinery reports both assembly routes of the diffuse value.

Run:  python demos/first_variation.py
"""

import numpy as np

from wmcflab import sharp, variations as var, wells
from wmcflab.grid import Grid
from wmcflab.testfields import dilation_field, translation_field

grid = Grid.box((0.0, 0.0), (1.0, 1.0), (256, 256))
disk = sharp.Sphere((0.5, 0.5), 0.3)

print("homogeneous: constant sigma, dilation field")
spec = wells.constant_quartic()
dil = dilation_field((0.5, 0.5), 0.38, 0.47)
rows = var.first_variation_convergence((0.08, 0.04), disk, spec, dil, grid)
target = -2 * np.pi * 0.3 * np.sqrt(2) / 6
print(f"  sharp value {rows[0].sharp:+.8f}  (closed form {target:+.8f})")
for r in rows:
    print(f"  eps = {r.eps:5.3f}: diffuse = {r.diffuse:+.6f}  "
          f"gap = {r.gap:.2e}")

print("\nheterogeneous: sigma = sqrt(1 + x) sqrt(2)/6, translation field")
spec_h = wells.affine_scaled_quartic(offset=1.0, slope=1.0)
trans = translation_field((1.0, 0.0), (0.5, 0.5), 0.38, 0.47)
rows = var.first_variation_convergence((0.08, 0.04), disk, spec_h, trans,
                                       grid)
print(f"  sharp value {rows[0].sharp:+.8f}  (pure grad-sigma pairing)")
for r in rows:
    print(f"  eps = {r.eps:5.3f}: diffuse = {r.diffuse:+.6f}  "
          f"gap = {r.gap:.2e}")

print("\ntwo assembly routes of the diffuse value (direct vs reassembled):")
rec = var.build_recovery(disk, spec_h, grid, 0.04)
fv = var.diffuse_first_variation(rec.state, spec_h, dil)
print(f"  direct      {fv.value:+.8f}")
print(f"  reassembled {fv.reassembled:+.8f}")
print(f"  gap         {fv.gap:.2e}")
