"""Test vector fields and checks that only the tests use.

``zero_field`` pairs to zero with every interface, diffuse or sharp;
``check_admissible`` measures how far a field is from admissible on a
grid (Psi . n = 0 on the boundary of the domain).
"""

import numpy as np

from wmcflab.testfields import TestVectorField


def zero_field(dim: int) -> TestVectorField:
    return TestVectorField(
        psi=lambda x: np.zeros(np.shape(x)),
        jac=lambda x: np.zeros(np.shape(x) + (dim,)),
    )


def check_admissible(psi: TestVectorField, grid) -> float:
    """Max |psi . n_Omega| over boundary cell centers of the grid."""
    worst = 0.0
    pts = grid.points()
    for axis in range(grid.dim):
        for side in (0, -1):
            sl = [slice(None)] * grid.dim
            sl[axis] = side
            vals = psi.psi(pts[tuple(sl)])
            worst = max(worst, float(np.max(np.abs(vals[..., axis]))))
    return worst
