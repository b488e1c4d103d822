"""Test vector fields, wells and checks that only the tests use.

``zero_field`` pairs to zero with every interface, diffuse or sharp;
``check_admissible`` measures how far a field is from admissible on a
grid (Psi . n = 0 on the boundary of the domain). ``quartic`` and
``along_axis`` build the wells the library's factories do not: constant
wells other than 0 and 1 with a constant amplitude other than 1, and
wells that vary along x_1.
"""

import numpy as np

from wmcflab import wells
from wmcflab.testfields import TestVectorField


def quartic(a0: float, b0: float, m: float) -> wells.WellSpec:
    """The quartic with constant wells a0, b0 and constant amplitude m:
    the wells of ``linear_wells_quartic(a0, 0.0, b0, 0.0)`` and the
    amplitude of ``affine_scaled_quartic(m, 0.0)``, so the coefficients
    have the bits of the factories' constant form c * 1."""
    moved = wells.linear_wells_quartic(a0, 0.0, b0, 0.0)
    scaled = wells.affine_scaled_quartic(m, 0.0)
    return wells.canonical_quartic(moved.a, moved.grad_a, moved.b,
                                   moved.grad_b, scaled.amplitude,
                                   scaled.grad_amplitude)


def along_axis(spec: wells.WellSpec, axis: int) -> wells.WellSpec:
    """A well of 2-d positions that varies along x_0, turned to vary along
    x_axis: for axis 1 each coefficient reads the position with x_0 and
    x_1 exchanged, and each gradient is exchanged back, so the values
    have the bits of the same formula written with x[..., 1]."""
    if axis == 0:
        return spec

    def turned(f):
        return lambda x: f(np.asarray(x)[..., ::-1])

    def turned_grad(f):
        return lambda x: f(np.asarray(x)[..., ::-1])[..., ::-1]

    return wells.canonical_quartic(
        turned(spec.a), turned_grad(spec.grad_a), turned(spec.b),
        turned_grad(spec.grad_b), turned(spec.amplitude),
        turned_grad(spec.grad_amplitude))


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
