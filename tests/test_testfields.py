"""The cut-off test fields: exact Jacobians, admissibility, support.

Each property draws a center in [0.3, 0.7]^2, cut-off radii and (for the
translations) a direction, and checks one of the four library fields on a
random cloud with the center and both cut-off radii in it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from wmcflab.grid import Grid
from wmcflab.testfields import (dilation_field, rotation_field,
                                translation_bump, translation_field)
from wmcflab.wells import point_norm

from fieldcheck import check_admissible

KINDS = ("dilation", "rotation", "translation", "bump")
MIN_WIDTH = 0.05    # least r_outer - r_inner, least r_inner, least bump/2

# Central differences with step H (taken as the representable x+ - x-):
# the error is at most H^2 M3 / 6 for M3 a bound on the third derivatives of
# psi, plus the rounding of the two psi values, about 4 eps |psi| / (2 H).
# Along a line, phi(rho(s)) has third derivative at most
# |phi'''| + 3 |phi''| / rho + 3 |phi'| / rho^2 (|rho'| <= 1, |rho''| <= 1 /
# rho, |rho'''| <= 3 / rho^2), and psi = phi w adds 3 (phi o rho)'' |L|.
# The quintic cut-off of width W has |phi'| <= 1.875 / W, |phi''| <=
# 5.78 / W^2 and |phi'''| <= 60 / W^3, nonzero only where rho >= r_inner;
# the bump of radius R has third derivatives at most 120 / R^3, under the
# cut-off's at W = R / 2. With W = rho = MIN_WIDTH and |w| <= sqrt(2)
# (|e| <= sqrt(2); |L (x - c)| = rho <= 0.25 on the band) M3 <= 9.5e5, so
# the error is below 1.6e-7 + 1e-9.
H = 1e-6
_W = MIN_WIDTH
_M3 = (np.sqrt(2.0) * (60 / _W ** 3 + 3 * 5.78 / _W ** 3 + 3 * 1.875 / _W ** 3)
       + 3 * (5.78 / _W ** 2 + 1.875 / _W ** 2))
FD_BOUND = H ** 2 * _M3 / 6 + 4 * np.finfo(float).eps * np.sqrt(2.0) / (2 * H)


@hst.composite
def fields(draw):
    """(field, center, inner cut-off radius or None for the bump, outer
    support radius), with the support inside [0.05, 0.95]^2."""
    kind = draw(hst.sampled_from(KINDS))
    center = np.array([draw(hst.floats(0.3, 0.7)), draw(hst.floats(0.3, 0.7))])
    r_inner = draw(hst.floats(MIN_WIDTH, 0.15))
    r_outer = r_inner + draw(hst.floats(MIN_WIDTH, 0.1))
    direction = (draw(hst.floats(-1.0, 1.0)), draw(hst.floats(-1.0, 1.0)))
    if kind == "dilation":
        psi = dilation_field(center, r_inner, r_outer)
    elif kind == "rotation":
        psi = rotation_field(center, r_inner, r_outer)
    elif kind == "translation":
        psi = translation_field(direction, center, r_inner, r_outer)
    else:
        r_inner, r_outer = None, 2 * MIN_WIDTH + draw(hst.floats(0.0, 0.15))
        psi = translation_bump(direction, center, r_outer)
    return psi, center, r_inner, r_outer


def cloud(seed, center, r_inner, r_outer):
    """Uniform points of the unit box, the center, and points on both
    cut-off radii along the axes and a diagonal."""
    rng = np.random.default_rng(seed)
    units = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    radii = [r for r in (r_inner, r_outer) if r is not None]
    rings = [center + r * units for r in radii]
    return np.concatenate([rng.uniform(0.0, 1.0, (2000, 2)), center[None]]
                          + rings)


@settings(max_examples=60, deadline=None)
@given(fields(), hst.integers(0, 2 ** 32 - 1))
def test_jacobian_is_the_derivative_of_psi(drawn, seed):
    psi, center, r_inner, r_outer = drawn
    x = cloud(seed, center, r_inner, r_outer)
    fd = np.empty(x.shape + (2,))
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += H
        xm[:, j] -= H
        fd[..., j] = ((psi.psi(xp) - psi.psi(xm))
                      / (xp[:, j] - xm[:, j])[:, None])
    assert np.max(np.abs(psi.jac(x) - fd)) <= FD_BOUND


@settings(max_examples=60, deadline=None)
@given(fields())
def test_admissible_on_the_unit_box(drawn):
    psi = drawn[0]
    g = Grid.box((0, 0), (1, 1), (64, 64))
    assert check_admissible(psi, g) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(fields(), hst.integers(0, 2 ** 32 - 1))
def test_zero_at_and_beyond_the_outer_radius(drawn, seed):
    psi, center, _, r_outer = drawn
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2 * np.pi, 500)
    radius = r_outer * np.concatenate([np.ones(100),
                                       1.0 + rng.uniform(0.0, 2.0, 400)])
    x = center + radius[:, None] * np.stack([np.cos(angle),
                                             np.sin(angle)], axis=-1)
    vals, jac = psi.psi(x), psi.jac(x)
    beyond = point_norm(x - center) >= r_outer
    assert np.count_nonzero(beyond) >= 400
    assert np.all(vals[beyond] == 0.0) and np.all(jac[beyond] == 0.0)
    # on the radius itself (rho rounded just inside) psi is below roundoff
    assert np.max(np.abs(vals)) <= 1e-12 and np.max(np.abs(jac)) <= 1e-12
