"""Analytic C^1 test vector fields with hand-coded Jacobians.

The first-variation and motion-law pairings need fields that vanish near
the domain boundary (admissibility Psi . n = 0) and whose Jacobians are
exact; building them from a small analytic library removes discrete
differentiation from the error budget. Jacobians use the convention
jac[..., i, j] = d psi_i / d x_j.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wells import point_norm


@dataclass(frozen=True)
class TestVectorField:
    psi: Callable[[np.ndarray], np.ndarray]     # (..., d) -> (..., d)
    jac: Callable[[np.ndarray], np.ndarray]     # (..., d) -> (..., d, d)


def zero_field(dim: int) -> TestVectorField:
    return TestVectorField(
        psi=lambda x: np.zeros(np.shape(x)),
        jac=lambda x: np.zeros(np.shape(x) + (dim,)),
    )


def _smoothstep(t):
    """C^2 monotone 0 -> 1 on [0, 1] (quintic; zero end slopes/curvature)."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (6.0 * t ** 2 - 15.0 * t + 10.0)


def _smoothstep_deriv(t):
    tc = np.clip(t, 0.0, 1.0)
    return np.where((t > 0) & (t < 1), 30.0 * tc ** 2 * (1.0 - tc) ** 2, 0.0)


def _radial_cutoff(center, r_inner, r_outer):
    """phi(rho) = 1 on rho <= r_inner, 0 on rho >= r_outer, C^2 between."""
    c = np.asarray(center, dtype=float)
    width = r_outer - r_inner
    if width <= 0:
        raise ValueError("r_outer must exceed r_inner")

    def phi(x):
        rho = point_norm(np.asarray(x, float) - c)
        return 1.0 - _smoothstep((rho - r_inner) / width)

    def dphi(x):
        rho = point_norm(np.asarray(x, float) - c)
        return -_smoothstep_deriv((rho - r_inner) / width) / width

    return c, phi, dphi


def dilation_field(center, r_inner: float, r_outer: float) -> TestVectorField:
    """psi = (x - c) inside r_inner, cut off smoothly before r_outer.

    On the plateau the Jacobian is the identity, so the sharp pairing of a
    circle of radius R < r_inner with constant sigma is -(N-1) 2 pi R sigma.
    """
    c, phi, dphi = _radial_cutoff(center, r_inner, r_outer)

    def psi(x):
        x = np.asarray(x, dtype=float)
        return phi(x)[..., None] * (x - c)

    def jac(x):
        x = np.asarray(x, dtype=float)
        dx = x - c
        rho = np.maximum(point_norm(dx), 1e-300)
        eye = np.eye(x.shape[-1])
        outer = dx[..., :, None] * dx[..., None, :]
        return phi(x)[..., None, None] * eye \
            + (dphi(x) / rho)[..., None, None] * outer

    return TestVectorField(psi=psi, jac=jac)


def rotation_field(center, r_inner: float, r_outer: float) -> TestVectorField:
    """Rigid rotation about the center, cut off radially (2-d).

    Divergence-free with antisymmetric Jacobian on the plateau; pairs to
    zero with any circle about the same center (rotation invariance).
    """
    c, phi, dphi = _radial_cutoff(center, r_inner, r_outer)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])

    def psi(x):
        x = np.asarray(x, dtype=float)
        return phi(x)[..., None] * (x - c) @ J.T

    def jac(x):
        x = np.asarray(x, dtype=float)
        dx = x - c
        rho = np.maximum(point_norm(dx), 1e-300)
        rot = dx @ J.T
        outer = rot[..., :, None] * dx[..., None, :]
        return phi(x)[..., None, None] * J \
            + (dphi(x) / rho)[..., None, None] * outer

    return TestVectorField(psi=psi, jac=jac)


def translation_field(direction, center, r_inner: float,
                      r_outer: float) -> TestVectorField:
    """Constant vector on a disk around ``center``, cut off before r_outer."""
    e = np.asarray(direction, dtype=float)
    c, phi, dphi = _radial_cutoff(center, r_inner, r_outer)

    def psi(x):
        return phi(x)[..., None] * e

    def jac(x):
        x = np.asarray(x, dtype=float)
        dx = x - c
        rho = np.maximum(point_norm(dx), 1e-300)
        grad_phi = (dphi(x) / rho)[..., None] * dx
        return e[..., :, None] * grad_phi[..., None, :]

    return TestVectorField(psi=psi, jac=jac)


def translation_bump(direction, center, radius: float) -> TestVectorField:
    """Bump-localized translation: psi = e (1 - (rho/radius)^2)^3 inside."""
    e = np.asarray(direction, dtype=float)
    c = np.asarray(center, dtype=float)

    def bump(rho):
        t = rho / radius
        return np.where(t < 1.0, (1.0 - np.minimum(t, 1.0) ** 2) ** 3, 0.0)

    def dbump(rho):
        t = rho / radius
        tc = np.minimum(t, 1.0)
        return np.where(t < 1.0,
                        -6.0 * tc * (1.0 - tc ** 2) ** 2 / radius, 0.0)

    def psi(x):
        rho = point_norm(np.asarray(x, float) - c)
        return bump(rho)[..., None] * e

    def jac(x):
        x = np.asarray(x, dtype=float)
        dx = x - c
        r = point_norm(dx)
        rho = np.maximum(r, 1e-300)
        grad_b = (dbump(r) / rho)[..., None] * dx
        return e[..., :, None] * grad_b[..., None, :]

    return TestVectorField(psi=psi, jac=jac)


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
