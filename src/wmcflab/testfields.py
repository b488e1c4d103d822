"""Analytic C^1 test vector fields with exact Jacobians.

The first-variation and motion-law pairings need fields that vanish near
the domain boundary (admissibility Psi . n = 0) and whose Jacobians are
exact; building them from a small analytic library removes discrete
differentiation from the error budget. Jacobians use the convention
jac[..., i, j] = d psi_i / d x_j.

Every field is a radial cut-off times a vector field, built by one
constructor:

    psi = phi(rho) w,    rho = |x - c|,
    w = L (x - c)  (L = I: dilation, L = J: rotation)  or  w = e,
    jac = phi L + w (x) grad phi,    grad phi = (phi'(rho)/rho) (x - c),

with rho clamped at 1e-300 in the quotient (a constant w has no L term).
A radial profile returns phi and phi' from one evaluation of rho.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wells import point_norm


@dataclass(frozen=True)
class TestVectorField:
    psi: Callable[[np.ndarray], np.ndarray]     # (..., d) -> (..., d)
    jac: Callable[[np.ndarray], np.ndarray]     # (..., d) -> (..., d, d)


def _smoothstep_cutoff(r_inner, r_outer):
    """phi(rho) = 1 on rho <= r_inner, 0 on rho >= r_outer, C^2 between:
    one minus the quintic smoothstep (zero end slopes and curvature)."""
    width = r_outer - r_inner
    if width <= 0:
        raise ValueError("r_outer must exceed r_inner")

    def profile(rho):
        t = np.clip((rho - r_inner) / width, 0.0, 1.0)
        dphi = -(30.0 * t ** 2 * (1.0 - t) ** 2) / width
        return 1.0 - t ** 3 * (6.0 * t ** 2 - 15.0 * t + 10.0), dphi

    return profile


def _cubic_bump(radius):
    """phi(rho) = (1 - (rho/radius)^2)^3 inside the radius, 0 outside."""
    def profile(rho):
        t = np.minimum(rho / radius, 1.0)
        return (1.0 - t ** 2) ** 3, -6.0 * t * (1.0 - t ** 2) ** 2 / radius

    return profile


def _cutoff_field(center, profile, L, e) -> TestVectorField:
    """psi = phi(rho) w with w = L (x - c), or w = e when L is None."""
    c = np.asarray(center, dtype=float)

    def evaluate(x):
        dx = np.asarray(x, dtype=float) - c
        rho = point_norm(dx)
        phi, dphi = profile(rho)
        return dx, rho, phi, dphi, (e if L is None else dx @ L.T)

    def psi(x):
        _, _, phi, _, w = evaluate(x)
        return phi[..., None] * w

    def jac(x):
        dx, rho, phi, dphi, w = evaluate(x)
        grad_phi = (dphi / np.maximum(rho, 1e-300))[..., None] * dx
        outer = w[..., :, None] * grad_phi[..., None, :]
        return outer if L is None else phi[..., None, None] * L + outer

    return TestVectorField(psi=psi, jac=jac)


def dilation_field(center, r_inner: float, r_outer: float) -> TestVectorField:
    """psi = (x - c) inside r_inner, cut off smoothly before r_outer.

    On the plateau the Jacobian is the identity, so the sharp pairing of a
    circle of radius R < r_inner with constant sigma is -(N-1) 2 pi R sigma.
    """
    return _cutoff_field(center, _smoothstep_cutoff(r_inner, r_outer),
                         np.eye(len(center)), None)


def rotation_field(center, r_inner: float, r_outer: float) -> TestVectorField:
    """Rigid rotation about the center, cut off radially (2-d).

    Divergence-free with antisymmetric Jacobian on the plateau; pairs to
    zero with any circle about the same center (rotation invariance).
    """
    return _cutoff_field(center, _smoothstep_cutoff(r_inner, r_outer),
                         np.array([[0.0, -1.0], [1.0, 0.0]]), None)


def translation_field(direction, center, r_inner: float,
                      r_outer: float) -> TestVectorField:
    """Constant vector on a disk around ``center``, cut off before r_outer."""
    return _cutoff_field(center, _smoothstep_cutoff(r_inner, r_outer), None,
                         np.asarray(direction, dtype=float))


def translation_bump(direction, center, radius: float) -> TestVectorField:
    """Bump-localized translation: psi = e (1 - (rho/radius)^2)^3 inside."""
    return _cutoff_field(center, _cubic_bump(radius), None,
                         np.asarray(direction, dtype=float))

