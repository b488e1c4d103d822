"""First-variation functionals and recovery sequences.

The diffuse first variation is evaluated two ways: directly from its
definition, and through the reassembled form produced by integrating by
parts against the approximate surface measure eps |gamma grad v|^2 dx
(projection term, well-separation drift, equipartition correction, and
the normalized-well spatial pairing). The two routes agree up to
discretization and O(eps) replacement errors, and both converge to the
sharp pairing

    -int sigma (Id - n x n):grad Psi d|grad chi_A| - int grad sigma . Psi

evaluated here by boundary quadrature as the independent reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ResolutionError
from .flow import PhaseState, energy as diffuse_energy
from .grid import Field, Grid, gradient_neumann, integrate, pair_density
from .sharp import (Point1D, Sphere, SurfaceTension, sigma_field_of,
                    weighted_perimeter)
from .testfields import TestVectorField
from .wells import (WellSpec, grad_gamma, normalized_well,
                    normalized_well_dx, optimal_profile_grid)

_NORMAL_THRESHOLD = 1e-12


def interface_boundary_margin(interface, grid: Grid) -> float:
    """Distance from the interface to the domain boundary."""
    if isinstance(interface, Sphere):
        gaps = []
        for ax in range(grid.dim):
            c = interface.center[ax]
            gaps.append(min(c - grid.lower[ax], grid.upper[ax] - c))
        return min(gaps) - interface.radius
    if isinstance(interface, Point1D):
        return min(interface.p - grid.lower[0], grid.upper[0] - interface.p)
    raise TypeError("parametrized interface required")


@dataclass(frozen=True)
class RecoveryState:
    """Diffuse state u = a + gamma * profile(sdist/eps) over a sharp set."""

    state: PhaseState
    energy_diffuse: float
    energy_sharp: float


def build_recovery(interface, spec: WellSpec, grid: Grid,
                   eps: float) -> RecoveryState:
    """Construct the recovery state for a parametrized interface.

    Requires eps >= 4 max spacing (profile resolution) and an interface at
    distance >= 2 eps from the domain boundary; the profile tail truncated
    at the boundary is exp(-sqrt(2) margin/eps) per unit of gamma, so the
    factor 2 keeps it below 6e-2 and it decays rapidly along eps sweeps.
    The profile is ``optimal_profile_grid`` of the signed distance over
    eps. The built energy is checked against the weighted perimeter under
    ``sigma_field_of(spec)`` (they agree to O(eps) + O(h^2/eps^2)).
    """
    hmax = float(np.max(grid.spacing))
    if eps < 4.0 * hmax:
        raise ResolutionError(f"eps={eps} under-resolved: needs >= {4 * hmax}")
    margin = interface_boundary_margin(interface, grid)
    if margin < 2.0 * eps:
        raise GeometryError(f"interface margin {margin:.4g} below 2.0 * eps")
    pts = grid.points()
    sdist = interface.signed_distance(pts)
    v = optimal_profile_grid(spec, pts, sdist / eps)
    a = spec.a(pts)
    g = spec.b(pts) - a
    u = Field(grid, a + g * v)
    state = PhaseState(u, eps)
    e_sharp = weighted_perimeter(interface, sigma_field_of(spec))
    e_diff = diffuse_energy(state, spec)
    hmax_sq = hmax ** 2
    guard = 5.0 * (eps + hmax_sq / eps ** 2) * max(1.0, e_sharp) + 1e-10
    if abs(e_diff - e_sharp) > guard:
        raise GeometryError(
            f"recovery energy {e_diff:.6g} is inconsistent with the weighted "
            f"perimeter {e_sharp:.6g} (guard {guard:.2g})")
    return RecoveryState(state=state, energy_diffuse=e_diff,
                         energy_sharp=e_sharp)


# ---------------------------------------------------------------------------
# equipartition
# ---------------------------------------------------------------------------

def equipartition_defect(state: PhaseState, spec: WellSpec) -> float:
    """int (sqrt(eps) |grad u| - sqrt(2 W(x,u))/sqrt(eps))^2 dx >= 0."""
    pts = state.u.grid.points()
    w = spec.W(pts, state.u.values)
    gn = gradient_neumann(state.u).norm()
    root_eps = np.sqrt(state.eps)
    dens = (root_eps * gn - np.sqrt(np.maximum(2.0 * w, 0.0)) / root_eps) ** 2
    return integrate(Field(state.u.grid, dens))


def measure_pairing(state: PhaseState, spec: WellSpec,
                    testfn: Field) -> tuple:
    """Pair the three localized densities converging to sigma |grad chi|
    with a continuous test sample: (potential, gradient, geometric) for
    2 W(x, u) / eps, eps |grad u|^2 and sqrt(2 W(x, u)) |grad u|."""
    grid = state.u.grid
    w = spec.W(grid.points(), state.u.values)
    potential = pair_density(Field(grid, 2.0 / state.eps * w), testfn)
    root_2w = np.sqrt(np.maximum(2.0 * w, 0.0))
    gn = gradient_neumann(state.u).norm()
    gradient = pair_density(Field(grid, state.eps * gn ** 2), testfn)
    geometric = pair_density(Field(grid, root_2w * gn), testfn)
    return potential, gradient, geometric


# ---------------------------------------------------------------------------
# first variations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstVariation:
    """Both assembly routes of the diffuse first variation and their gap."""

    value: float          # direct form
    reassembled: float    # projection + drift + equipartition + well pairing
    gap: float


def diffuse_first_variation(state: PhaseState, spec: WellSpec,
                            psi: TestVectorField) -> FirstVariation:
    """Diffuse pairing nabla E_eps[u](gamma grad v . Psi), both routes."""
    grid = state.u.grid
    pts = grid.points()
    eps = state.eps
    u = state.u.values
    a = spec.a(pts)
    g = spec.b(pts) - a
    v = (u - a) / g
    grad_v = gradient_neumann(Field(grid, v))
    grad_u = gradient_neumann(state.u)
    psi_vals = psi.psi(pts)
    jac = psi.jac(pts)

    # direct route
    inner = g * sum(c * psi_vals[..., k]
                    for k, c in enumerate(grad_v.components))
    grad_inner = gradient_neumann(Field(grid, inner))
    direct = integrate(Field(grid, spec.dW_du(pts, u) * inner / eps)) \
        + eps * integrate(Field(grid, grad_u.dot(grad_inner)))

    # reassembled route
    gv2 = sum(c ** 2 for c in grad_v.components)
    mu = eps * g ** 2 * gv2
    norm = np.sqrt(gv2)
    safe = np.maximum(norm, _NORMAL_THRESHOLD)
    n_eps = [np.where(norm >= _NORMAL_THRESHOLD, c / safe, 0.0)
             for c in grad_v.components]
    tr = np.trace(jac, axis1=-2, axis2=-1)
    njn = sum(n_eps[i] * jac[..., i, j] * n_eps[j]
              for i in range(grid.dim) for j in range(grid.dim))
    t_project = -integrate(Field(grid, (tr - njn) * mu))
    gg = grad_gamma(spec, pts)
    drift = sum(gg[..., k] * psi_vals[..., k] for k in range(grid.dim)) / g
    t_drift = -integrate(Field(grid, drift * mu))
    wn = normalized_well(spec, pts, v)
    t_equi = integrate(Field(grid, (0.5 * mu - wn / eps) * tr))
    dwn = normalized_well_dx(spec, pts, v)
    pairing = sum(dwn[..., k] * psi_vals[..., k] for k in range(grid.dim))
    t_well = -integrate(Field(grid, pairing / eps))
    reassembled = t_project + t_drift + t_equi + t_well

    return FirstVariation(value=direct, reassembled=reassembled,
                          gap=abs(direct - reassembled))


def sharp_first_variation(interface, sigma: SurfaceTension,
                          psi: TestVectorField) -> float:
    """-int sigma (Id - n x n):grad Psi dH - int grad sigma . Psi dH."""
    pts, w, normals = interface.boundary_nodes(1024)
    jac = psi.jac(pts)
    tr = np.trace(jac, axis1=-2, axis2=-1)
    njn = np.einsum("...i,...ij,...j->...", normals, jac, normals)
    curv = -np.sum(w * sigma.value(pts) * (tr - njn))
    grad = -np.sum(w * np.sum(sigma.grad(pts) * psi.psi(pts), axis=-1))
    return float(curv + grad)


@dataclass
class SweepRow:
    eps: float
    diffuse: float
    sharp: float
    gap: float
    defect: float
    energy: float
    energy_sharp: float


def first_variation_convergence(eps_list, interface, spec: WellSpec,
                                psi: TestVectorField, grid: Grid) -> list:
    """One ``SweepRow`` per eps, largest eps first.

    The sharp value is the boundary-quadrature oracle under
    ``sigma_field_of(spec)``; recovery states are rebuilt per eps on the
    given grid (eps < 4 max spacing raises).
    """
    sharp_val = sharp_first_variation(interface, sigma_field_of(spec), psi)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        rec = build_recovery(interface, spec, grid, eps)
        fv = diffuse_first_variation(rec.state, spec, psi)
        rows.append(SweepRow(eps=eps, diffuse=fv.value, sharp=sharp_val,
                             gap=abs(fv.value - sharp_val),
                             defect=equipartition_defect(rec.state, spec),
                             energy=rec.energy_diffuse,
                             energy_sharp=rec.energy_sharp))
    return rows
