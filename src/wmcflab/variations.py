"""First-variation functionals and recovery sequences.

The diffuse first variation is evaluated two ways: directly, as the
exact derivative of the discrete energy ``flow.energy_face`` along
gamma grad v . Psi, that is its pairing with the L2-gradient
W_u/eps - eps Lap_h u, and through the reassembled form produced by
integrating by parts against the approximate surface measure
eps |gamma grad v|^2 dx (projection term, well-separation drift,
equipartition correction, and the normalized-well spatial pairing). The
two routes agree up to discretization and O(eps) replacement errors, and
both converge to the sharp pairing

    -int sigma (Id - n x n):grad Psi d|grad chi_A| - int grad sigma . Psi

computed by boundary quadrature in ``sharp.sharp_first_variation`` as the
independent reference.

A recovery sweep binds its eps-free geometry once: ``bind_recovery``
checks the interface against the grid and the well, and holds the bound
well and the signed distance; ``build_recovery(bound, eps)`` then forms
each eps's profile. A broken well or a mismatched interface raises from
the bind, an eps check from the build. A recovery state carries one
``flow.Reading`` of itself (u, W(x, u) and |grad u|, evaluated once by
``build_recovery`` for its energy check).
The equipartition defect and the three localized densities are formed
from that reading: ``equipartition_defect(rec.reading)`` and
``measure_pairing(rec.reading, testfns)``, which pairs the densities with
every test sample of the call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ResolutionError
from .flow import PhaseState, Reading, read
from .grid import (Field, Grid, gradient_neumann, integrate, laplacian_neumann,
                   pair_density)
from .sharp import sharp_first_variation, sigma_field_of, weighted_perimeter
from .testfields import TestVectorField
from .wells import (BoundQuartic, WellSpec, bind, grad_gamma,
                    normalized_well, normalized_well_dx, optimal_profile_grid)

_NORMAL_THRESHOLD = 1e-12
# eps must span this many grid spacings
_CELLS_PER_EPS = 4.0


@dataclass(frozen=True)
class RecoveryState:
    """Diffuse state u = a + gamma * profile(sdist/eps) over a sharp set,
    with its reading (W and |grad u| of ``state``)."""

    state: PhaseState
    reading: Reading
    energy_diffuse: float
    energy_sharp: float


@dataclass(frozen=True)
class BoundRecovery:
    """The eps-free part of the recovery states of one interface, well
    and grid, made once by ``bind_recovery``: the well bound to the cell
    centres (``wells.bind``), the signed distance there (read-only), the
    interface's margin to the walls and the weighted perimeter under
    ``sigma_field_of(spec)``. The cell centres themselves are not kept."""

    grid: Grid
    spec: WellSpec
    well: BoundQuartic
    sdist: np.ndarray
    margin: float
    energy_sharp: float


def bind_recovery(interface, spec: WellSpec, grid: Grid) -> BoundRecovery:
    """Do the eps-free work of ``build_recovery`` once per interface, well
    and grid, in this order: the margin ``interface.margin(grid)``, which
    raises GeometryError for an interface of another dimension than the
    grid, before any distance is taken; the cell centres; the well bound
    there (``wells.bind``), which raises GeometryError for a broken double
    well; the signed distance; and the weighted perimeter. A sweep binds
    once and builds each eps from the binding."""
    margin = interface.margin(grid)
    pts = grid.points()
    well = bind(spec, pts)
    sdist = interface.signed_distance(pts)
    sdist.flags.writeable = False
    return BoundRecovery(
        grid=grid, spec=spec, well=well, sdist=sdist, margin=margin,
        energy_sharp=weighted_perimeter(interface, sigma_field_of(spec)))


def build_recovery(bound: BoundRecovery, eps: float) -> RecoveryState:
    """Construct the recovery state at ``eps`` from ``bind_recovery``'s
    binding: the one builder of a diffuse start (the well-prepared data of
    Theorem 4.3): runners and demos take its ``.state`` (or ``.reading``).

    A broken well or an interface of another dimension than the grid has
    raised from the bind; here three checks on eps guard the state:
    eps >= 4 max spacing, the profile resolution (``ResolutionError``);
    an interface >= 2 eps from the domain boundary (the bound margin, else
    ``GeometryError``), where the truncated profile tail is
    exp(-sqrt(2) margin/eps) per unit of gamma, below 6e-2; and the built
    energy within the guard of the weighted perimeter, which it matches
    to O(eps) + O(h^2/eps^2) (``GeometryError``). The profile
    ``optimal_profile_grid(well, sdist / eps)``, u = a + (b - a) v (v
    itself, to the bit, for wells at +0.0 and 1.0) and its reading all
    read the bound well; the binding is never written, so every eps of a
    sweep has the bits of a build bound on its own.
    """
    grid, well, e_sharp = bound.grid, bound.well, bound.energy_sharp
    hmax = float(np.max(grid.spacing))
    floor = _CELLS_PER_EPS * hmax
    if eps < floor:
        raise ResolutionError(f"eps={eps} under-resolved: needs >= {floor}")
    if bound.margin < 2.0 * eps:
        raise GeometryError(
            f"interface margin {bound.margin:.4g} below 2.0 * eps")
    v = optimal_profile_grid(well, bound.sdist / eps)
    u = Field(grid, well.a + (well.b - well.a) * v)
    state = PhaseState(u, eps)
    reading = read(state, bound.spec, well)
    e_diff = reading.energy()
    hmax_sq = hmax ** 2
    guard = 5.0 * (eps + hmax_sq / eps ** 2) * max(1.0, e_sharp) + 1e-10
    if abs(e_diff - e_sharp) > guard:
        raise GeometryError(
            f"recovery energy {e_diff:.6g} is inconsistent with the weighted "
            f"perimeter {e_sharp:.6g} (guard {guard:.2g})")
    return RecoveryState(state=state, reading=reading,
                         energy_diffuse=e_diff, energy_sharp=e_sharp)


# ---------------------------------------------------------------------------
# equipartition
# ---------------------------------------------------------------------------

def equipartition_defect(reading: Reading) -> float:
    """int (sqrt(eps) |grad u| - sqrt(2 W(x,u))/sqrt(eps))^2 dx >= 0."""
    root_eps = np.sqrt(reading.eps)
    dens = (root_eps * reading.grad_norm
            - np.sqrt(np.maximum(2.0 * reading.w, 0.0)) / root_eps) ** 2
    return integrate(Field(reading.grid, dens))


def measure_pairing(reading: Reading, testfns) -> list:
    """Pair the three localized densities converging to sigma |grad chi|
    with each continuous test sample of ``testfns``: one triple
    (potential, gradient, geometric) per sample, in order, for
    2 W(x, u) / eps, eps |grad u|^2 and sqrt(2 W(x, u)) |grad u|."""
    grid, eps, w, gn = reading.grid, reading.eps, reading.w, reading.grad_norm
    densities = (Field(grid, 2.0 / eps * w), Field(grid, eps * gn ** 2),
                 Field(grid, np.sqrt(np.maximum(2.0 * w, 0.0)) * gn))
    return [tuple(pair_density(d, t) for d in densities) for t in testfns]


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
    """Diffuse pairing nabla E_eps[u](gamma grad v . Psi), both routes;
    the direct one pairs the L2-gradient of ``flow.energy_face`` with
    gamma grad v . Psi."""
    grid = state.u.grid
    pts = grid.points()
    eps = state.eps
    u = state.u.values
    a = spec.a(pts)
    g = spec.b(pts) - a
    v = (u - a) / g
    grad_v = gradient_neumann(Field(grid, v))
    psi_vals = psi.psi(pts)
    jac = psi.jac(pts)

    # direct route
    inner = g * sum(c * psi_vals[..., k]
                    for k, c in enumerate(grad_v.components))
    residual = spec.dW_du(pts, u) / eps \
        - eps * laplacian_neumann(state.u).values
    direct = integrate(Field(grid, residual * inner))

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


@dataclass
class SweepRow:
    eps: float
    diffuse: float
    sharp: float
    gap: float
    defect: float
    energy: float
    energy_sharp: float
    reassembled: float
    route_gap: float


def first_variation_convergence(eps_list, interface, spec: WellSpec,
                                psi: TestVectorField, grid: Grid) -> list:
    """One ``SweepRow`` per eps, largest eps first.

    The sharp value is the boundary-quadrature oracle under
    ``sigma_field_of(spec)``; recovery states are built per eps from one
    ``bind_recovery`` on the given grid (eps < 4 max spacing raises), and
    the defect column comes from each state's reading. ``diffuse`` is the
    direct route of ``diffuse_first_variation``, ``reassembled`` its
    second route and ``route_gap`` their distance.
    """
    sharp_val = sharp_first_variation(interface, sigma_field_of(spec), psi)
    bound = bind_recovery(interface, spec, grid)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        rec = build_recovery(bound, eps)
        fv = diffuse_first_variation(rec.state, spec, psi)
        rows.append(SweepRow(eps=eps, diffuse=fv.value, sharp=sharp_val,
                             gap=abs(fv.value - sharp_val),
                             defect=equipartition_defect(rec.reading),
                             energy=rec.energy_diffuse,
                             energy_sharp=rec.energy_sharp,
                             reassembled=fv.reassembled, route_gap=fv.gap))
        del rec  # release the state and its reading before the next build
    return rows
