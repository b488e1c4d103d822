"""Gradient-flow calibrations around smooth radial solutions.

A calibration extends the inner normal (xi), the normal velocity (B) and
a transported signed mass (theta) off the interface of a smooth radial
trajectory:

    xi(x, t)    = g(dist) n(P x),   |xi| <= max{0, 1 - c dist^2},
    B(x, t)     = V(P x, t) xi,
    theta(x, t) = tau(sdist),       sign theta = sign sdist,

with a C^1 even quartic cutoff g supported on |s| < 1/sqrt(c) <= r and a
C^2 odd truncation tau of the identity (tau(s) = s for |s| <= r/2, = r
sign s beyond r). All spatial derivatives are closed-form radial
geometry; time derivatives are centered differences on the trajectory,
which spans [0, t_end] (``sharp`` raises on a flow that would stop
earlier) and raises GeometryError at any time outside it.

Every field is built on one radial frame, ``Calibration._frame(x, t)``:
from one point norm and one R(t) it gives rho = |x - center|, e, the
signed distance sdist = R(t) - rho, g, xi = -g e and theta. The shifted
times of ``calibration_residuals``, ``calibration_invariants`` (with one
V(t) per time on the interface), ``coercivity_check`` (whose ``e_rel``
is the relative energy) and the grid branch of ``bulk_energy`` read the
frame alone. ``Calibration.at(x, t)`` is what the residuals at t read:
sdist and xi of the frame, plus g', grad xi, div xi, grad theta and V(t);
the caller forms B = V xi, grad B = V grad xi and dist = |sdist|.

sigma is the calibrated flow's, held once as its profile: the functions
on nodes and point clouds read its field ``cal.traj.sigma``, the radial
rule of ``bulk_energy`` reads the profile ``cal.traj.profile`` at radii,
and a calibration holds no copy of its own.

The relative energy int sigma (1 - n . xi) dH and the bulk energy
int sigma (chi_strong - chi_weak) theta dx are both nonnegative and
control the interface tilt, distance, and mass errors (coercivity with
constant exactly 1 for the tilt, via 2(1 - xi.n) = |n-xi|^2 + 1 - |xi|^2).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .grid import Field, integrate
from .quadrature import gauss_legendre
from .sharp import SharpTrajectory, Sphere, _require_disk, indicator
from .wells import point_norm

_NEAR = 1e-4


def _cutoff(s: np.ndarray, r_g: float) -> np.ndarray:
    t = np.abs(s) / r_g
    return np.where(t < 1.0, (1.0 - np.minimum(t, 1.0) ** 2) ** 2, 0.0)


def _cutoff_deriv(s: np.ndarray, r_g: float) -> np.ndarray:
    t = s / r_g
    inside = np.abs(t) < 1.0
    return np.where(inside, -4.0 * t * (1.0 - np.clip(t, -1, 1) ** 2) / r_g,
                    0.0)


def _truncation(s: np.ndarray, r: float) -> np.ndarray:
    """Odd, C^2, monotone: identity up to r/2, saturates at r. The quintic
    blend is formed on the band r/2 < |s| < r only; min(|s|, r) is the
    value everywhere else."""
    a = np.abs(s)
    out = np.minimum(a, r, out=np.empty(np.shape(a)))
    band = (a > r / 2) & (a < r)
    t = (a[band] - r / 2) / (r / 2)
    out[band] = r / 2 + (r / 2) * (3 * t ** 5 - 7 * t ** 4 + 4 * t ** 3 + t)
    return np.sign(s) * out


def _truncation_deriv(s: np.ndarray, r: float) -> np.ndarray:
    a = np.abs(s)
    t = np.clip((a - r / 2) / (r / 2), 0.0, 1.0)
    dp = (1 - t) ** 2 * (15 * t ** 2 + 2 * t + 1)
    return np.where(a <= r / 2, 1.0, np.where(a >= r, 0.0, dp))


class CalibrationFields(NamedTuple):
    """The calibration at a point cloud x (..., N) and one time t."""

    sdist: np.ndarray        # R(t) - |x - center|, > 0 inside
    v: float                 # V(t), the normal velocity
    xi: np.ndarray           # (..., N)
    grad_xi: np.ndarray      # (..., N, N)
    div_xi: np.ndarray
    grad_theta: np.ndarray   # (..., N)


class _Frame(NamedTuple):
    """The radial frame of a calibration at x (..., N) and one time t."""

    rho: np.ndarray          # |x - center|, clamped at 1e-300
    e: np.ndarray            # (x - center) / rho, (..., N)
    sdist: np.ndarray        # R(t) - rho
    g: np.ndarray            # cutoff g(sdist)
    xi: np.ndarray           # -g e, (..., N)
    theta: np.ndarray        # tau(sdist)


@dataclass(frozen=True)
class Calibration:
    """Evaluable calibration tuple around a radial trajectory."""

    traj: SharpTrajectory
    r: float                 # tube radius
    c: float                 # quadratic decay constant in |xi| bound
    r_g: float               # cutoff support radius, 1/sqrt(c)

    def _frame(self, x, t) -> _Frame:
        """rho, e, sdist, g, xi and theta at x and time t from one
        evaluation of R(t) and one point norm (rho is clamped at 1e-300,
        so the center gets a finite unit vector)."""
        dx = np.asarray(x, dtype=float) - np.array(self.traj.center)
        rho = np.maximum(point_norm(dx), 1e-300)
        e = dx / rho[..., None]
        sdist = float(self.traj.position(t)) - rho
        g = _cutoff(sdist, self.r_g)
        return _Frame(rho=rho, e=e, sdist=sdist, g=g, xi=-g[..., None] * e,
                      theta=_truncation(sdist, self.r))

    def at(self, x, t) -> CalibrationFields:
        """The residuals' fields at x and time t: sdist and xi of the
        frame, plus g', grad xi, div xi, grad theta and one evaluation of
        V(t)."""
        f = self._frame(x, t)
        rho, e, g = f.rho, f.e, f.g
        dg = _cutoff_deriv(f.sdist, self.r_g)
        ee = e[..., :, None] * e[..., None, :]
        grad_xi = (dg[..., None, None] * ee
                   - (g / rho)[..., None, None] * (np.eye(e.shape[-1]) - ee))
        return CalibrationFields(
            sdist=f.sdist, v=float(self.traj.velocity(t)),
            xi=f.xi, grad_xi=grad_xi,
            div_xi=dg - (len(self.traj.center) - 1) * g / rho,
            grad_theta=-_truncation_deriv(f.sdist, self.r)[..., None] * e)


def build_calibration(traj: SharpTrajectory) -> Calibration:
    """Calibration for a radial trajectory, with the trajectory's sigma.

    The tube radius is r = 0.4 min_t R(t), so the projection onto the
    circle is single-valued in the tube, and c = 1.01 / r^2. The cutoff
    support is shrunk to 1/sqrt(c) so |xi| <= max{0, 1 - c dist^2} holds
    exactly (the bound needs c strictly above 1/r^2 to leave a margin
    inside the tube). Raises GeometryError for a flow that is not radial.
    """
    if traj.center is None:
        raise GeometryError("calibrations are built around radial flows")
    r = 0.4 * float(np.min(traj.positions))
    c = 1.01 / r ** 2
    return Calibration(traj=traj, r=r, c=c, r_g=1.0 / np.sqrt(c))


# ---------------------------------------------------------------------------
# pointwise residuals and invariants
# ---------------------------------------------------------------------------

@dataclass
class CalibrationResiduals:
    """Sampled approximate-evolution and geometric residuals.

    r1 = dt xi + (B . grad) xi + (grad B)^T xi        -> O(dist)
    r2 = dt |xi|^2 + (B . grad) |xi|^2                -> O(dist^2)
    r3 = dt theta + (B . grad) theta                  -> O(dist)
    r4 = -div xi - grad(log sigma) . xi - B . xi      -> O(dist)
    """

    dist: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray

    def ratios(self) -> dict:
        """max residual / dist^k over the samples at dist >= _NEAR; NaN
        (not measured) when no sample lies that far out."""
        mask = self.dist >= _NEAR
        terms = (("r1", self.r1, 1), ("r2", self.r2, 2), ("r3", self.r3, 1),
                 ("r4", self.r4, 1))
        return {name: float(np.max(vals[mask] / self.dist[mask] ** k))
                if np.any(mask) else float("nan") for name, vals, k in terms}


# fourth-order centered time difference: (shift in fd_dt, weight) in the
# order the terms are summed, the sum divided by 12 fd_dt
_DT4 = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))


def calibration_residuals(cal: Calibration, points: np.ndarray, times,
                          fd_dt: float = 1e-4) -> CalibrationResiduals:
    """Evaluate the residuals at a sample cloud (points per time).

    Spatial derivatives are the closed-form radial expressions; time
    derivatives are centered differences with step ``fd_dt`` (4th order,
    so the differencing noise stays below the O(dist^2) structure of r2
    near the interface). The shifted times t +- 2 fd_dt are read through
    the trajectory, which raises GeometryError (a ValueError) outside its
    window; an empty time list raises ValueError. Each time takes one
    ``cal._frame`` per shifted time (the differences read only xi and
    theta), then one ``cal.at`` at t.
    """
    points = np.asarray(points, dtype=float)
    times = np.atleast_1d(times)
    if times.size == 0:
        raise ValueError("calibration residuals need one or more times")
    sig = cal.traj.sigma.value(points)
    grad_log = cal.traj.sigma.grad(points) / sig[..., None]
    rows = []
    for t in times:
        t = float(t)
        dt_xi = dt_xi2 = dt_theta = 0.0
        for k, w in _DT4:
            s = cal._frame(points, t + k * fd_dt)
            dt_xi = dt_xi + w * s.xi
            dt_xi2 = dt_xi2 + w * np.sum(s.xi ** 2, axis=-1)
            dt_theta = dt_theta + w * s.theta
            del s  # one evaluation alive at a time
        dt_xi, dt_xi2, dt_theta = (d / (12.0 * fd_dt)
                                   for d in (dt_xi, dt_xi2, dt_theta))
        f = cal.at(points, t)
        Bv = f.v * f.xi
        adv_xi = np.einsum("...ij,...j->...i", f.grad_xi, Bv)
        jbt_xi = np.einsum("...ji,...j->...i", f.v * f.grad_xi, f.xi)
        r1 = point_norm(dt_xi + adv_xi + jbt_xi)

        grad_xi2 = 2.0 * np.einsum("...ji,...j->...i", f.grad_xi, f.xi)
        r2 = np.abs(dt_xi2 + np.sum(Bv * grad_xi2, axis=-1))

        r3 = np.abs(dt_theta + np.sum(Bv * f.grad_theta, axis=-1))

        r4 = np.abs(-f.div_xi
                    - np.sum(grad_log * f.xi, axis=-1)
                    - np.sum(Bv * f.xi, axis=-1))

        rows.append((np.abs(f.sdist), r1, r2, r3, r4))
    return CalibrationResiduals(*map(np.concatenate, zip(*rows)))


@dataclass
class InvariantReport:
    max_xi_bound_violation: float     # |xi| - max{0, 1 - c dist^2}
    max_boundary_xi_error: float      # |xi . n - 1| on the interface
    max_boundary_b_error: float       # |B - V n| on the interface
    theta_sign_violations: int
    c_theta_coercivity: float         # max min{dist,1} / |theta|
    n_samples: int


def calibration_invariants(cal: Calibration, times, n_per_time: int = 1000,
                           seed: int = 0) -> InvariantReport:
    """Sample the defining inequalities of the calibration tuple in the
    box of half-width 1.5 max_t R(t) about the center.

    Raises ValueError for an empty time list or ``n_per_time < 1``: a
    report on no samples would count no violation and pass."""
    times = np.atleast_1d(times)
    if times.size == 0:
        raise ValueError("calibration invariants need one or more times")
    if n_per_time < 1:
        raise ValueError("calibration invariants need n_per_time >= 1, "
                         f"got {n_per_time!r}")
    rng = np.random.default_rng(seed)
    center = np.array(cal.traj.center)
    r_max = float(np.max(cal.traj.positions))
    half = 1.5 * r_max
    worst_bound = -np.inf
    worst_xi = 0.0
    worst_b = 0.0
    sign_bad = 0
    c_theta = 0.0
    total = 0
    for t in times:
        t = float(t)
        pts = center + rng.uniform(-half, half, size=(n_per_time, len(center)))
        f = cal._frame(pts, t)
        dist = np.abs(f.sdist)
        bound = np.maximum(0.0, 1.0 - cal.c * dist ** 2)
        worst_bound = max(worst_bound,
                          float(np.max(point_norm(f.xi) - bound)))
        sign_bad += int(np.count_nonzero(np.sign(f.theta)
                                         != np.sign(f.sdist)))
        far = dist > 1e-12
        c_theta = max(c_theta, float(np.max(
            np.minimum(dist[far], 1.0) / np.abs(f.theta[far]))))
        total += n_per_time

        iface = cal.traj.interface_at(t)
        bpts, _, normals = iface.boundary_nodes(64)
        xi_b = cal._frame(bpts, t).xi
        v = float(cal.traj.velocity(t))
        worst_xi = max(worst_xi, float(np.max(np.abs(
            np.sum(xi_b * normals, axis=-1) - 1.0))))
        worst_b = max(worst_b, float(np.max(
            point_norm(v * xi_b - v * normals))))
    return InvariantReport(max_xi_bound_violation=worst_bound,
                           max_boundary_xi_error=worst_xi,
                           max_boundary_b_error=worst_b,
                           theta_sign_violations=sign_bad,
                           c_theta_coercivity=c_theta,
                           n_samples=total)


# ---------------------------------------------------------------------------
# relative and bulk energies
# ---------------------------------------------------------------------------

def bulk_energy(weak, cal: Calibration, t: float) -> float:
    """int sigma (chi_strong - chi_weak) theta dx; >= 0 by sign conditions.

    ``weak`` is either a Sphere concentric with the calibrated flow
    (radial quadrature: the integrand at 256 Gauss-Legendre radii across
    the annulus, times 2 pi) or a phase-indicator Field (grid
    quadrature). On the radial rule chi_strong - chi_weak, theta and the
    flow's sigma profile all depend on rho alone, and the profile is read
    at the radii. Raises GeometryError unless the calibrated flow is
    radial in 2-d.
    """
    _require_disk(cal.traj, "bulk energies")
    if isinstance(weak, Field):
        pts = weak.grid.points()
        chi_weak = weak.values
        chi_strong = indicator(cal.traj.interface_at(t), pts)
        vals = cal.traj.sigma.value(pts) * (chi_strong - chi_weak) \
            * cal._frame(pts, t).theta
        return integrate(Field(weak.grid, vals))
    if isinstance(weak, Sphere):
        center = np.array(cal.traj.center)
        if not np.allclose(np.array(weak.center), center, atol=1e-12):
            raise GeometryError("annulus quadrature needs concentric disks; "
                                "sample the weak phase on a grid instead")
        r_s = float(cal.traj.position(t))
        r_w = weak.radius
        if abs(r_w - r_s) < 1e-15:
            return 0.0
        lo, hi = min(r_w, r_s), max(r_w, r_s)
        nodes, weights = gauss_legendre(256)
        rho = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        wr = 0.5 * (hi - lo) * weights
        # on the annulus chi_strong - chi_weak = -sign(r_w - r_s)
        sgn = -np.sign(r_w - r_s)
        # sigma sgn tau rho wr at the radii, in that order: the first
        # product is a new array (the one profile.value returns is never
        # written), the rest go in place
        vals = cal.traj.profile.value(rho) * sgn
        vals *= _truncation(r_s - rho, cal.r)
        vals *= rho
        vals *= wr
        return float(np.sum(vals) * (2.0 * np.pi))
    raise TypeError("weak phase must be a Sphere or an indicator Field")


@dataclass
class CoercivityReport:
    tilt: float          # int sigma |n - xi|^2 / 2
    e_rel: float         # int sigma (1 - n . xi) dH >= 0
    slack: float         # int sigma (1 - |xi|^2) / 2 >= 0
    identity_error: float


def coercivity_check(weak, cal: Calibration, t: float) -> CoercivityReport:
    """Tilt coercivity with constant exactly 1: tilt + slack = E_rel, on
    1024 nodes of the weak interface, with |tilt + slack - E_rel| as the
    identity error."""
    pts, w, normals = weak.boundary_nodes(1024)
    xi = cal._frame(pts, t).xi
    sig = cal.traj.sigma.value(pts)
    tilt = float(np.sum(w * sig * 0.5 * np.sum((normals - xi) ** 2, axis=-1)))
    slack = float(np.sum(w * sig * 0.5 * (1.0 - np.sum(xi ** 2, axis=-1))))
    e_rel = float(np.sum(w * sig * (1.0 - np.sum(normals * xi, axis=-1))))
    return CoercivityReport(tilt=tilt, e_rel=e_rel, slack=slack,
                            identity_error=abs(tilt + slack - e_rel))


# ---------------------------------------------------------------------------
# Gronwall stability
# ---------------------------------------------------------------------------

@dataclass
class GronwallReport:
    e_rel: np.ndarray
    e_bulk: np.ndarray
    coercivity_slack: np.ndarray
    coercivity_identity_error: np.ndarray
    fitted_c_rel: float
    fitted_c_rel_coarse: float
    exp_bound_excess: float   # max_t E_rel(t) - E_rel(0) e^{C_rel t}(1 + 1e-9)


def _fit_constant(times, values, zero_tol):
    """Smallest C with values(T) <= values(0) + C int_0^T values at every
    grid time T, guarded for vanishing integrals; NaN when there is no
    second time to fit on."""
    if len(times) < 2:
        return float("nan")
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (values[1:] + values[:-1]) * np.diff(times))])
    growth = values[1:] - values[0]
    return float(np.max(np.where(
        cum[1:] < 1e-14, np.where(growth <= zero_tol, 0.0, np.inf),
        np.maximum(growth, 0.0) / np.maximum(cum[1:], 1e-14))))


def gronwall_verify(weak: SharpTrajectory, cal: Calibration, times,
                    zero_tol: float = 1e-8) -> GronwallReport:
    """Fit the stability constant of the relative energy estimate.

    Computes t -> E_rel, E_bulk for the weak trajectory against the
    strong flow that ``cal`` calibrates, fits the smallest Gronwall
    constant C_rel making E_rel(T') <= E_rel(0) + C_rel int_0^T' E_rel dt
    hold at every grid time, refits it on every second time, and reports
    the excess of E_rel over the exponential bound E_rel(0) exp(C_rel t);
    it measures and decides nothing. E_bulk is reported, not fitted. The
    tilt coercivity check runs at every time too, and E_rel is read off
    its report (a 1024-node sum); the report keeps its slack and identity
    error. The weak interface is built once per time. Raises ValueError
    unless the times are one or more and strictly increasing (the fit
    integrates forward from the first time).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("gronwall_verify needs a 1-d list of one or more "
                         "times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("gronwall_verify needs strictly increasing times")
    ifaces = [weak.interface_at(t) for t in times]
    co = [coercivity_check(iface, cal, t)
          for iface, t in zip(ifaces, times)]
    e_rel = np.array([c.e_rel for c in co])
    e_bulk = np.array([bulk_energy(iface, cal, t)
                       for iface, t in zip(ifaces, times)])
    c_rel = _fit_constant(times, e_rel, zero_tol)
    c_rel_half = _fit_constant(times[::2], e_rel[::2], zero_tol)
    excess = float(np.max(e_rel - e_rel[0] * np.exp(c_rel * times)
                          * (1 + 1e-9)))
    return GronwallReport(e_rel=e_rel, e_bulk=e_bulk,
                          coercivity_slack=np.array([c.slack for c in co]),
                          coercivity_identity_error=np.array(
                              [c.identity_error for c in co]),
                          fitted_c_rel=c_rel, fitted_c_rel_coarse=c_rel_half,
                          exp_bound_excess=excess)
