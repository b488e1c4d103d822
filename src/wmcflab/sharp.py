"""Sharp-interface references for weighted mean curvature flow.

Sign conventions, fixed here once and imported everywhere:

  * the b-phase A carries the inner normal n_A (pointing into A);
  * H_A = -div n_A, so H = (N-1)/R for a ball;
  * V is the normal speed in the direction n_A, so V = -dR/dt for a
    shrinking ball and V = dp/dt for a 1-d point, whose b-phase is always
    on the right.

With these conventions the flow sigma V = sigma H_A - grad sigma . n_A
reads, for radial sigma(rho) about the ball center,

    dR/dt = -(N-1)/R - sigma'(R)/sigma(R)

and for a 1-d point interface dp/dt = -sigma'(p)/sigma(p).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import GeometryError, NumericError
from .quadrature import adaptive_gauss_legendre
from .wells import (QuarticWellSpec, WellSpec, as_points, grad_gamma,
                    normalized_well_dx, sigma_n, surface_tension)


# ---------------------------------------------------------------------------
# surface tension as an evaluable field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceTension:
    """sigma and grad sigma as position callables ((..., d) -> ... )."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def sigma_from_well(spec: WellSpec, tol: float = 1e-10) -> SurfaceTension:
    """sigma by adaptive quadrature of the well; grad sigma by quadrature of
    the spatial partial (the endpoint terms vanish since W = 0 on the wells).
    """
    def value(x):
        return surface_tension(spec, x, tol=tol)

    def grad(x):
        x = as_points(x)
        pts = x.reshape(-1, x.shape[-1])
        dim = x.shape[-1]

        def integrand(t):
            # d/dx sqrt(2 W_n) * gamma = partial_x W_n / sqrt(2 W_n) * gamma
            P = pts[None, :, :].repeat(len(t), axis=0)
            V = t[:, None] * np.ones(len(pts))[None, :]
            wn = np.maximum(
                spec.W(P, spec.a(P) + (spec.b(P) - spec.a(P)) * V), 1e-300)
            dwn = normalized_well_dx(spec, P, V)
            g = (spec.b(pts) - spec.a(pts))[None, :, None]
            vals = g * dwn / np.sqrt(2.0 * wn)[..., None]
            return vals.reshape(len(t), -1)

        val, _ = adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)
        # grad sigma = grad(gamma sigma_n) = sigma_n grad gamma + gamma grad sigma_n;
        # integrating gamma * d/dx sqrt(2 W_n) gives gamma grad sigma_n only,
        # so add the separation part.
        g1 = np.asarray(val).reshape(pts.shape)
        g2 = np.asarray(sigma_n(spec, pts, tol=tol)).reshape(len(pts), 1) \
            * grad_gamma(spec, pts)
        out = (g1 + g2).reshape(x.shape)
        return out

    return SurfaceTension(value=value, grad=grad)


def sigma_field_of(spec: WellSpec) -> SurfaceTension:
    """Surface tension of a well: closed form for the quartic family
    (sigma = sqrt(2 m) gamma^3 / 6), adaptive quadrature otherwise."""
    if not isinstance(spec, QuarticWellSpec):
        return sigma_from_well(spec)

    def value(x):
        return spec.sigma_exact(x)

    def grad(x):
        x = as_points(x)
        m = spec.amplitude(x)
        g = spec.b(x) - spec.a(x)
        dm = spec.grad_amplitude(x)
        dg = grad_gamma(spec, x)
        return (g ** 3 / (6.0 * np.sqrt(2.0 * m)))[..., None] * dm \
            + (np.sqrt(2.0 * m) * g ** 2 / 2.0)[..., None] * dg

    return SurfaceTension(value=value, grad=grad)


@dataclass(frozen=True)
class ScalarSigma:
    """sigma of one scalar variable (radius or 1-d position)."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]

    def about(self, center) -> SurfaceTension:
        """Lift a radial profile to a SurfaceTension about ``center``."""
        c = np.asarray(center, dtype=float)

        def val(x):
            rho = np.linalg.norm(np.asarray(x) - c, axis=-1)
            return self.value(rho)

        def grad(x):
            dx = np.asarray(x, dtype=float) - c
            rho = np.maximum(np.linalg.norm(dx, axis=-1), 1e-300)
            return (self.deriv(rho) / rho)[..., None] * dx

        return SurfaceTension(value=val, grad=grad)

    def along_axis(self) -> SurfaceTension:
        """Lift to a SurfaceTension of the first coordinate x_0."""
        def val(x):
            return self.value(np.asarray(x)[..., 0])

        def grad(x):
            g = np.zeros(np.shape(x))
            g[..., 0] = self.deriv(np.asarray(x)[..., 0])
            return g

        return SurfaceTension(value=val, grad=grad)


def constant_scalar_sigma(c: float) -> ScalarSigma:
    return ScalarSigma(value=lambda r: c * np.ones_like(np.asarray(r, float)),
                       deriv=lambda r: np.zeros_like(np.asarray(r, float)))


def exponential_scalar_sigma(kappa: float, scale: float = 1.0) -> ScalarSigma:
    return ScalarSigma(value=lambda r: scale * np.exp(kappa * np.asarray(r, float)),
                       deriv=lambda r: scale * kappa * np.exp(kappa * np.asarray(r, float)))


# ---------------------------------------------------------------------------
# parametrized interfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point1D:
    """1-d point interface with the b-phase on its right."""

    p: float

    @property
    def dim(self) -> int:
        return 1

    def signed_distance(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        val = x[..., 0] if x.shape and x.shape[-1] == 1 else x
        return val - self.p

    def boundary_nodes(self, n: int = 1):
        pts = np.array([[self.p]])
        weights = np.array([1.0])
        normals = np.array([[1.0]])
        return pts, weights, normals


@dataclass(frozen=True)
class Sphere:
    """Ball-shaped b-phase A; the inner normal points toward the center."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def signed_distance(self, x) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.array(self.center)
        return self.radius - np.linalg.norm(dx, axis=-1)

    def boundary_nodes(self, n: int = 1024):
        """Uniform angular nodes with trapezoid weights (2-d spheres)."""
        if self.dim != 2:
            raise NotImplementedError("boundary quadrature implemented in 2-d")
        theta = 2.0 * np.pi * np.arange(n) / n
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = np.array(self.center) + self.radius * e
        weights = np.full(n, 2.0 * np.pi * self.radius / n)
        normals = -e
        return pts, weights, normals


def indicator(interface, x) -> np.ndarray:
    return (interface.signed_distance(x) > 0).astype(float)


def weighted_perimeter(interface, sigma: SurfaceTension,
                       n_nodes: int = 1024) -> float:
    """E = int_{boundary} sigma dH^{N-1}; sigma(p) for a 1-d point."""
    pts, weights, _ = interface.boundary_nodes(n_nodes)
    return float(np.sum(weights * sigma.value(pts)))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class SharpTrajectory:
    """Time-sampled interface with a dense position evaluator.

    ``positions`` holds R(t) for spheres or p(t) for 1-d points;
    ``velocities`` holds V in the n_A convention at the sample times.
    ``position`` and ``velocity`` raise GeometryError at any time outside
    [times[0], times[-1]] (to 1e-12 max(1, t_end)), where the trajectory
    was never computed.
    """

    kind: str                      # "sphere" | "point1d"
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    center: Optional[tuple] = None
    truncated: bool = False
    _dense: Optional[Callable] = None
    _vel: Optional[Callable] = None

    def _check_time(self, t: np.ndarray) -> None:
        lo, hi = float(self.times[0]), float(self.times[-1])
        slack = 1e-12 * max(1.0, hi)
        if t.ndim == 0:
            first = last = float(t)
        else:
            first, last = float(np.min(t)), float(np.max(t))
        if not (lo - slack <= first and last <= hi + slack):
            bad = last if lo - slack <= first else first
            raise GeometryError(f"time {bad:.6g} outside the trajectory's "
                                f"[{lo:.6g}, {hi:.6g}]")

    def position(self, t):
        t = np.asarray(t, dtype=float)
        self._check_time(t)
        if self._dense is not None:
            return self._dense(t)
        return np.interp(t, self.times, self.positions)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        self._check_time(t)
        if self._vel is not None:
            return self._vel(t)
        return np.interp(t, self.times, self.velocities)

    def interface_at(self, t):
        pos = float(self.position(t))
        if self.kind == "sphere":
            return Sphere(self.center, pos)
        return Point1D(pos)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def evolve_radial(r0: float, sigma: ScalarSigma, t_end: float,
                  tol: float = 1e-10, center=(0.0, 0.0)) -> SharpTrajectory:
    """Integrate dR/dt = -(N-1)/R - sigma'(R)/sigma(R) from R(0) = r0,
    with N = len(center), sampled at 257 times.

    Stops (and flags truncation) if R reaches 1e-3 before ``t_end``.
    For constant sigma the closed form is R(t) = sqrt(r0^2 - 2(N-1)t).
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    ndim = len(center)

    def rhs(_, y):
        r = y[0]
        return [-(ndim - 1) / r - float(sigma.deriv(r)) / float(sigma.value(r))]

    def extinction(_, y):
        return y[0] - 1e-3

    extinction.terminal = True

    sol = solve_ivp(rhs, (0.0, t_end), [r0], method="RK45", rtol=tol,
                    atol=tol, dense_output=True, events=[extinction])
    if not sol.success:
        raise NumericError("radial flow integration failed: " + sol.message)
    truncated = sol.status == 1
    t_stop = sol.t[-1]
    ts = np.linspace(0.0, t_stop, 257)
    rs = sol.sol(ts)[0]
    vel = np.array([-rhs(t, [r])[0] for t, r in zip(ts, rs)])  # V = -dR/dt

    def dense(t):
        tt = np.clip(np.asarray(t, dtype=float), 0.0, t_stop)
        return sol.sol(np.atleast_1d(tt))[0].reshape(np.shape(t))

    def vel_dense(t):
        r = dense(t)
        return (ndim - 1) / r + sigma.deriv(r) / sigma.value(r)

    return SharpTrajectory(kind="sphere", times=ts, positions=rs,
                           velocities=vel, center=tuple(center),
                           truncated=truncated, _dense=dense, _vel=vel_dense)


def evolve_point1d(p0: float, sigma: ScalarSigma, t_end: float,
                   tol: float = 1e-10) -> SharpTrajectory:
    """Integrate dp/dt = -sigma'(p)/sigma(p), sampled at 257 times; the
    point slides toward lower sigma. Truncates if p leaves [0, 1]."""

    def rhs(_, y):
        p = y[0]
        return [-float(sigma.deriv(p)) / float(sigma.value(p))]

    def exit_low(_, y):
        return y[0]

    def exit_high(_, y):
        return 1.0 - y[0]

    exit_low.terminal = True
    exit_high.terminal = True

    sol = solve_ivp(rhs, (0.0, t_end), [p0], method="RK45", rtol=tol,
                    atol=tol, dense_output=True, events=[exit_low, exit_high])
    if not sol.success:
        raise NumericError("point flow integration failed: " + sol.message)
    truncated = sol.status == 1
    t_stop = sol.t[-1]
    ts = np.linspace(0.0, t_stop, 257)
    ps = sol.sol(ts)[0]
    vel = np.array([rhs(t, [p])[0] for t, p in zip(ts, ps)])

    def dense(t):
        tt = np.clip(np.asarray(t, dtype=float), 0.0, t_stop)
        return sol.sol(np.atleast_1d(tt))[0].reshape(np.shape(t))

    def vel_dense(t):
        p = dense(t)
        return -sigma.deriv(p) / sigma.value(p)

    return SharpTrajectory(kind="point1d", times=ts, positions=ps,
                           velocities=vel, truncated=truncated,
                           _dense=dense, _vel=vel_dense)


# ---------------------------------------------------------------------------
# BV-solution residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeTest:
    """Scalar space-time test function with analytic time derivative."""

    value: Callable[[np.ndarray, float], np.ndarray]
    dt: Callable[[np.ndarray, float], np.ndarray]


def _bulk_integral(traj: SharpTrajectory, fn, t: float) -> float:
    """int_{A(t)} fn(x) dx for the disk A(t) of a radial trajectory
    (64 Gauss-Legendre radii times 128 angles)."""
    R = float(traj.position(t))
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(64)
    r = 0.5 * R * (gl_nodes + 1.0)
    wr = 0.5 * R * gl_w
    theta = 2.0 * np.pi * np.arange(128) / 128
    wt = 2.0 * np.pi / 128
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.array(traj.center) + r[:, None, None] * e[None, :, :]
    vals = fn(pts)
    return float(np.sum(vals * r[:, None] * wr[:, None] * wt))


def transport_residual(traj: SharpTrajectory, zeta: SpaceTimeTest,
                       t_prime: float, n_t: int = 512) -> float:
    """LHS - RHS of the distributional normal-velocity identity.

    LHS: int_{A(T')} zeta(., T') - int_{A(0)} zeta(., 0)
    RHS: int_0^T' int_{A(t)} dt_zeta dx dt
         - int_0^T' int_{boundary} V zeta dH dt

    Time quadrature is the trapezoid rule on ``n_t`` intervals (second
    order under step halving); the boundary integral takes 256 nodes.
    Raises GeometryError for a trajectory that is not radial.
    """
    if traj.kind != "sphere":
        raise GeometryError("transport residuals are computed for radial "
                            "flows")
    lhs = (_bulk_integral(traj, lambda x: zeta.value(x, t_prime), t_prime)
           - _bulk_integral(traj, lambda x: zeta.value(x, 0.0), 0.0))

    ts = np.linspace(0.0, t_prime, n_t + 1)

    def integrand(t):
        bulk = _bulk_integral(traj, lambda x: zeta.dt(x, t), t)
        iface = traj.interface_at(t)
        pts, w, _ = iface.boundary_nodes(256)
        v = float(traj.velocity(t))
        surf = float(np.sum(w * v * zeta.value(pts, t)))
        return bulk - surf

    vals = np.array([integrand(t) for t in ts])
    rhs = float(np.trapezoid(vals, ts))
    return lhs - rhs


def motion_law_residual(interface, V, sigma: SurfaceTension, psi) -> float:
    """Boundary quadrature (1024 nodes) of
       int sigma V (psi . n) + int sigma (Id - n x n):grad psi
       + int grad sigma . psi,
    which vanishes for true solutions of the weighted flow."""
    pts, w, normals = interface.boundary_nodes(1024)
    V = np.broadcast_to(np.asarray(V, dtype=float), w.shape)
    sig = sigma.value(pts)
    psi_vals = psi.psi(pts)
    jac = psi.jac(pts)
    tr = np.trace(jac, axis1=-2, axis2=-1)
    n_jn = np.einsum("...i,...ij,...j->...", normals, jac, normals)
    term_v = np.sum(w * sig * V * np.sum(psi_vals * normals, axis=-1))
    term_curv = np.sum(w * sig * (tr - n_jn))
    term_grad = np.sum(w * np.sum(sigma.grad(pts) * psi_vals, axis=-1))
    return float(term_v + term_curv + term_grad)


def dissipation_check(traj: SharpTrajectory, sigma: SurfaceTension,
                      t_prime: float, n_t: int = 1024,
                      velocity_scale: float = 1.0) -> float:
    """Slack E[0] - (E[T'] + int_0^T' int sigma V^2) of the optimal
    dissipation inequality; >= -tol for admissible flows.

    Time quadrature is the trapezoid rule on ``n_t`` intervals, and every
    boundary integral takes 512 nodes. ``velocity_scale`` rescales V
    inside the dissipation integral only (used to demonstrate that
    inflated velocities violate the inequality).
    """
    ts = np.linspace(0.0, t_prime, n_t + 1)

    def diss(t):
        iface = traj.interface_at(t)
        pts, w, _ = iface.boundary_nodes(512)
        v = velocity_scale * float(traj.velocity(t))
        return float(np.sum(w * sigma.value(pts) * v * v))

    vals = np.array([diss(t) for t in ts])
    integral = float(np.trapezoid(vals, ts))
    e_end = weighted_perimeter(traj.interface_at(t_prime), sigma, 512)
    e_start = weighted_perimeter(traj.interface_at(0.0), sigma, 512)
    return e_start - (e_end + integral)
