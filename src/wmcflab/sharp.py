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

and for a 1-d point interface dp/dt = -sigma'(p)/sigma(p). Where
sigma'/sigma is one constant kappa (``ScalarSigma.log_slope``: sigma =
c exp(kappa x), or a constant sigma with kappa = 0), the point's law is
the line p(t) = p0 - kappa t, which ``evolve_point1d`` returns in closed
form. Every other exact reference comes from one integrator
(``_integrate``): each flow states only its rate law, its stop events and
the sign relating V to dy/dt. A flow that reaches a stop (extinction, or
an end of [0, 1]) before t_end raises GeometryError naming the stop time,
so every trajectory spans [0, t_end].

sigma is held once, as the flow's profile: ``SharpTrajectory.profile``
is the ``ScalarSigma`` the flow was solved with, and a sphere's field of
x, ``SharpTrajectory.sigma``, is derived from it. The radial rules
(``dissipation_check`` and the concentric bulk energy of ``calib``) read
the profile at radii; the rules on nodes and point clouds read the
field. Static geometry (``Sphere``, ``Point1D``) carries none, so the
pairings on one interface take sigma.

The sharp first variation of E = int sigma d|grad chi_A| along a test
field psi is written once, as ``sharp_first_variation``:

    delta E(psi) = -int sigma (Id - n x n):grad psi dH
                   - int grad sigma . psi dH.

Theorem 3.1 compares the diffuse first variations with it, and the
motion law of a BV solution (Definition 4.2) is its pairing with the
velocity: ``motion_law_residual`` is
int sigma V (psi . n) dH - delta E(psi), zero for a true solution.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, NumericError
from .quadrature import adaptive_gauss_legendre, gauss_legendre
from .testfields import TestVectorField
from .wells import (WellSpec, _checked_gap, as_points, grad_gamma,
                    point_norm, surface_tension)


# ---------------------------------------------------------------------------
# surface tension as an evaluable field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceTension:
    """sigma and grad sigma as position callables ((..., d) -> ... )."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def sigma_from_well(spec: WellSpec, tol: float = 1e-10) -> SurfaceTension:
    """sigma by adaptive quadrature of the well; grad sigma by differentiating
    under the integral: with s = a + gamma t,

        grad sigma(x) = int_0^1 gamma partial_x W(x, s) / sqrt(2 W(x, s)) dt,

    one quadrature per position and component (the endpoint terms of
    d/dx int_a^b vanish since W = 0 on the wells).
    """
    def value(x):
        return surface_tension(spec, x, tol=tol)

    def component(p, j):
        a = spec.a(p)
        g = spec.b(p) - a

        def integrand(t):
            u = a + g * t
            w = np.maximum(spec.W(p, u), 1e-300)
            return g * spec.dW_dx(p, u)[:, j] / np.sqrt(2.0 * w)

        return adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)[0]

    def grad(x):
        x = as_points(x)
        _checked_gap(spec.amplitude(x), spec.a(x), spec.b(x))
        pts = x.reshape(-1, x.shape[-1])
        return np.array([[component(p, j) for j in range(pts.shape[-1])]
                         for p in pts]).reshape(x.shape)

    return SurfaceTension(value=value, grad=grad)


def sigma_field_of(spec: WellSpec) -> SurfaceTension:
    """Surface tension of a well in closed form,
    sigma = sqrt(2 m) gamma^3 / 6; ``sigma_from_well`` is the quadrature
    route to the same field. Both raise GeometryError at positions outside
    the double well."""
    def value(x):
        return spec.sigma_exact(x)

    def grad(x):
        x = as_points(x)
        m = spec.amplitude(x)
        g = _checked_gap(m, spec.a(x), spec.b(x))
        dm = spec.grad_amplitude(x)
        dg = grad_gamma(spec, x)
        return (g ** 3 / (6.0 * np.sqrt(2.0 * m)))[..., None] * dm \
            + (np.sqrt(2.0 * m) * g ** 2 / 2.0)[..., None] * dg

    return SurfaceTension(value=value, grad=grad)


@dataclass(frozen=True)
class ScalarSigma:
    """sigma of one scalar variable (radius or 1-d position).

    ``log_slope`` is sigma'/sigma when that ratio is the same constant
    everywhere (sigma = c exp(log_slope r)), and None otherwise; with it
    set, ``evolve_point1d`` returns the exact line instead of integrating.
    It must agree with ``value`` and ``deriv``, which the lift, the
    radial rules and every other flow read.
    """

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    log_slope: Optional[float] = None

    def about(self, center) -> SurfaceTension:
        """Lift a radial profile to a SurfaceTension about ``center``."""
        c = np.asarray(center, dtype=float)

        def val(x):
            rho = point_norm(np.asarray(x) - c)
            return self.value(rho)

        def grad(x):
            dx = np.asarray(x, dtype=float) - c
            rho = np.maximum(point_norm(dx), 1e-300)
            return (self.deriv(rho) / rho)[..., None] * dx

        return SurfaceTension(value=val, grad=grad)


def constant_scalar_sigma(c: float) -> ScalarSigma:
    return ScalarSigma(value=lambda r: c * np.ones_like(np.asarray(r, float)),
                       deriv=lambda r: np.zeros_like(np.asarray(r, float)),
                       log_slope=0.0)


def exponential_scalar_sigma(kappa: float, scale: float = 1.0) -> ScalarSigma:
    return ScalarSigma(value=lambda r: scale * np.exp(kappa * np.asarray(r, float)),
                       deriv=lambda r: scale * kappa * np.exp(kappa * np.asarray(r, float)),
                       log_slope=float(kappa))


# ---------------------------------------------------------------------------
# parametrized interfaces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _unit_circle(n: int) -> np.ndarray:
    """The n unit directions (cos, sin) at angles 2 pi k / n, shape (n, 2);
    built once per n and read-only, since every caller shares it."""
    theta = 2.0 * np.pi * np.arange(n) / n
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    e.flags.writeable = False
    return e


@dataclass(frozen=True)
class Point1D:
    """1-d point interface with the b-phase on its right."""

    p: float

    def __post_init__(self):
        if not abs(self.p) < np.inf:  # NaN fails too
            raise ValueError(f"position must be finite, got {self.p!r}")

    def signed_distance(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        val = x[..., 0] if x.shape and x.shape[-1] == 1 else x
        return val - self.p

    def margin(self, grid) -> float:
        """Distance from the point to the nearer end of ``grid``;
        GeometryError unless ``grid`` is 1-d."""
        if grid.dim != 1:
            raise GeometryError(f"a 1-d point interface on a {grid.dim}-d "
                                f"grid")
        return min(self.p - grid.lower[0], grid.upper[0] - self.p)

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
        if not all(abs(c) < np.inf for c in self.center):  # NaN fails too
            raise ValueError(f"center must be finite, got {self.center!r}")
        if not 0.0 < self.radius < np.inf:  # NaN fails too
            raise ValueError(f"radius must be finite and positive, got "
                             f"{self.radius!r}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def signed_distance(self, x) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.array(self.center)
        return self.radius - point_norm(dx)

    def margin(self, grid) -> float:
        """Distance from the sphere to the nearest wall of ``grid``;
        GeometryError unless ``grid`` has the sphere's dimension."""
        if grid.dim != self.dim:
            raise GeometryError(f"a {self.dim}-d sphere on a {grid.dim}-d "
                                f"grid")
        gaps = []
        for ax in range(grid.dim):
            c = self.center[ax]
            gaps.append(min(c - grid.lower[ax], grid.upper[ax] - c))
        return min(gaps) - self.radius

    def boundary_nodes(self, n: int = 1024):
        """Uniform angular nodes with trapezoid weights (2-d spheres).

        The unit directions come from a read-only table built once per
        ``n``; the returned arrays are fresh. Raises GeometryError for a
        sphere that is not a 2-d circle.
        """
        if self.dim != 2:
            raise GeometryError(f"boundary quadrature needs a 2-d circle, "
                                f"got a {self.dim}-d sphere")
        e = _unit_circle(n)
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

@dataclass(frozen=True)
class SharpTrajectory:
    """Time-sampled interface with dense position and velocity evaluators.

    ``positions`` holds R(t) for spheres or p(t) for 1-d points at the
    sample ``times``. ``profile`` is the ScalarSigma the flow was solved
    with, its one sigma; for a sphere ``sigma`` is that profile as a
    field of x, lifted about ``center`` and built from it on first use,
    and a point trajectory's raises GeometryError, since no rule reads a
    field of its profile. The trajectory is frozen, so the two cannot go
    out of step, and one made by ``dataclasses.replace`` with another
    profile reads that one.

    ``position`` and ``velocity`` (V in the n_A convention) evaluate the
    flow's dense callables ``_dense`` and ``_vel`` at any time in
    [times[0], times[-1]] and raise GeometryError outside it (to 1e-12
    max(1, times[-1])), where the trajectory was never computed. The flows
    here span [0, t_end] exactly, or raise where they would stop.

    ``position(ts)`` on an array and ``position(t)`` at each scalar of it
    can differ by one ulp at a few times (scipy's dense output evaluates
    the two forms in different operation orders), so two routes that must
    agree bitwise should read one evaluation.
    """

    times: np.ndarray
    positions: np.ndarray
    profile: ScalarSigma
    _dense: Callable
    _vel: Callable
    center: Optional[tuple] = None  # None for a 1-d point

    def _check_time(self, t) -> np.ndarray:
        """``t`` as a float array; GeometryError outside the window."""
        t = np.asarray(t, dtype=float)
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
        return t

    @cached_property
    def sigma(self) -> SurfaceTension:
        if self.center is None:
            raise GeometryError("a point trajectory carries its profile, "
                                "not a sigma field")
        return self.profile.about(self.center)

    def position(self, t):
        return self._dense(self._check_time(t))

    def velocity(self, t):
        return self._vel(self._check_time(t))

    def interface_at(self, t):
        pos = float(self.position(t))
        if self.center is None:
            return Point1D(pos)
        return Sphere(self.center, pos)


def _stopped_early(t_stop: float, t_end: float) -> GeometryError:
    """A check past the stop would read what was never computed."""
    return GeometryError(f"sharp reference stops at t = {float(t_stop)!r}, "
                         f"before t_end = {float(t_end)!r}")


def _integrate(rate, y0: float, t_end: float, tol: float, stops, sign: float,
               bounds=None, **fields) -> SharpTrajectory:
    """The one integrator behind both reference flows: dy/dt = rate(y)
    from y(0) = y0 to ``t_end`` by RK45 at rtol = atol = ``tol``.
    Position is the dense interpolant, clipped to ``bounds`` when given,
    and V = sign * rate(position), at any time; positions are sampled at
    257 times, and ``fields`` (profile, center) go to the SharpTrajectory.
    GeometryError, naming the stop time, when a ``stops`` function of y
    reaches zero before ``t_end``; NumericError when the solver fails, or
    when it cannot locate a stop it stepped across."""
    from scipy.integrate import solve_ivp

    def event(stop):
        def at_zero(_, y):
            return stop(y[0])
        at_zero.terminal = True
        return at_zero

    try:
        sol = solve_ivp(lambda _, y: [rate(y[0])], (0.0, t_end), [y0],
                        method="RK45", rtol=tol, atol=tol, dense_output=True,
                        events=[event(stop) for stop in stops])
    except ValueError as exc:
        # a stop that changes sign over a step but, read through the dense
        # output at both ends of the step, does not (a zero within rounding
        # of the step end): brentq refuses the bracket
        if "different signs" not in str(exc):
            raise
        raise NumericError("sharp flow stop not located: " + str(exc)) from exc
    if not sol.success:
        raise NumericError("sharp flow integration failed: " + sol.message)
    if sol.status == 1:
        raise _stopped_early(sol.t[-1], t_end)

    def position(t):
        tt = np.clip(np.asarray(t, dtype=float), 0.0, t_end)
        y = sol.sol(np.atleast_1d(tt))[0].reshape(np.shape(t))
        return y if bounds is None else np.clip(y, *bounds)

    ts = np.linspace(0.0, t_end, 257)
    return SharpTrajectory(times=ts, positions=position(ts), _dense=position,
                           _vel=lambda t: sign * rate(position(t)), **fields)


def evolve_radial(r0: float, sigma: ScalarSigma, t_end: float,
                  tol: float = 1e-10, center=(0.0, 0.0)) -> SharpTrajectory:
    """Integrate dR/dt = -(N-1)/R - sigma'(R)/sigma(R) from R(0) = r0,
    with N = len(center), sampled at 257 times; V = -dR/dt.

    GeometryError if R reaches 1e-3 before ``t_end``. For constant sigma
    the closed form is R(t) = sqrt(r0^2 - 2(N-1)t).
    ValueError unless r0 and t_end are finite and positive.
    """
    if not 0.0 < r0 < np.inf:  # NaN fails too
        raise ValueError(f"r0 must be finite and positive, got {r0!r}")
    if not 0.0 < t_end < np.inf:  # RK45 never returns from a NaN t_end
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    ndim = len(center)
    return _integrate(
        lambda r: -(ndim - 1) / r - sigma.deriv(r) / sigma.value(r),
        r0, t_end, tol, [lambda r: r - 1e-3], -1.0,
        profile=sigma, center=tuple(center))


def evolve_point1d(p0: float, sigma: ScalarSigma, t_end: float,
                   tol: float = 1e-10) -> SharpTrajectory:
    """The flow dp/dt = -sigma'(p)/sigma(p), sampled at 257 times; the
    point slides toward lower sigma, and V = dp/dt. GeometryError if p
    reaches 0 or 1, an end of [0, 1], before ``t_end``; ValueError unless
    p0 lies inside (0, 1) and t_end is finite and positive.

    With ``sigma.log_slope`` set (kappa = sigma'/sigma constant) the law
    is exact: p(t) = p0 - kappa t and V = -kappa, with no solver and no
    SciPy import; it reaches an end at p0/kappa or (p0 - 1)/kappa. Any
    other sigma is integrated by RK45 at rtol = atol = ``tol``
    (NumericError if a stop at an end cannot be located). Both clip
    positions to [0, 1] against rounding at an end reached at t_end and
    times to [0, t_end], and raise the same errors outside the
    trajectory's window.
    """
    if not 0.0 < p0 < 1.0:  # NaN fails too
        raise ValueError(f"p0 must lie inside (0, 1), got {p0!r}")
    if not 0.0 < t_end < np.inf:  # RK45 never returns from a NaN t_end
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    kappa = sigma.log_slope
    if kappa is None:
        return _integrate(lambda p: -sigma.deriv(p) / sigma.value(p),
                          p0, t_end, tol, [lambda p: p, lambda p: 1.0 - p],
                          1.0, (0.0, 1.0), profile=sigma)
    # the times the line reaches 0 and 1; a point at rest reaches neither
    ends = (p0 / kappa, (p0 - 1.0) / kappa) if kappa else ()
    hits = [t for t in ends if 0.0 <= t < t_end]
    if hits:
        raise _stopped_early(min(hits), t_end)

    def position(t):
        # p0 - kappa t_end can round past an end the line reaches at t_end
        p = p0 - kappa * np.clip(np.asarray(t, dtype=float), 0.0, t_end)
        return np.clip(p, 0.0, 1.0)

    ts = np.linspace(0.0, t_end, 257)
    return SharpTrajectory(times=ts, positions=position(ts), _dense=position,
                           _vel=lambda t: np.full(np.shape(t), -kappa),
                           profile=sigma)


# ---------------------------------------------------------------------------
# BV-solution residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeTest:
    """Scalar space-time test function with analytic time derivative.

    Both callables map points (..., d) and a time to values (...).
    ``value`` must also take an array of times that broadcasts against
    the points' leading axes: ``transport_residual`` passes one time per
    row of a (times x nodes) block.
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    dt: Callable[[np.ndarray, float], np.ndarray]


# Times per block of transport_residual's boundary sums: a block holds
# _TIME_BLOCK x 256 x 2 node coordinates (0.25 MB), however long the time
# grid is. 64 ran a 4 097-time sum over 512-node circles about 15 %
# faster than 128 on a 2-core AMD EPYC VM; it was not measured again on
# 256 nodes. The sums' bits do not depend on it.
_TIME_BLOCK = 64


def _require_disk(traj: SharpTrajectory, what: str) -> None:
    """Raise GeometryError unless ``traj`` is a radial 2-d flow, the only
    geometry the disk and circle rules here integrate over."""
    dim = 1 if traj.center is None else len(traj.center)
    if dim != 2:
        raise GeometryError(f"{what} are computed for radial 2-d flows, "
                            f"got a {dim}-d trajectory")


def _sampled(traj: SharpTrajectory, t_prime: float, n_t: int, what: str):
    """(center, ts, R, V) on the n_t + 1 trapezoid times ts on [0, t_prime].
    Raises GeometryError unless ``traj`` is radial in 2-d, and ValueError
    for n_t < 1: the one time t = 0 would compare R(0) with R(0) and pass."""
    _require_disk(traj, what)
    if n_t < 1:
        raise ValueError(f"{what} need n_t >= 1, got {n_t!r}")
    ts = np.linspace(0.0, t_prime, n_t + 1)
    return np.array(traj.center), ts, traj.position(ts), traj.velocity(ts)


def _bulk_integral(center: np.ndarray, radius: float, fn) -> float:
    """int_{A} fn(x) dx for the disk A of ``radius`` about ``center``, by
    one fixed disk rule: 64 Gauss-Legendre radii times 128 angles."""
    nodes, weights = gauss_legendre(64)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights
    pts = center + r[:, None, None] * _unit_circle(128)[None, :, :]
    vals = fn(pts)
    return float(np.sum(vals * r[:, None] * wr[:, None] * (2.0 * np.pi / 128)))


def _circle_blocks(center: np.ndarray, radii: np.ndarray, n: int):
    """Yield (rows, pts, w) for blocks of at most _TIME_BLOCK circles: the
    slice of ``radii`` in the block, their n boundary nodes (rows x n x 2)
    and trapezoid weights (rows x 1), the values Sphere.boundary_nodes
    gives circle by circle."""
    e = _unit_circle(n)
    for lo in range(0, len(radii), _TIME_BLOCK):
        rows = slice(lo, lo + _TIME_BLOCK)
        r = radii[rows, None]
        yield rows, center + r[..., None] * e, 2.0 * np.pi * r / n


def transport_residual(traj: SharpTrajectory, zeta: SpaceTimeTest,
                       t_prime: float, n_t: int = 512) -> float:
    """LHS - RHS of the distributional normal-velocity identity.

    LHS: int_{A(T')} zeta(., T') - int_{A(0)} zeta(., 0)
    RHS: int_0^T' int_{A(t)} dt_zeta dx dt
         - int_0^T' int_{boundary} V zeta dH dt

    Time quadrature is the trapezoid rule on ``n_t`` intervals (second
    order under step halving), with R and V evaluated once on the whole
    grid. The bulk term is one disk quadrature per sample, on one fixed
    rule; the boundary integral takes 256 nodes and is summed over blocks
    of _TIME_BLOCK times, each row over its own nodes. Raises
    GeometryError unless the flow is radial in 2-d, ValueError for n_t < 1.
    """
    center, ts, radii, v = _sampled(traj, t_prime, n_t, "transport residuals")
    lhs = (_bulk_integral(center, radii[-1], lambda x: zeta.value(x, t_prime))
           - _bulk_integral(center, radii[0], lambda x: zeta.value(x, 0.0)))
    bulk = np.array([_bulk_integral(center, r, lambda x: zeta.dt(x, t))
                     for t, r in zip(ts, radii)])
    surf = np.empty_like(ts)
    for rows, pts, w in _circle_blocks(center, radii, 256):
        surf[rows] = np.sum(w * v[rows, None] * zeta.value(pts, ts[rows, None]),
                            axis=-1)
    rhs = float(np.trapezoid(bulk - surf, ts))
    return lhs - rhs


def sharp_first_variation(interface, sigma: SurfaceTension,
                          psi: TestVectorField) -> float:
    """The sharp pairing delta E(psi) =
       -int sigma (Id - n x n):grad psi dH - int grad sigma . psi dH,
    by boundary quadrature on 1024 nodes."""
    pts, w, normals = interface.boundary_nodes(1024)
    jac = psi.jac(pts)
    tr = np.trace(jac, axis1=-2, axis2=-1)
    njn = np.einsum("...i,...ij,...j->...", normals, jac, normals)
    curv = -np.sum(w * sigma.value(pts) * (tr - njn))
    grad = -np.sum(w * np.sum(sigma.grad(pts) * psi.psi(pts), axis=-1))
    return float(curv + grad)


def motion_law_residual(interface, V, sigma: SurfaceTension,
                        psi: TestVectorField) -> float:
    """int sigma V (psi . n) dH - delta E(psi) on the same 1024 nodes,
    which vanishes for true solutions of the weighted flow."""
    pts, w, normals = interface.boundary_nodes(1024)
    V = np.broadcast_to(np.asarray(V, dtype=float), w.shape)
    term_v = np.sum(w * sigma.value(pts) * V
                    * np.sum(psi.psi(pts) * normals, axis=-1))
    return float(term_v - sharp_first_variation(interface, sigma, psi))


def dissipation_check(traj: SharpTrajectory, t_prime: float,
                      n_t: int = 1024, velocity_scale: float = 1.0) -> float:
    """Slack E[0] - (E[T'] + int_0^T' int sigma V^2) of the optimal
    dissipation inequality, with the trajectory's own sigma; >= -tol for
    admissible flows.

    Time quadrature is the trapezoid rule on ``n_t`` intervals, with R
    and V evaluated once on the whole grid. sigma is the flow's radial
    profile, so the circle of radius R contributes 2 pi R sigma(R) V^2,
    with the profile read once per time at R; the energies E take 512
    boundary nodes of its lift. ``velocity_scale`` rescales V inside
    the dissipation integral only (used to demonstrate that inflated
    velocities violate the inequality). Raises GeometryError unless the
    flow is radial in 2-d, ValueError for n_t < 1.
    """
    _, ts, radii, v = _sampled(traj, t_prime, n_t, "dissipation checks")
    v = velocity_scale * v
    # (2 pi R) sigma V V: the first product is new, the rest go in place
    vals = 2.0 * np.pi * radii
    vals *= traj.profile.value(radii)
    vals *= v
    vals *= v
    integral = float(np.trapezoid(vals, ts))
    e_end = weighted_perimeter(traj.interface_at(t_prime), traj.sigma, 512)
    e_start = weighted_perimeter(traj.interface_at(0.0), traj.sigma, 512)
    return e_start - (e_end + integral)
