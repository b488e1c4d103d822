"""Sharp-interface flows and BV-solution residuals against closed forms."""

import dataclasses
import re

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import calib, quadrature, sharp, wells
from wmcflab.errors import GeometryError, NumericError
from wmcflab.experiments import _unit_box
from wmcflab.testfields import dilation_field, rotation_field, translation_field

from fieldcheck import zero_field

SQRT2_6 = 0.23570226039551587
CENTER = (0.5, 0.5)


def const_sigma2d(c=SQRT2_6):
    return sharp.constant_scalar_sigma(c).about(CENTER)


def stop_time(error) -> float:
    """The stop time a sharp flow's GeometryError names, read back from
    its repr."""
    found = re.fullmatch(r"sharp reference stops at t = (\S+), "
                         r"before t_end = \S+", str(error))
    assert found, str(error)
    return float(found.group(1))


# Per-sample loop forms of transport_residual and dissipation_check: an
# interface, its boundary nodes and a fresh quadrature table per time
# sample. The references the blocked transport sums and the radial
# dissipation rule are checked against.
# Like the library, each reads R and V from one evaluation on its time
# grid: the dense output at a scalar time can differ from the same time
# in an array by one ulp (see SharpTrajectory).

# The 64 Gauss-Legendre radii on [0, 1] and 128 unit directions of the
# loop's disk rule, built here with numpy once, not by the library's
# tables, so the reference shares no code with the library
_GL_NODES, _GL_W = np.polynomial.legendre.leggauss(64)
_THETA = 2.0 * np.pi * np.arange(128) / 128
_DIRECTIONS = np.stack([np.cos(_THETA), np.sin(_THETA)], axis=-1)


def _bulk_integral_loop(traj, fn, R):
    r = 0.5 * R * (_GL_NODES + 1.0)
    wr = 0.5 * R * _GL_W
    pts = np.array(traj.center) + r[:, None, None] * _DIRECTIONS[None, :, :]
    return float(np.sum(fn(pts) * r[:, None] * wr[:, None]
                        * (2.0 * np.pi / 128)))


def transport_residual_loop(traj, zeta, t_prime, n_t):
    ts = np.linspace(0.0, t_prime, n_t + 1)
    radii, vels = traj.position(ts), traj.velocity(ts)
    lhs = (_bulk_integral_loop(traj, lambda x: zeta.value(x, t_prime),
                               radii[-1])
           - _bulk_integral_loop(traj, lambda x: zeta.value(x, 0.0), radii[0]))

    def integrand(t, R, v):
        bulk = _bulk_integral_loop(traj, lambda x: zeta.dt(x, t), R)
        pts, w, _ = sharp.Sphere(traj.center, R).boundary_nodes(256)
        return bulk - float(np.sum(w * v * zeta.value(pts, t)))

    vals = np.array([integrand(*tRv) for tRv in zip(ts, radii, vels)])
    return lhs - float(np.trapezoid(vals, ts))


def dissipation_check_loop(traj, t_prime, n_t, velocity_scale=1.0):
    sigma = traj.sigma
    ts = np.linspace(0.0, t_prime, n_t + 1)

    def diss(R, v):
        pts, w, _ = sharp.Sphere(traj.center, R).boundary_nodes(512)
        v = velocity_scale * v
        return float(np.sum(w * sigma.value(pts) * v * v))

    vals = [diss(R, v) for R, v in zip(traj.position(ts), traj.velocity(ts))]
    integral = float(np.trapezoid(np.array(vals), ts))
    e_end = sharp.weighted_perimeter(traj.interface_at(t_prime), sigma, 512)
    e_start = sharp.weighted_perimeter(traj.interface_at(0.0), sigma, 512)
    return e_start - (e_end + integral)


class TestWeightedPerimeter:
    def test_circle_constant_sigma(self):
        circle = sharp.Sphere(CENTER, 0.3)
        val = sharp.weighted_perimeter(circle, const_sigma2d())
        assert_allclose(val, 2 * np.pi * 0.3 * SQRT2_6, rtol=1e-12)

    def test_point_returns_local_sigma(self):
        # m = exp(x_0), so sigma = (sqrt(2) / 6) exp(x_0 / 2)
        sig = sharp.sigma_field_of(wells.exp_scaled_quartic(0.5))
        val = sharp.weighted_perimeter(sharp.Point1D(0.3), sig)
        assert_allclose(val, SQRT2_6 * np.exp(0.15), rtol=1e-12)

    def test_constant_factors_out(self):
        circle = sharp.Sphere(CENTER, 0.17)
        v1 = sharp.weighted_perimeter(circle, const_sigma2d(1.0))
        v2 = sharp.weighted_perimeter(circle, const_sigma2d(2.5))
        assert_allclose(v2, 2.5 * v1, rtol=1e-13)


class TestEvolveRadial:
    def test_constant_sigma_closed_form(self):
        sig = sharp.constant_scalar_sigma(SQRT2_6)
        traj = sharp.evolve_radial(0.4, sig, 0.06, tol=1e-12)
        assert traj.position(0.06) == pytest.approx(0.2, abs=1e-9)
        # V = -dR/dt = 1/R
        assert traj.velocity(0.06) == pytest.approx(5.0, abs=1e-7)

    def test_outward_increasing_sigma_shrinks_faster(self):
        sig_c = sharp.constant_scalar_sigma(1.0)
        sig_e = sharp.exponential_scalar_sigma(2.0)
        r_const = sharp.evolve_radial(0.4, sig_c, 0.02, tol=1e-12).position(0.02)
        r_exp = sharp.evolve_radial(0.4, sig_e, 0.02, tol=1e-12).position(0.02)
        assert r_exp < r_const

    def test_short_time_taylor(self):
        sig = sharp.exponential_scalar_sigma(0.7)
        t = 1e-4
        traj = sharp.evolve_radial(0.5, sig, t, tol=1e-13)
        expected = 0.5 - (1.0 / 0.5 + 0.7) * t
        assert traj.position(t) == pytest.approx(expected, abs=5e-7)

    def test_extinction_raises(self):
        # R reaches the 1e-3 floor at (0.05^2 - 1e-6) / 2 = 1.2495e-3, long
        # before t_end = 1: no trajectory, so no check reads past the stop
        sig = sharp.constant_scalar_sigma(1.0)
        with pytest.raises(GeometryError, match="before t_end = 1.0") as info:
            sharp.evolve_radial(0.05, sig, 1.0, tol=1e-10)
        assert abs(stop_time(info.value) - 1.2495e-3) <= 1e-9

    def test_times_outside_the_trajectory_raise(self):
        # nothing was computed outside [0, t_end]; clamping t there would
        # answer R(t_end) for every later time
        sig = sharp.constant_scalar_sigma(1.0)
        near_extinction = sharp.evolve_radial(0.05, sig, 1e-3, tol=1e-10)
        full = sharp.evolve_radial(0.4, sig, 0.04, tol=1e-12)
        sampled = sharp.SharpTrajectory(times=np.linspace(0.0, 0.5, 5),
                                        positions=np.linspace(0.4, 0.2, 5),
                                        profile=sig,
                                        _dense=lambda t: 0.4 - 0.4 * t,
                                        _vel=lambda t: np.full(np.shape(t),
                                                               -0.4))
        for traj in (near_extinction, full, sampled):
            t_end = traj.times[-1]
            for t in (t_end + 1e-9, -1e-9, 1.0 + t_end, np.nan,
                      np.array([0.0, t_end + 1e-9])):
                with pytest.raises(GeometryError, match="outside"):
                    traj.position(t)
                with pytest.raises(GeometryError, match="outside"):
                    traj.velocity(t)
            # the ends themselves, and rounding just past them, still answer
            for t in (0.0, t_end, t_end * (1 + 1e-15), -1e-15,
                      np.array([0.0, t_end])):
                assert np.all(np.isfinite(traj.position(t)))
                assert np.all(np.isfinite(traj.velocity(t)))

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_radius_must_be_finite_and_positive(self, r):
        # NaN fails every <= comparison, so a guard of r <= 0 let it pass
        with pytest.raises(ValueError, match="finite and positive"):
            sharp.Sphere(CENTER, r)
        with pytest.raises(ValueError, match="finite and positive"):
            sharp.evolve_radial(r, sharp.constant_scalar_sigma(1.0), 0.01,
                                center=CENTER)

    @pytest.mark.parametrize("center", [(0.5, np.nan), (np.nan, 0.5),
                                        (np.inf, 0.5), (0.5, -np.inf)])
    def test_center_must_be_finite(self, center):
        # a NaN on axis 1 used to read as no wall (margin 0.3 in the unit
        # box) and one on axis 0 as a NaN margin; either way the build
        # failed later, naming the profile's arclength
        with pytest.raises(ValueError, match="center must be finite"):
            sharp.Sphere(center, 0.2)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
def test_point_position_must_be_finite(p):
    with pytest.raises(ValueError, match="position must be finite"):
        sharp.Point1D(p)


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("route", ["radial", "exact line", "rk45 point"])
def test_t_end_must_be_finite_and_positive(route, t_end, monkeypatch):
    # a NaN t_end kept RK45 stepping forever, and the exact line returned
    # a trajectory of NaN times
    import scipy.integrate

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", no_solve)
    sig = sharp.exponential_scalar_sigma(1.0)
    start = {"radial": lambda: sharp.evolve_radial(0.4, sig, t_end,
                                                   center=CENTER),
             "exact line": lambda: sharp.evolve_point1d(0.5, sig, t_end),
             "rk45 point": lambda: sharp.evolve_point1d(
                 0.5, dataclasses.replace(sig, log_slope=None), t_end)}
    with pytest.raises(ValueError, match="t_end must be finite and positive"):
        start[route]()


@settings(max_examples=200, deadline=None)
@given(hst.sampled_from(["radial", "exact line", "rk45 point"]),
       hst.floats(0.01, 0.99),
       hst.one_of(hst.floats(-10.0, -1e-3), hst.floats(1e-3, 10.0)),
       hst.floats(1e-3, 2.0))
def test_flows_span_t_end_or_name_their_stop(route, start, kappa, t_end):
    # every trajectory spans [0, t_end]; a flow that would stop earlier
    # raises at its closed-form stop: (r0^2 - 1e-6) / 2 for the disk of
    # constant sigma in 2-d, p0 / kappa or (p0 - 1) / kappa for the point,
    # which the exact line names to the bit and RK45 to 1e-9
    if route == "radial":
        closed = (start ** 2 - 1e-6) / 2.0
        sig = sharp.constant_scalar_sigma(SQRT2_6)
        flow = lambda: sharp.evolve_radial(start, sig, t_end, tol=1e-12,
                                           center=CENTER)
    else:
        closed = min(t for t in (start / kappa, (start - 1.0) / kappa)
                     if t >= 0.0)
        sig = sharp.exponential_scalar_sigma(kappa)
        if route == "rk45 point":
            sig = dataclasses.replace(sig, log_slope=None)
        flow = lambda: sharp.evolve_point1d(start, sig, t_end, tol=1e-12)
    assume(abs(closed - t_end) > 1e-9)  # within the solver's reach of t_end
    try:
        traj = flow()
    except NumericError:  # a stop within rounding of a step end
        assume(False)
    except GeometryError as error:
        assert closed < t_end
        if route == "exact line":
            assert stop_time(error) == closed
        else:
            assert abs(stop_time(error) - closed) <= 1e-9
        return
    assert closed > t_end
    assert traj.times[-1] == t_end


class TestEvolvePoint:
    def test_constant_sigma_is_stationary(self):
        sig = sharp.constant_scalar_sigma(2.0)
        traj = sharp.evolve_point1d(0.4, sig, 0.5, tol=1e-12)
        assert traj.position(0.5) == 0.4
        assert np.all(traj.positions == 0.4)

    def test_exponential_sigma_exact_drift(self):
        kappa = 0.5
        sig = sharp.exponential_scalar_sigma(kappa)
        traj = sharp.evolve_point1d(0.7, sig, 0.2, tol=1e-12)
        assert traj.position(0.2) == 0.7 - kappa * 0.2
        assert traj.times[-1] == 0.2

    @pytest.mark.parametrize("kappa, p0, end", [(5.0, 0.1, 0.0),
                                                (-5.0, 0.9, 1.0)])
    def test_leaving_the_interval_raises(self, kappa, p0, end):
        # dp/dt = -kappa reaches the end of [0, 1] at t = 0.02, before
        # t_end = 1: the error names that time to the bit
        sig = sharp.exponential_scalar_sigma(kappa)
        with pytest.raises(GeometryError, match="before t_end = 1.0") as info:
            sharp.evolve_point1d(p0, sig, 1.0, tol=1e-12)
        assert stop_time(info.value) == (p0 / kappa if end == 0.0
                                         else (p0 - 1.0) / kappa)

    @pytest.mark.parametrize("kappa", [0.5, -0.5, 5.0, -5.0])
    def test_exact_line_matches_the_ode(self, kappa):
        # the RK45 route on the same sigma, told nothing of its log slope,
        # is the oracle of the closed form; at |kappa| = 5 the point leaves
        # [0, 1] before t_end = 0.2 (through 0 for kappa > 0, through 1
        # for kappa < 0)
        sig = sharp.exponential_scalar_sigma(kappa, scale=SQRT2_6)
        routes = (sig, dataclasses.replace(sig, log_slope=None))
        if abs(kappa) == 5.0:
            stops = []
            for route in routes:
                with pytest.raises(GeometryError) as info:
                    sharp.evolve_point1d(0.7, route, 0.2, tol=1e-12)
                stops.append(stop_time(info.value))
            assert abs(stops[0] - stops[1]) <= 1e-9
            return
        exact, ode = (sharp.evolve_point1d(0.7, route, 0.2, tol=1e-12)
                      for route in routes)
        assert exact.times[-1] == ode.times[-1] == 0.2
        assert_allclose(exact.positions, ode.positions, rtol=0, atol=1e-12)
        v_exact, v_ode = (traj.velocity(traj.times) for traj in (exact, ode))
        assert_allclose(v_exact, v_ode, rtol=0, atol=1e-10)
        assert np.all(v_exact == -kappa)

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.5, 1.5, np.nan])
    @pytest.mark.parametrize("exact", [True, False])
    def test_start_outside_the_open_interval_raises(self, p0, exact):
        # on an end a point stopped at t = 0, outside it ran on untruncated
        sig = sharp.exponential_scalar_sigma(-1.0)
        if not exact:
            sig = dataclasses.replace(sig, log_slope=None)
        with pytest.raises(ValueError, match=r"inside \(0, 1\)"):
            sharp.evolve_point1d(p0, sig, 0.2, tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(hst.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           hst.one_of(hst.floats(-10.0, -1e-3), hst.floats(1e-3, 10.0)),
           hst.floats(1e-3, 2.0))
    # reaches 0 at p0 / kappa = 0.0171, before t_end
    @example(0.16065200877512686, 9.39850826432265, 0.23173122494154064)
    def test_exact_line_stops_at_its_first_end(self, p0, kappa, t_end):
        sig = sharp.exponential_scalar_sigma(kappa)
        hits = [t for t in (p0 / kappa, (p0 - 1.0) / kappa)
                if 0.0 <= t < t_end]
        if hits:
            with pytest.raises(GeometryError) as info:
                sharp.evolve_point1d(p0, sig, t_end)
            assert stop_time(info.value) == min(hits)
            return
        traj = sharp.evolve_point1d(p0, sig, t_end)
        assert np.all((traj.positions >= 0.0) & (traj.positions <= 1.0))
        assert traj.times[-1] == t_end

    @settings(max_examples=200, deadline=None)
    @given(hst.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           hst.one_of(hst.floats(-10.0, -1e-3), hst.floats(1e-3, 10.0)),
           hst.floats(1e-3, 2.0))
    # reaches 0 at p0 / kappa = 0.0364, before t_end
    @example(0.12428327649956394, 3.412488293872606, 1.2947318336369258)
    def test_ode_route_stays_in_the_interval(self, p0, kappa, t_end):
        sig = dataclasses.replace(sharp.exponential_scalar_sigma(kappa),
                                  log_slope=None)
        try:
            traj = sharp.evolve_point1d(p0, sig, t_end, tol=1e-12)
        except NumericError:  # a stop within rounding of a step end
            assume(False)
        except GeometryError:  # a stop before t_end: no trajectory
            return
        assert np.all((traj.positions >= 0.0) & (traj.positions <= 1.0))
        assert traj.times[-1] == t_end

    def test_unlocated_stop_is_a_numeric_error(self):
        # RK45 steps across p = 0, but its dense output at the step's ends
        # gives the stop one sign, and SciPy's event location raises a
        # plain ValueError ("f(a) and f(b) must have different signs")
        sig = dataclasses.replace(
            sharp.exponential_scalar_sigma(3.726007956461652), log_slope=None)
        with pytest.raises(NumericError, match="stop not located"):
            sharp.evolve_point1d(0.0022461445398733737, sig,
                                 1.7173152419378652, tol=1e-12)

    def test_slides_toward_sigma_minimum(self):
        x_star = 0.55
        sig = sharp.ScalarSigma(value=lambda x: 1.0 + (np.asarray(x) - x_star) ** 2,
                                deriv=lambda x: 2.0 * (np.asarray(x) - x_star))
        traj = sharp.evolve_point1d(0.45, sig, 2.0, tol=1e-12)
        ps = traj.positions
        assert np.all(np.diff(ps) >= -1e-12)
        assert abs(ps[-1] - x_star) < abs(ps[0] - x_star)


class TestTransport:
    def test_zero_test_function(self):
        sig = sharp.constant_scalar_sigma(1.0)
        traj = sharp.evolve_radial(0.4, sig, 0.05, tol=1e-12, center=CENTER)
        zeta = sharp.SpaceTimeTest(
            value=lambda x, t: np.zeros(np.shape(x)[:-1]),
            dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
        assert sharp.transport_residual(traj, zeta, 0.05) == 0.0

    def test_constant_test_function_is_area_identity(self):
        sig = sharp.constant_scalar_sigma(SQRT2_6)
        traj = sharp.evolve_radial(0.4, sig, 0.06, tol=1e-12, center=CENTER)
        ones = sharp.SpaceTimeTest(
            value=lambda x, t: np.ones(np.shape(x)[:-1]),
            dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
        assert abs(sharp.transport_residual(traj, ones, 0.06)) <= 1e-9

    def test_point_trajectory_raises_geometry_error(self):
        # the bulk integral is a disk quadrature: only radial flows have one
        sig = sharp.exponential_scalar_sigma(0.5)
        traj = sharp.evolve_point1d(0.7, sig, 0.2, tol=1e-12)
        ones = sharp.SpaceTimeTest(
            value=lambda x, t: np.ones(np.shape(x)[:-1]),
            dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
        with pytest.raises(GeometryError, match="radial"):
            sharp.transport_residual(traj, ones, 0.1)

    def test_polynomial_test_function_second_order(self):
        # x^2 y^2 moment of the disk depends nonlinearly on R(t)^2, so the
        # trapezoid error is visible and second order
        sig = sharp.constant_scalar_sigma(SQRT2_6)
        traj = sharp.evolve_radial(0.4, sig, 0.06, tol=1e-12, center=CENTER)
        zeta = sharp.SpaceTimeTest(
            value=lambda x, t: (1.0 + t ** 2) * x[..., 0] ** 2 * x[..., 1] ** 2,
            dt=lambda x, t: 2.0 * t * x[..., 0] ** 2 * x[..., 1] ** 2)
        r_coarse = abs(sharp.transport_residual(traj, zeta, 0.06, n_t=8))
        r_fine = abs(sharp.transport_residual(traj, zeta, 0.06, n_t=16))
        assert r_fine < r_coarse / 3.0


class TestMotionLaw:
    def setup_method(self):
        self.sig = const_sigma2d()
        self.traj = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(SQRT2_6),
                                        0.06, tol=1e-12, center=CENTER)

    def test_zero_field(self):
        iface = self.traj.interface_at(0.03)
        r = sharp.motion_law_residual(iface, float(self.traj.velocity(0.03)),
                                      self.sig, zero_field(2))
        assert r == 0.0

    def test_ode_velocity_satisfies_motion_law(self):
        psi = dilation_field(CENTER, 0.45, 0.49)
        for t in (0.0, 0.03, 0.06):
            iface = self.traj.interface_at(t)
            r = sharp.motion_law_residual(iface, float(self.traj.velocity(t)),
                                          self.sig, psi)
            assert abs(r) <= 1e-10

    def test_velocity_perturbation_responds_linearly(self):
        psi = dilation_field(CENTER, 0.45, 0.49)
        iface = self.traj.interface_at(0.03)
        v = float(self.traj.velocity(0.03))
        delta = 0.1
        r = sharp.motion_law_residual(iface, v + delta, self.sig, psi)
        # first term is linear in V: residual = delta * int sigma psi.n
        R = iface.radius
        expected = delta * (-R) * SQRT2_6 * 2 * np.pi * R
        assert_allclose(r, expected, rtol=1e-10)


class TestDissipation:
    def test_exact_flow_slack_vanishes(self):
        sig_s = sharp.constant_scalar_sigma(SQRT2_6)
        traj = sharp.evolve_radial(0.4, sig_s, 0.06, tol=1e-12, center=CENTER)
        slack = sharp.dissipation_check(traj, 0.06, n_t=4096)
        assert abs(slack) <= 1e-6

    def test_frozen_trajectory_has_zero_slack(self):
        times = np.linspace(0.0, 1.0, 5)
        traj = sharp.SharpTrajectory(times=times,
                                     positions=np.full(5, 0.3),
                                     profile=sharp.constant_scalar_sigma(
                                         SQRT2_6),
                                     _dense=lambda t: np.full(np.shape(t),
                                                              0.3),
                                     _vel=lambda t: np.zeros(np.shape(t)),
                                     center=CENTER)
        slack = sharp.dissipation_check(traj, 1.0)
        assert slack == 0.0

    def test_inflated_velocity_flags_violation(self):
        sig_s = sharp.constant_scalar_sigma(SQRT2_6)
        traj = sharp.evolve_radial(0.4, sig_s, 0.06, tol=1e-12, center=CENTER)
        slack = sharp.dissipation_check(traj, 0.06, velocity_scale=2.0)
        assert slack < -1e-3

    # the exact weighted flow: the slack is the trapezoid rule's O(n_t^-2)
    # error, so it falls by 4 per doubling (measured 3.99-4.00) down to
    # n_t = 4 096, where criterion 09 reads it
    @pytest.mark.parametrize("kappa", (-1.0, 0.7, 1.0))
    def test_weighted_flow_slack_converges_second_order(self, kappa):
        prof = sharp.exponential_scalar_sigma(kappa, SQRT2_6)
        traj = sharp.evolve_radial(0.4, prof, 0.06, tol=1e-12, center=CENTER)
        slacks = [sharp.dissipation_check(traj, 0.06, n_t=n_t)
                  for n_t in (256, 512, 1024, 2048, 4096)]
        for coarse, fine in zip(slacks, slacks[1:]):
            assert abs(coarse) >= 3.9 * abs(fine)

    def test_trajectory_sigma_is_the_flow_sigma(self):
        # the trajectory holds the profile it was solved with; a sphere's
        # field is the lift of that profile, bit for bit, and the radial
        # rules read it, also after the profile is replaced; a point
        # carries its profile and no field
        prof = sharp.exponential_scalar_sigma(0.7, scale=SQRT2_6)
        radial = sharp.evolve_radial(0.4, prof, 0.02, tol=1e-12,
                                     center=CENTER)
        point = sharp.evolve_point1d(0.7, prof, 0.2, tol=1e-12)
        assert point.profile is prof
        with pytest.raises(GeometryError, match="point trajectory"):
            point.sigma
        other = sharp.exponential_scalar_sigma(-1.0, scale=0.3)
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=(50, 2))
        assert radial.profile is prof
        for p in (prof, other):
            traj = dataclasses.replace(radial, profile=p)
            lift = p.about(CENTER)
            for name in ("value", "grad"):
                got = getattr(traj.sigma, name)(x)
                assert got.tobytes() == getattr(lift, name)(x).tobytes()
        # sigma x 1.1 scales E(0), E(T') and the dissipation integral, so
        # the slack, and the bulk energy
        scaled = dataclasses.replace(radial, profile=sharp.ScalarSigma(
            value=lambda r: 1.1 * prof.value(r),
            deriv=lambda r: 1.1 * prof.deriv(r)))
        for velocity_scale in (1.0, 2.0):
            slack = sharp.dissipation_check(radial, 0.02,
                                            velocity_scale=velocity_scale)
            assert_allclose(sharp.dissipation_check(
                scaled, 0.02, velocity_scale=velocity_scale), 1.1 * slack,
                rtol=1e-12, atol=1e-13)
        for offset in (-0.02, 0.02):
            weak = sharp.Sphere(CENTER, float(radial.position(0.01)) + offset)
            e = calib.bulk_energy(weak, calib.build_calibration(radial), 0.01)
            assert e > 0.0
            assert_allclose(calib.bulk_energy(
                weak, calib.build_calibration(scaled), 0.01), 1.1 * e,
                rtol=1e-13)


class TestTimeGridOfOracles:
    # n_t = 0 leaves the one time t = 0: the transport residual compares
    # R(0) with R(0) and reads exactly 0, and the dissipation slack of this
    # flow reads 0.296 where the default n_t = 1024 reads -4.6e-8
    @pytest.mark.parametrize("n_t", [0, -1])
    def test_transport_residual_rejects_no_interval(self, n_t):
        traj = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(SQRT2_6),
                                   0.06, tol=1e-12, center=CENTER)
        ones = sharp.SpaceTimeTest(
            value=lambda x, t: np.ones(np.shape(x)[:-1]),
            dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
        with pytest.raises(ValueError, match="n_t >= 1"):
            sharp.transport_residual(traj, ones, 0.06, n_t=n_t)

    @pytest.mark.parametrize("n_t", [0, -1])
    def test_dissipation_check_rejects_no_interval(self, n_t):
        traj = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(SQRT2_6),
                                   0.06, tol=1e-12, center=CENTER)
        with pytest.raises(ValueError, match="n_t >= 1"):
            sharp.dissipation_check(traj, 0.06, n_t=n_t)


class TestBlockedOraclesMatchLoops:
    # an x-dependent zeta whose value is evaluated on a column of times,
    # so that the blocked transport sums are tested where the integrand
    # varies along each circle (transport_residual reads no sigma)
    ZETA = sharp.SpaceTimeTest(
        value=lambda x, t: np.cos(3.0 * t + 2.0 * x[..., 0]) * x[..., 1] ** 2,
        dt=lambda x, t: -3.0 * np.sin(3.0 * t + 2.0 * x[..., 0])
        * x[..., 1] ** 2)

    # n_t + 1 is one short block (9), whole blocks (256) and whole blocks
    # plus a remainder (301) at the block size of 64. The dissipation
    # check runs on the flow's own radial sigma 0.3 e^(kappa rho), against
    # the 512-node sum it replaced. Its bound is relative to E(0), not to
    # the slack: the slack is a difference of O(1) energies (-8e-10 at
    # n_t = 1024), so 1e-13 of it is below the roundoff of either route
    @settings(max_examples=30, deadline=None)
    @given(hst.floats(0.3, 0.45), hst.floats(0.05, 1.0),
           hst.integers(1, 400), hst.floats(0.25, 3.0),
           hst.sampled_from((-1.0, 0.0, 0.7, 1.0)))
    @example(0.4, 1.0, 8, 1.0, 0.7)
    @example(0.3, 0.5, 255, 2.0, -1.0)
    @example(0.45, 0.9, 300, 1.0, 0.0)
    # R(t) at the 45th of 60 times differs by one ulp between the array
    # and the scalar evaluation of the dense output
    @example(0.44587435900277567, 0.902811082193058, 59, 1.0, 0.7)
    def test_library_equals_loop_reference(self, r0, t_frac, n_t, scale,
                                           kappa):
        traj = sharp.evolve_radial(r0, sharp.exponential_scalar_sigma(0.7),
                                   0.02, tol=1e-12, center=CENTER)
        t_prime = t_frac * traj.times[-1]
        got = sharp.transport_residual(traj, self.ZETA, t_prime, n_t=n_t)
        ref = transport_residual_loop(traj, self.ZETA, t_prime, n_t)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        traj = sharp.evolve_radial(
            r0, sharp.exponential_scalar_sigma(kappa, scale=0.3), 0.02,
            tol=1e-12, center=CENTER)
        t_prime = t_frac * traj.times[-1]
        got = sharp.dissipation_check(traj, t_prime, n_t=n_t,
                                      velocity_scale=scale)
        ref = dissipation_check_loop(traj, t_prime, n_t,
                                     velocity_scale=scale)
        e_start = sharp.weighted_perimeter(traj.interface_at(0.0),
                                           traj.sigma, 512)
        assert abs(got - ref) <= 1e-13 * e_start


class TestRadialSigmaGuard:
    # the radial rules read the flow's profile at radii; on the flows'
    # own profiles, constant and weighted, they give the exact flow's
    # slack and a positive bulk energy
    @pytest.mark.parametrize("kappa", (None, -1.0, 0.7, 1.0))
    def test_flow_sigma_passes(self, kappa):
        # None: the constant sigma of the radial runners
        prof = (sharp.constant_scalar_sigma(SQRT2_6) if kappa is None
                else sharp.exponential_scalar_sigma(kappa, SQRT2_6))
        traj = sharp.evolve_radial(0.4, prof, 0.02, tol=1e-12, center=CENTER)
        assert abs(sharp.dissipation_check(traj, 0.02)) <= 1e-6
        cal = calib.build_calibration(traj)
        weak = sharp.Sphere(CENTER, float(traj.position(0.01)) - 0.02)
        assert calib.bulk_energy(weak, cal, 0.01) > 0.0


class TestQuadratureTables:
    def test_cached_tables_are_read_only(self):
        # the disk rule (64 x 128), the 256 radii of calib's radial bulk
        # rule and the 256-node circles of transport_residual, the 10- and
        # 20-point rules of the adaptive quadrature and the 512-node
        # circles of the energies E(0) and E(T') of dissipation_check
        # (its dissipation integral reads the flow's profile at R(t)),
        # each built once and shared
        rule = quadrature.gauss_legendre
        tables = (*rule(64), sharp._unit_circle(128), *rule(256),
                  sharp._unit_circle(256), *rule(10), *rule(20),
                  sharp._unit_circle(512))
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert rule(64)[0] is tables[0]
        for n in (10, 20, 64, 256):
            want = np.polynomial.legendre.leggauss(n)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(rule(n), want))

    def test_boundary_nodes_are_fresh_arrays(self):
        circle = sharp.Sphere(CENTER, 0.3)
        pts, w, normals = circle.boundary_nodes(64)
        pts[:] = w[:] = normals[:] = 0.0
        pts, w, normals = circle.boundary_nodes(64)
        assert_allclose(np.linalg.norm(normals, axis=-1), 1.0, rtol=1e-15)
        assert_allclose(np.linalg.norm(pts - np.array(CENTER), axis=-1), 0.3,
                        rtol=1e-15)


class TestNotRadial2D:
    # every oracle quadrature is a disk or circle rule
    def test_three_d_trajectory_raises_geometry_error(self):
        sig = sharp.constant_scalar_sigma(1.0)
        traj = sharp.evolve_radial(0.3, sig, 0.01, tol=1e-10,
                                   center=(0.5, 0.5, 0.5))
        ones = sharp.SpaceTimeTest(
            value=lambda x, t: np.ones(np.shape(x)[:-1]),
            dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
        with pytest.raises(GeometryError, match="radial 2-d"):
            sharp.transport_residual(traj, ones, 0.01)
        with pytest.raises(GeometryError, match="radial 2-d"):
            sharp.dissipation_check(traj, 0.01)

    def test_point_trajectory_dissipation_raises_geometry_error(self):
        sig = sharp.exponential_scalar_sigma(0.5)
        traj = sharp.evolve_point1d(0.7, sig, 0.2, tol=1e-12)
        with pytest.raises(GeometryError, match="radial 2-d"):
            sharp.dissipation_check(traj, 0.1)

    def test_three_d_sphere_boundary_nodes_raise_geometry_error(self):
        with pytest.raises(GeometryError, match="2-d circle"):
            sharp.Sphere((0.5, 0.5, 0.5), 0.3).boundary_nodes(64)


# criterion 01's well and its 50 acceptance points (run_surface_tension
# at its defaults)
CRITERION_01_WELL = wells.linear_wells_quartic(0.0, 0.2, 1.1, -0.1)
CRITERION_01_POINTS = np.random.default_rng(0).uniform(0.0, 1.0,
                                                       size=(50, 2))
MOVING_WELLS = (CRITERION_01_WELL,
                wells.linear_wells_quartic(0.0, 0.3, 1.0, 0.0))


def _grad_rel_err(spec, pts):
    """max over points of |closed form - grad sigma by quadrature| /
    |grad sigma by quadrature|, the norms over the components."""
    by_quad = sharp.sigma_from_well(spec, tol=1e-12).grad(pts)
    exact = sharp.sigma_field_of(spec).grad(pts)
    return float(np.max(wells.point_norm(exact - by_quad)
                        / wells.point_norm(by_quad)))


class TestSigmaFields:
    # the quadrature differentiates under the integral and the closed form
    # differentiates sqrt(2 m) gamma^3 / 6: two routes to grad sigma, on
    # the amplitude factories and on moving wells (measured <= 2.6e-15)
    def test_quadrature_gradient_matches_closed_form(self):
        pts = CRITERION_01_POINTS
        for spec in (*MOVING_WELLS, wells.affine_scaled_quartic(1.0, 1.0),
                     wells.exp_scaled_quartic(0.5)):
            by_quad = sharp.sigma_from_well(spec, tol=1e-12)
            assert_allclose(by_quad.value(pts), spec.sigma_exact(pts),
                            rtol=1e-14)
            assert _grad_rel_err(spec, pts) <= 1e-14

    def test_moving_wells_gradient(self, monkeypatch):
        # the closed form's term in grad gamma exists only because the
        # wells move; without it the two routes part (relative error 1
        # on 01's well, whose amplitude is constant), and the quadrature,
        # which reads W and its x-partial alone, does not move
        pts = CRITERION_01_POINTS
        for spec in MOVING_WELLS:
            assert _grad_rel_err(spec, pts) <= 1e-14
        monkeypatch.setattr(sharp, "grad_gamma",
                            lambda spec, x: np.zeros(np.shape(x)))
        for spec in MOVING_WELLS:
            assert _grad_rel_err(spec, pts) > 0.1


def _annulus_cloud(center, r_in=0.1, r_out=0.45, n=256):
    """n Gauss-Legendre radii in [r_in, r_out] times n equal angles about
    center, shape (n, n, 2): a polar cloud off the grid, like the disk
    rule of ``sharp._bulk_integral`` and the 2-d annulus reference of
    ``calib.bulk_energy`` in tests/test_calib.py."""
    nodes, _ = np.polynomial.legendre.leggauss(n)
    r = r_in + 0.5 * (r_out - r_in) * (nodes + 1.0)
    theta = 2.0 * np.pi * np.arange(n) / n
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return np.array(center) + r[:, None, None] * e[None, :, :]


class TestPointNormCallSites:
    """The radial fields keep the bits of their ``np.linalg.norm`` forms."""

    CLOUDS = {"box512": lambda: _unit_box(512).points(),
              "annulus": lambda: _annulus_cloud(CENTER)}

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_sphere_signed_distance(self, cloud):
        x = self.CLOUDS[cloud]()
        disk = sharp.Sphere(CENTER, 0.3)
        want = 0.3 - np.linalg.norm(x - np.array(CENTER), axis=-1)
        assert disk.signed_distance(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_scalar_sigma_about(self, cloud):
        x = self.CLOUDS[cloud]()
        prof = sharp.exponential_scalar_sigma(0.7, scale=SQRT2_6)
        field = prof.about(CENTER)
        c = np.asarray(CENTER, dtype=float)
        rho = np.linalg.norm(x - c, axis=-1)
        assert field.value(x).tobytes() == prof.value(rho).tobytes()
        rho = np.maximum(rho, 1e-300)
        want = (prof.deriv(rho) / rho)[..., None] * (x - c)
        assert field.grad(x).tobytes() == want.tobytes()


COORD = hst.one_of(hst.floats(-10.0, 10.0), hst.sampled_from([0.0, -0.0]))
LEVEL_PROFILES = hst.one_of(
    hst.floats(-10.0, 10.0).map(sharp.constant_scalar_sigma),
    hst.floats(1e-3, 10.0).map(lambda s: sharp.exponential_scalar_sigma(0.0, s)))


@hst.composite
def clouds_about(draw):
    """A finite cloud of shape (n, 2), (a, b, 2), (n, 1) or (2,) and a
    centre of its dimension, drawn among its points half the time."""
    n, a, b = (draw(hst.integers(1, 6)) for _ in range(3))
    shape = draw(hst.sampled_from([(n, 2), (a, b, 2), (n, 1), (2,)]))
    x = draw(hnp.arrays(np.float64, shape, elements=COORD))
    center = draw(hnp.arrays(np.float64, shape[-1:], elements=COORD))
    if draw(hst.booleans()):
        x[(0,) * (x.ndim - 1)] = center
    return x, center


@pytest.fixture
def norm_calls(monkeypatch):
    """The shapes ``sharp`` passes to ``point_norm``, one entry a call."""
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return wells.point_norm(x)

    monkeypatch.setattr(sharp, "point_norm", counting)
    return calls


def _bits(v):
    return type(v), np.shape(v), np.asarray(v).tobytes()


class TestConstantLifts:
    """With log_slope 0 the lift keeps the bits of the profile at the
    points' radius, values and gradients alike."""

    @settings(max_examples=200, deadline=None)
    @given(LEVEL_PROFILES, clouds_about())
    def test_lifts_keep_the_bits(self, prof, cloud):
        x, c = cloud
        about = prof.about(c)
        rho = wells.point_norm(x - c)
        assert _bits(about.value(x)) == _bits(prof.value(rho))
        rho = np.maximum(rho, 1e-300)
        want = (prof.deriv(rho) / rho)[..., None] * (x - c)
        assert _bits(about.grad(x)) == _bits(want)

    def test_sloped_lift_reads_coordinates(self, norm_calls):
        prof = sharp.exponential_scalar_sigma(0.7)
        # radii 0.1 and 0.3 about CENTER
        x = np.array([[0.6, 0.5], [0.8, 0.5]])
        v = prof.about(CENTER).value(x)
        assert v[0] != v[1]
        assert norm_calls == [(2, 2)]


def test_rotation_field_pairs_to_zero():
    from wmcflab.variations import sharp_first_variation
    circle = sharp.Sphere(CENTER, 0.3)
    rot = rotation_field(CENTER, 0.38, 0.47)
    assert abs(sharp_first_variation(circle, const_sigma2d(), rot)) <= 1e-10


def test_translation_invariance_constant_sigma():
    from wmcflab.variations import sharp_first_variation
    circle = sharp.Sphere(CENTER, 0.3)
    tr = translation_field((1.0, 0.0), CENTER, 0.38, 0.47)
    assert abs(sharp_first_variation(circle, const_sigma2d(), tr)) <= 1e-10
