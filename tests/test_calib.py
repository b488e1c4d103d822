"""Calibrations, relative/bulk energies, coercivity, Gronwall fits."""

import dataclasses
import functools

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import calib, cli, sharp
from wmcflab.errors import GeometryError
from wmcflab.experiments import run_weak_strong
from wmcflab.grid import Field, Grid
from wmcflab.wells import point_norm

SQRT2_6 = 0.23570226039551587
CENTER = (0.5, 0.5)


def radial_setup(r0=0.4, t_end=0.04):
    return sharp.evolve_radial(r0, sharp.constant_scalar_sigma(SQRT2_6),
                               t_end, tol=1e-12, center=CENTER)


def frozen_sphere(radius=0.3):
    """Static sphere with zero velocity (frozen test trajectory)."""
    times = np.linspace(0.0, 1.0, 9)
    return sharp.SharpTrajectory(
        times=times, positions=np.full(9, radius),
        profile=sharp.constant_scalar_sigma(1.0),
        _dense=lambda t: np.full(np.shape(t), radius),
        _vel=lambda t: np.zeros(np.shape(t)), center=CENTER)


@functools.lru_cache(maxsize=None)
def weighted_calibration(kappa):
    """Calibration of the radial flow with sigma = (sqrt 2 / 6) e^(kappa
    rho) about CENTER."""
    sig = sharp.exponential_scalar_sigma(kappa, SQRT2_6)
    return calib.build_calibration(sharp.evolve_radial(
        0.4, sig, 0.04, tol=1e-12, center=CENTER))


def bulk_energy_annulus_loop(weak, cal, t):
    """The 2-d annulus form of ``calib.bulk_energy`` for a concentric
    weak disk: sigma (chi_strong - chi_weak) theta summed over 256
    Gauss-Legendre radii times 256 equal angles, with no radial
    assumption on sigma. The reference the radial rule is checked
    against."""
    r_s, r_w = float(cal.traj.position(t)), weak.radius
    lo, hi = min(r_w, r_s), max(r_w, r_s)
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(256)
    r = 0.5 * (hi - lo) * (gl_nodes + 1.0) + lo
    wr = 0.5 * (hi - lo) * gl_w
    theta = 2.0 * np.pi * np.arange(256) / 256
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.array(cal.traj.center) + r[:, None, None] * e[None, :, :]
    chi = -np.sign(r_w - r_s)
    tau = cal._frame(pts, t).theta
    return float(np.sum(cal.traj.sigma.value(pts) * chi * tau
                        * r[:, None] * wr[:, None]) * (2.0 * np.pi / 256))


class TestBuildCalibration:
    def test_defaults(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        r_min = float(np.min(traj.positions))
        assert cal.r == pytest.approx(0.4 * r_min)
        assert cal.c == pytest.approx(1.01 / cal.r ** 2)
        assert cal.r_g <= cal.r

    def test_boundary_identities(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        t = 0.02
        iface = traj.interface_at(t)
        pts, _, normals = iface.boundary_nodes(128)
        f = cal.at(pts, t)
        assert np.max(np.abs(np.sum(f.xi * normals, axis=-1) - 1.0)) <= 1e-14
        B = f.v * f.xi
        assert np.max(np.linalg.norm(B - f.v * normals, axis=-1)) <= 1e-12
        # |B| = V = (N-1)/R for constant sigma
        assert_allclose(np.linalg.norm(B, axis=-1), 1.0 / iface.radius,
                        rtol=1e-9)

    def test_cutoff_saturation_outside_tube(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        t = 0.01
        R = float(traj.position(t))
        far = np.array([[0.5 + R + cal.r + 0.05, 0.5],
                        [0.5, 0.5 - R - cal.r - 0.05]])
        f = cal.at(far, t)
        assert np.max(np.linalg.norm(f.xi, axis=-1)) == 0.0
        assert_allclose(np.abs(cal._frame(far, t).theta), cal.r, atol=1e-14)

    def test_xi_length_bound_sampled(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        rng = np.random.default_rng(0)
        pts = np.array(CENTER) + rng.uniform(-0.5, 0.5, size=(4000, 2))
        for t in (0.0, 0.02, 0.039):
            f = cal.at(pts, t)
            bound = np.maximum(0.0, 1.0 - cal.c * np.abs(f.sdist) ** 2)
            assert np.max(np.linalg.norm(f.xi, axis=-1) - bound) <= 1e-14

    def test_tube_is_fixed_by_the_trajectory(self):
        # r = 0.4 min_t R(t), c = 1.01 / r^2 and r_g = 1 / sqrt(c), to the
        # bit, for two shrinking disks and a frozen one
        for traj in (radial_setup(), radial_setup(0.25, 0.02),
                     frozen_sphere()):
            cal = calib.build_calibration(traj)
            assert cal.r == 0.4 * min(traj.positions)
            assert cal.c == 1.01 / cal.r ** 2
            assert cal.r_g == 1.0 / np.sqrt(cal.c)

    def test_truncated_trajectory_rejected(self):
        # the 3-d sphere of radius 0.4 reaches the 1e-3 floor at
        # (0.16 - 1e-6) / 4 < 0.04, which would set a 4e-4 tube radius:
        # the flow raises where it is solved, so no calibration is built
        sig_s = sharp.constant_scalar_sigma(SQRT2_6)
        with pytest.raises(GeometryError, match="stops at t = 0.0399"):
            calib.build_calibration(sharp.evolve_radial(
                0.4, sig_s, 0.04, tol=1e-12, center=(0.5, 0.5, 0.5)))

    def test_point_trajectory_rejected(self):
        sig = sharp.constant_scalar_sigma(1.0)
        traj = sharp.evolve_point1d(0.5, sig, 0.1, tol=1e-10)
        with pytest.raises(GeometryError):
            calib.build_calibration(traj)


class PerFieldReference:
    """Reference: the per-field evaluators that Calibration.at replaces,
    each re-deriving the radial geometry and R(t) on its own."""

    def __init__(self, cal):
        self.cal = cal

    def _geometry(self, x, t):
        dx = np.asarray(x, dtype=float) - np.array(self.cal.traj.center)
        rho = np.maximum(point_norm(dx), 1e-300)
        e = dx / rho[..., None]
        sdist = float(self.cal.traj.position(t)) - rho
        return rho, e, sdist

    def signed_distance(self, x, t):
        return self._geometry(x, t)[2]

    def distance(self, x, t):
        return np.abs(self.signed_distance(x, t))

    def velocity_scalar(self, t):
        return float(self.cal.traj.velocity(t))

    def xi(self, x, t):
        _, e, sdist = self._geometry(x, t)
        return -calib._cutoff(sdist, self.cal.r_g)[..., None] * e

    def grad_xi(self, x, t):
        rho, e, sdist = self._geometry(x, t)
        g = calib._cutoff(sdist, self.cal.r_g)
        dg = calib._cutoff_deriv(sdist, self.cal.r_g)
        eye = np.eye(e.shape[-1])
        ee = e[..., :, None] * e[..., None, :]
        return (dg[..., None, None] * ee
                - (g / rho)[..., None, None] * (eye - ee))

    def div_xi(self, x, t):
        rho, _, sdist = self._geometry(x, t)
        g = calib._cutoff(sdist, self.cal.r_g)
        dg = calib._cutoff_deriv(sdist, self.cal.r_g)
        n_minus_1 = len(self.cal.traj.center) - 1
        return dg - n_minus_1 * g / rho

    def B(self, x, t):
        return self.velocity_scalar(t) * self.xi(x, t)

    def grad_B(self, x, t):
        return self.velocity_scalar(t) * self.grad_xi(x, t)

    def theta(self, x, t):
        return calib._truncation(self.signed_distance(x, t), self.cal.r)

    def grad_theta(self, x, t):
        _, e, sdist = self._geometry(x, t)
        return -calib._truncation_deriv(sdist, self.cal.r)[..., None] * e


def _dt4(f, t, delta):
    """Reference: fourth-order centered time derivative of a callable."""
    return (-f(t + 2 * delta) + 8.0 * f(t + delta)
            - 8.0 * f(t - delta) + f(t - 2 * delta)) / (12.0 * delta)


def residuals_reference(cal, points, t, fd_dt):
    """Reference: calib.calibration_residuals at one time, per field."""
    ref = PerFieldReference(cal)
    xi = ref.xi(points, t)
    dt_xi = _dt4(lambda s: ref.xi(points, s), t, fd_dt)
    Bv = ref.B(points, t)
    Jxi = ref.grad_xi(points, t)
    JB = ref.grad_B(points, t)
    adv_xi = np.einsum("...ij,...j->...i", Jxi, Bv)
    jbt_xi = np.einsum("...ji,...j->...i", JB, xi)
    r1 = point_norm(dt_xi + adv_xi + jbt_xi)
    dt_xi2 = _dt4(lambda s: np.sum(ref.xi(points, s) ** 2, axis=-1),
                  t, fd_dt)
    grad_xi2 = 2.0 * np.einsum("...ji,...j->...i", Jxi, xi)
    r2 = np.abs(dt_xi2 + np.sum(Bv * grad_xi2, axis=-1))
    dt_theta = _dt4(lambda s: ref.theta(points, s), t, fd_dt)
    r3 = np.abs(dt_theta + np.sum(Bv * ref.grad_theta(points, t), axis=-1))
    sig = cal.traj.sigma.value(points)
    grad_log = cal.traj.sigma.grad(points) / sig[..., None]
    r4 = np.abs(-ref.div_xi(points, t)
                - np.sum(grad_log * xi, axis=-1)
                - np.sum(Bv * xi, axis=-1))
    return ref.distance(points, t), r1, r2, r3, r4


@functools.lru_cache(maxsize=None)
def calibration_about(center):
    # to t = 0.02 the 3-d sphere shrinks from 0.4 to 0.28 (it is extinct
    # at t = 0.04), so the tube keeps a radius of 0.11 in both dimensions
    traj = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(SQRT2_6),
                               0.02, tol=1e-12, center=center)
    return calib.build_calibration(traj)


# the center itself (where rho is clamped at 1e-300) and points at
# distances 0-0.6 from it, through the tube, the cutoff edge and beyond;
# 3-d exercises the (N - 1) g / rho term of div xi
@hst.composite
def clouds(draw):
    center = draw(hst.sampled_from((CENTER, (0.5, 0.5, 0.5))))
    dirs = hst.tuples(*[hst.floats(-1.0, 1.0)] * len(center)).filter(
        lambda u: np.hypot.reduce(u) > 0.1)
    rows = draw(hst.lists(hst.tuples(hst.floats(0.0, 0.6), dirs),
                          min_size=1, max_size=12))
    pts = [np.array(center)] + [np.array(center) + rho * np.array(u)
                                / np.hypot.reduce(u) for rho, u in rows]
    return center, np.array(pts)


def truncation_where(s, r):
    """The retired form of ``calib._truncation``: the quintic blend on
    every sample, picked by np.where. The reference the banded form is
    checked against, bit for bit. It evaluates on at least one dimension:
    on a 0-d sample np.clip returns a NumPy scalar, whose ``**`` rounds
    the quintic differently from the array power."""
    a = np.abs(np.atleast_1d(s))
    # a huge |s| overflows (|s| - r/2)/(r/2) before the clip
    with np.errstate(over="ignore"):
        t = np.clip((a - r / 2) / (r / 2), 0.0, 1.0)
    p = 3 * t ** 5 - 7 * t ** 4 + 4 * t ** 3 + t
    blend = r / 2 + (r / 2) * p
    out = np.where(a <= r / 2, a, np.where(a >= r, r, blend))
    return np.sign(s) * out.reshape(np.shape(s))


def band_edges(r):
    """r/2 and r with their float neighbours, and points inside the band
    close to either end, of both signs."""
    pts = [x for e in (r / 2, r)
           for x in (e, np.nextafter(e, 0.0), np.nextafter(e, 2 * e))]
    pts += [f * r for f in (0.50001, 0.5001, 0.6, 0.9, 0.999, 0.99999)]
    return pts + [-x for x in pts]


@hst.composite
def truncation_samples(draw):
    """(s, r): arrays of any shape (a 0-d and an empty one among them)
    whose entries lie within 1.5 r, on the band's edges, or anywhere
    (signed zeros, infinities and NaN among them)."""
    r = draw(hst.floats(1e-3, 1.0))
    entries = hst.one_of(hst.floats(-1.5 * r, 1.5 * r),
                         hst.sampled_from(band_edges(r)),
                         hst.floats(allow_nan=True, allow_infinity=True))
    shape = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                             max_side=16)
    return draw(hnp.arrays(np.float64, shape, elements=entries)), r


class TestTruncation:
    # the blend is formed on the band r/2 < |s| < r only, with the same
    # operations per element, so every bit of the retired form stays
    @settings(max_examples=200, deadline=None)
    @given(truncation_samples())
    @example((np.array([0.0, -0.0]), 0.1))
    @example((np.array(band_edges(0.1)), 0.1))
    @example((np.array([np.inf, -np.inf, np.nan, -np.nan]), 0.1))
    @example((np.array(0.075), 0.1))
    # 0-d, in the band: here the power of a NumPy scalar rounds the
    # quintic one ulp away from the array power
    @example((np.array(0.9375), 0.9928584741423617))
    def test_banded_equals_where_form(self, sample):
        s, r = sample
        got = np.asarray(calib._truncation(s, r))
        want = np.asarray(truncation_where(s, r))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(clouds(), hst.floats(0.0, 0.02))
    def test_at_matches_per_field_reference(self, cloud, t):
        center, pts = cloud
        cal = calibration_about(center)
        ref = PerFieldReference(cal)
        f = cal.at(pts, t)
        for got, want in ((f.sdist, ref.signed_distance(pts, t)),
                          (f.xi, ref.xi(pts, t)),
                          (f.grad_xi, ref.grad_xi(pts, t)),
                          (f.div_xi, ref.div_xi(pts, t)),
                          (cal._frame(pts, t).theta, ref.theta(pts, t)),
                          (f.grad_theta, ref.grad_theta(pts, t)),
                          (f.v * f.xi, ref.B(pts, t)),
                          (f.v * f.grad_xi, ref.grad_B(pts, t)),
                          (np.abs(f.sdist), ref.distance(pts, t))):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert f.v == ref.velocity_scalar(t)

    @settings(max_examples=30, deadline=None)
    @given(clouds(), hst.floats(2e-4, 0.02 - 2e-4),
           hst.sampled_from((1e-4, 5e-5)))
    def test_residuals_match_per_field_reference(self, cloud, t, fd_dt):
        center, pts = cloud
        cal = calibration_about(center)
        res = calib.calibration_residuals(cal, pts, [t], fd_dt=fd_dt)
        got = (res.dist, res.r1, res.r2, res.r3, res.r4)
        for g, w in zip(got, residuals_reference(cal, pts, t, fd_dt)):
            assert g.tobytes() == w.tobytes()

    def test_one_evaluation_per_time(self, monkeypatch):
        cal = calibration_about(CENTER)
        counts = {"position": 0, "velocity": 0, "at": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("position", "velocity"):
            monkeypatch.setattr(sharp.SharpTrajectory, name,
                                counted(name, getattr(sharp.SharpTrajectory,
                                                      name)))
        pts = np.array(CENTER) + np.array([[0.0, 0.0], [0.3, 0.1]])
        cal.at(pts, 0.02)
        assert counts == {"position": 1, "velocity": 1, "at": 0}

        # per residual time: four shifted frames (R only) and one at (R
        # and V) at t
        monkeypatch.setattr(calib.Calibration, "at",
                            counted("at", calib.Calibration.at))
        calib.calibration_residuals(cal, pts, [0.005, 0.01, 0.015])
        assert counts["at"] == 3
        assert counts["position"] == 1 + 5 * 3
        assert counts["velocity"] == 1 + 3

    @settings(max_examples=60, deadline=None)
    @given(clouds(), hst.floats(0.0, 0.02))
    def test_frame_matches_at(self, cloud, t):
        center, pts = cloud
        cal = calibration_about(center)
        fr, f = cal._frame(pts, t), cal.at(pts, t)
        for got, want in ((fr.sdist, f.sdist), (fr.xi, f.xi)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestResiduals:
    def test_on_interface_residuals_small(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        for t in (0.01, 0.03):
            pts, _, _ = traj.interface_at(t).boundary_nodes(32)
            res = calib.calibration_residuals(cal, pts, [t])
            assert res.r1.max() <= 1e-3
            assert res.r2.max() <= 1e-3
            assert res.r3.max() <= 1e-5
            assert res.r4.max() <= 1e-12
            # no sample lies _NEAR off the interface: no ratio is measured
            assert all(np.isnan(v) for v in res.ratios().values())

    def test_weighted_flow_r4_vanishes_on_the_interface(self):
        # sigma = (sqrt 2 / 6) e^{rho} about the center: grad sigma is not
        # zero, so r4 = -div xi - grad(log sigma) . xi - B . xi vanishes on
        # the interface only if the calibration reads the sigma its flow
        # was solved with
        traj = sharp.evolve_radial(
            0.4, sharp.exponential_scalar_sigma(1.0, scale=SQRT2_6), 0.04,
            tol=1e-12, center=CENTER)
        constant = sharp.constant_scalar_sigma(SQRT2_6)
        mismatched = dataclasses.replace(traj, profile=constant)
        for t in np.linspace(0.002, 0.038, 7):
            pts, _, _ = traj.interface_at(t).boundary_nodes(256)
            r4 = calib.calibration_residuals(calib.build_calibration(traj),
                                             pts, [t]).r4
            assert r4.max() <= 1e-12
            # the control: the flow's V with another sigma's grad log sigma
            r4 = calib.calibration_residuals(
                calib.build_calibration(mismatched), pts, [t]).r4
            assert r4.min() >= 0.5

    def test_frozen_sphere_r3_vanishes(self):
        cal = calib.build_calibration(frozen_sphere())
        rng = np.random.default_rng(1)
        pts = np.array(CENTER) + rng.uniform(-0.4, 0.4, size=(500, 2))
        res = calib.calibration_residuals(cal, pts, [0.5])
        # nothing depends on t; what remains is interpolation roundoff
        # amplified by the differencing step
        assert res.r3.max() <= 1e-11
        assert res.r1.max() <= 1e-11
        assert res.r2.max() <= 1e-11

    def test_ratios_stable_under_fd_halving(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        rng = np.random.default_rng(2)
        pts = np.array(CENTER) + rng.uniform(-0.45, 0.45, size=(1500, 2))
        times = np.linspace(0.002, 0.038, 5)
        r_a = calib.calibration_residuals(cal, pts, times, fd_dt=1e-4).ratios()
        r_b = calib.calibration_residuals(cal, pts, times, fd_dt=5e-5).ratios()
        for k in r_a:
            assert r_a[k] > 0 and np.isfinite(r_a[k])
            assert max(r_a[k], r_b[k]) / min(r_a[k], r_b[k]) <= 2.0

    def test_times_outside_window_raise(self):
        # t = 0 differences R at -2 fd_dt and -fd_dt, where the trajectory
        # was never computed; the trajectory's own window check raises
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        with pytest.raises(GeometryError, match="outside"):
            calib.calibration_residuals(cal, np.array([[0.5, 0.8]]), [0.0])

    def test_empty_time_list_raises(self):
        cal = calibration_about(CENTER)
        with pytest.raises(ValueError, match="one or more times"):
            calib.calibration_residuals(cal, np.array([[0.5, 0.8]]), [])


class TestEnergies:
    def test_relative_energy_of_identical_interface(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        e = calib.coercivity_check(traj.interface_at(0.02), cal, 0.02).e_rel
        assert abs(e) <= 1e-14

    def test_relative_energy_matches_cutoff_closed_form(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        t, delta = 0.01, 0.015
        R = float(traj.position(t))
        weak = sharp.Sphere(CENTER, R + delta)
        e = calib.coercivity_check(weak, cal, t).e_rel
        g = (1.0 - (delta / cal.r_g) ** 2) ** 2
        expected = 2 * np.pi * (R + delta) * SQRT2_6 * (1.0 - g)
        assert_allclose(e, expected, rtol=1e-12)

    def test_tube_exterior_weak_interface_pays_full_perimeter(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        weak = sharp.Sphere(CENTER, 0.05)  # far inside, outside the tube
        e = calib.coercivity_check(weak, cal, 0.01).e_rel
        assert_allclose(e, sharp.weighted_perimeter(weak, traj.sigma),
                        rtol=1e-12)

    def test_bulk_energy_three_d_raises_geometry_error(self):
        # the annulus and grid rules integrate over 2-d phases only
        center = (0.5, 0.5, 0.5)
        traj = sharp.evolve_radial(0.3, sharp.constant_scalar_sigma(SQRT2_6),
                                   0.01, tol=1e-10, center=center)
        cal = calib.build_calibration(traj)
        with pytest.raises(GeometryError, match="radial 2-d"):
            calib.bulk_energy(sharp.Sphere(center, 0.32), cal, 0.005)

    def test_bulk_energy_zero_for_equal_sets(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        assert calib.bulk_energy(traj.interface_at(0.02), cal,
                                 0.02) == 0.0

    def test_bulk_energy_annulus_closed_form(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        t = 0.01
        R = float(traj.position(t))
        # |delta| < r/2, so theta = sdist on the annulus; the weak disk
        # outside the strong one (delta > 0) and inside it (delta < 0)
        for delta in (0.02, -0.02):
            weak = sharp.Sphere(CENTER, R + delta)
            got = calib.bulk_energy(weak, cal, t)
            # int sigma |rho - R| 2 pi rho drho between R and R + delta:
            # 2 pi sigma (delta^2 R / 2 + delta^3 / 3) on either side
            expected = 2 * np.pi * SQRT2_6 * (delta ** 2 * R / 2
                                              + delta ** 3 / 3)
            assert_allclose(got, expected, rtol=1e-10)
            assert got > 0

    # the radial rule against the 2-d annulus rule it replaced, with a
    # weighted radial sigma, the weak disk inside and outside, at times
    # across the window
    @pytest.mark.parametrize("kappa", (-1.0, 0.0, 0.5, 1.0))
    @pytest.mark.parametrize("delta", (-0.05, -0.02, 0.01, 0.03))
    def test_bulk_energy_matches_annulus_loop(self, kappa, delta):
        cal = weighted_calibration(kappa)
        for t in (0.0, 0.013, 0.04):
            weak = sharp.Sphere(CENTER, float(cal.traj.position(t)) + delta)
            got = calib.bulk_energy(weak, cal, t)
            ref = bulk_energy_annulus_loop(weak, cal, t)
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_bulk_energy_grid_route_agrees(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        t, delta = 0.01, 0.02
        R = float(traj.position(t))
        weak = sharp.Sphere(CENTER, R + delta)
        grid = Grid.box((0, 0), (1, 1), (256, 256))
        chi = Field(grid, sharp.indicator(weak, grid.points()))
        by_grid = calib.bulk_energy(chi, cal, t)
        exact = calib.bulk_energy(weak, cal, t)
        assert abs(by_grid - exact) <= 0.05 * exact + 1e-5

    def test_bulk_energy_complement_strictly_positive(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        grid = Grid.box((0, 0), (1, 1), (128, 128))
        chi = Field(grid, 1.0 - sharp.indicator(traj.interface_at(0.01),
                                                grid.points()))
        assert calib.bulk_energy(chi, cal, 0.01) > 0.01


@functools.lru_cache(maxsize=None)
def radial_calibration():
    return calib.build_calibration(radial_setup())


class TestCoercivity:
    # weak radii inside and outside the strong one, at times across the
    # window: 2(1 - n.xi) = |n - xi|^2 + 1 - |xi|^2 splits E_rel into the
    # tilt and the slack, both >= 0; the identity holds to rounding of the
    # integrand's scale, int sigma dH (each term lies in [0, 2 sigma])
    @settings(max_examples=40, deadline=None)
    @given(hst.floats(1e-4, 0.1), hst.sampled_from((-1.0, 1.0)),
           hst.floats(0.0, 0.04))
    @example(0.015, 1.0, 0.02)
    def test_identity_and_slack(self, offset, side, t):
        cal = radial_calibration()
        weak = sharp.Sphere(CENTER,
                            float(cal.traj.position(t)) + side * offset)
        rep = calib.coercivity_check(weak, cal, t)
        pts, w, _ = weak.boundary_nodes(1024)
        scale = float(np.sum(w * cal.traj.sigma.value(pts)))
        assert rep.identity_error == abs(rep.tilt + rep.slack - rep.e_rel)
        assert rep.identity_error <= 1e-14 * scale
        assert rep.slack >= 0.0
        assert 0.0 <= rep.tilt <= rep.e_rel

    def test_equal_interfaces_all_zero(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        rep = calib.coercivity_check(traj.interface_at(0.02), cal, 0.02)
        assert rep.tilt <= 1e-14 and rep.e_rel <= 1e-14


def fit_constant_loop(times, values, zero_tol):
    """Reference: the time loop that calib._fit_constant vectorizes."""
    if len(times) < 2:
        return float("nan")
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (values[1:] + values[:-1]) * np.diff(times))])
    running = np.zeros_like(values)
    for k in range(1, len(times)):
        growth = values[k] - values[0]
        if cum[k] < 1e-14:
            running[k] = 0.0 if growth <= zero_tol else np.inf
        else:
            running[k] = max(growth, 0.0) / cum[k]
    return float(np.max(running[1:]))


class TestGronwall:
    # same arithmetic per time, so the fits agree bitwise; dt = 0 and
    # values within zero_tol of E(0) reach the vanishing-integral branch
    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.tuples(hst.sampled_from((0.0, 1e-3, 0.01)),
                                hst.floats(-1e-8, 0.1)), min_size=1,
                     max_size=8))
    def test_fit_constant_matches_time_loop(self, rows):
        dts, values = (np.array(c) for c in zip(*rows))
        times = np.cumsum(dts)
        got = calib._fit_constant(times, values, 1e-8)
        ref = fit_constant_loop(times, values, 1e-8)
        assert got == ref or (np.isnan(got) and np.isnan(ref))
        assert np.isnan(got) == (len(rows) < 2)

    def test_identical_trajectories_stay_at_zero(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        other = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(SQRT2_6),
                                    0.04, tol=1e-12, center=CENTER)
        times = np.linspace(0.0, 0.038, 21)
        rep = calib.gronwall_verify(other, cal, times)
        assert np.all(rep.e_rel <= 1e-8) and np.all(rep.e_bulk <= 1e-8)

    def test_perturbed_radius_fitted_constant(self):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        pert = sharp.evolve_radial(0.42, sharp.constant_scalar_sigma(SQRT2_6),
                                   0.04, tol=1e-12, center=CENTER)
        times = np.linspace(0.0, 0.038, 41)
        rep = calib.gronwall_verify(pert, cal, times)
        assert np.isfinite(rep.fitted_c_rel) and rep.fitted_c_rel > 0
        c_rel = (rep.fitted_c_rel, rep.fitted_c_rel_coarse)
        assert max(c_rel) <= 2.0 * min(c_rel)
        assert rep.exp_bound_excess <= 1e-8
        assert np.all(rep.e_rel >= 0) and np.all(rep.e_bulk >= 0)
        assert np.all(rep.coercivity_slack >= 0)
        k = 17
        co = calib.coercivity_check(pert.interface_at(times[k]), cal,
                                    times[k])
        assert rep.coercivity_slack[k] == co.slack
        assert rep.coercivity_identity_error[k] == co.identity_error
        assert np.all(rep.coercivity_identity_error <= 1e-12)


class TestGronwallTimes:
    # the fits integrate forward from times[0]: decreasing times fit
    # C_rel = 0 where the same times in increasing order fit 7.5
    @pytest.mark.parametrize("times", [[], [0.03, 0.02, 0.0],
                                       [0.0, 0.02, 0.02], [0.0, np.nan]])
    def test_times_not_strictly_increasing_raise(self, times):
        traj = radial_setup()
        cal = calib.build_calibration(traj)
        pert = sharp.evolve_radial(0.42, sharp.constant_scalar_sigma(SQRT2_6),
                                   0.04, tol=1e-12, center=CENTER)
        with pytest.raises(ValueError, match="gronwall_verify"):
            calib.gronwall_verify(pert, cal, times)

    def test_run_exits_2_without_times(self, tmp_path):
        assert cli.run_experiment("weak_strong",
                                  lambda: run_weak_strong(n_times=0),
                                  str(tmp_path)) == 2


def test_invariant_report():
    traj = radial_setup()
    cal = calib.build_calibration(traj)
    inv = calib.calibration_invariants(cal, np.linspace(0, 0.04, 5),
                                       n_per_time=400)
    assert inv.max_xi_bound_violation <= 1e-10
    assert inv.max_boundary_xi_error <= 1e-9
    assert inv.max_boundary_b_error <= 1e-9
    assert inv.theta_sign_violations == 0
    assert np.isfinite(inv.c_theta_coercivity)
    assert inv.n_samples == 2000


@pytest.mark.parametrize("times, n_per_time, match", [
    ([], 400, "one or more times"), ([0.01], 0, "n_per_time"),
    ([0.01], -3, "n_per_time")])
def test_invariants_without_samples_raise(times, n_per_time, match):
    # no sample, no violation: such a report would pass vacuously
    cal = calibration_about(CENTER)
    with pytest.raises(ValueError, match=match):
        calib.calibration_invariants(cal, times, n_per_time=n_per_time)


def test_invariants_past_the_trajectory_raise():
    # the trajectory ends at t = 0.04; invariants sampled at later times
    # would check R(0.04) again and pass
    traj = radial_setup()
    cal = calib.build_calibration(traj)
    with pytest.raises(GeometryError, match="outside"):
        calib.calibration_invariants(cal, [0.5, 1.0], n_per_time=400)


def test_weak_strong_rejects_extinct_reference():
    # the r0 = 0.4 disk goes extinct at t = 0.08; checks along the missing
    # part of the reference must not pass
    with pytest.raises(GeometryError, match="before t_end"):
        run_weak_strong(t_end=0.5)


def test_weak_strong_checks_coercivity_once_per_time(monkeypatch):
    # gronwall_verify runs the check at every time of both cases; the
    # runner's verdict reads the perturbed case's report
    calls = []
    check = calib.coercivity_check

    def counted(*args):
        calls.append(args[2])
        return check(*args)

    monkeypatch.setattr(calib, "coercivity_check", counted)
    res = run_weak_strong(n_times=5)
    assert len(calls) == 2 * 5
    verdict = [c for c in res.checks if c.name.startswith("tilt coercivity")]
    assert len(verdict) == 1 and verdict[0].passed
