"""Well-potential operations against closed forms.

Quartic oracles used below (gamma = b - a, amplitude m):
  sigma = sqrt(2 m) gamma^3 / 6, sigma_n = d_n(1) = sigma / gamma,
  d_n(v) = sqrt(2 m) gamma^2 (v^2/2 - v^3/3),
  profile = logistic with rate sqrt(2 m) gamma.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import flow, wells
from wmcflab.errors import GeometryError
from wmcflab.grid import Field, Grid
from wmcflab.quadrature import adaptive_gauss_legendre

SQRT2_6 = 0.23570226039551587  # sqrt(2)/6


def moving_spec(**kw):
    """a = -x0^2, b = 1: the gamma(0.3) = 1.09 example geometry."""
    return wells.canonical_quartic(
        a=lambda x: -x[..., 0] ** 2,
        grad_a=lambda x: np.stack([-2.0 * x[..., 0]]
                                  + [np.zeros(np.shape(x)[:-1])] * (np.shape(x)[-1] - 1),
                                  axis=-1),
        b=lambda x: np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)),
        delta_sep=1.0, **kw)


# coordinates of either sign: magnitudes near 1, where the order of the
# additions shows in the rounding, and magnitudes whose squares run from
# below the subnormals to past overflow; with +-0, +-inf and NaN of either
# sign
_MAGNITUDES = hst.one_of(hst.floats(0.5, 2.0), hst.floats(1e-160, 1e160))
_POINT_COORDS = hst.one_of(
    _MAGNITUDES, _MAGNITUDES.map(lambda v: -v),
    hst.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))


class TestPointNorm:
    @settings(max_examples=300, deadline=None)
    @given(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
           hst.sampled_from((1, 2, 3)), hst.data())
    def test_bits_of_numpy_norm(self, lead, d, data):
        # every coordinate drawn, none filled in
        x = data.draw(hnp.arrays(float, lead + (d,), elements=_POINT_COORDS,
                                 fill=hst.nothing()))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = wells.point_norm(x)
            want = np.linalg.norm(x, axis=-1)
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # the bits, signed zeros included, of every number; not the sign of
        # a NaN summed from two NaNs, which numpy's add takes from either
        # operand depending on where the element falls in its vector loop
        num = ~np.isnan(want)
        assert got[num].tobytes() == want[num].tobytes()


class TestGamma:
    def test_constant_wells(self):
        spec = wells.constant_quartic()
        assert wells.gamma(spec, 0.37) == pytest.approx(1.0, abs=1e-15)

    def test_linear_upper_well(self):
        spec = wells.linear_wells_quartic(0.0, 0.0, 1.0, 0.2, delta_sep=1.0)
        assert wells.gamma(spec, 0.5) == pytest.approx(1.1, abs=1e-14)

    def test_parabolic_lower_well(self):
        assert wells.gamma(moving_spec(), 0.3) == pytest.approx(1.09, abs=1e-14)


class TestNormalizedWell:
    def test_canonical_midpoint(self):
        spec = wells.constant_quartic()
        assert wells.normalized_well(spec, 0.2, 0.5) == pytest.approx(0.0625)

    def test_vanishes_at_wells(self):
        spec = moving_spec()
        assert wells.normalized_well(spec, 0.4, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert wells.normalized_well(spec, 0.4, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_two_closed_form(self):
        spec = wells.constant_quartic(0.0, 2.0)
        # W_n = gamma^4 v^2 (1-v)^2 = 16 * 0.0625 = 1 at v = 1/2
        assert wells.normalized_well(spec, 0.1, 0.5) == pytest.approx(1.0)


class TestSurfaceTension:
    def test_canonical(self):
        spec = wells.constant_quartic()
        assert_allclose(wells.surface_tension(spec, 0.3), SQRT2_6, rtol=1e-10)

    def test_amplitude_scales_as_sqrt(self):
        spec = wells.constant_quartic(amplitude=4.0)  # 1 + q with q = 3
        assert_allclose(wells.surface_tension(spec, 0.3), 2 * SQRT2_6,
                        rtol=1e-10)

    # an amplitude m <= 0 gives no double well; m = 0 used to reach
    # flow.run and fail there with a ZeroDivisionError in its stability
    # bound
    @pytest.mark.parametrize("amplitude", [0.0, -0.0, -1.0, float("nan")])
    def test_non_positive_amplitude_is_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            wells.constant_quartic(amplitude=amplitude)

    def test_gamma_two(self):
        spec = wells.constant_quartic(0.0, 2.0)
        assert_allclose(wells.surface_tension(spec, 0.3),
                        np.sqrt(2.0) * 8.0 / 6.0, rtol=1e-10)

    def test_batch_matches_closed_form(self):
        spec = moving_spec()
        xs = np.random.default_rng(0).uniform(0.0, 1.0, size=(20, 1))
        assert_allclose(wells.surface_tension(spec, xs),
                        spec.sigma_exact(xs), rtol=1e-9)


class TestSigmaN:
    """sigma_n = d_n(x, 1), the geodesic distance across the well."""

    def test_canonical(self):
        spec = wells.constant_quartic()
        assert_allclose(wells.geodesic_distance(spec, 0.7, 1.0), SQRT2_6,
                        rtol=1e-10)

    def test_gamma_two(self):
        spec = wells.constant_quartic(0.0, 2.0)
        assert_allclose(wells.geodesic_distance(spec, 0.7, 1.0),
                        0.9428090415820634, rtol=1e-10)

    def test_definitional_identity(self):
        spec = moving_spec()
        xs = np.random.default_rng(1).uniform(0.0, 1.0, size=(20, 1))
        tol = 1e-10
        sig = wells.surface_tension(spec, xs, tol=tol)
        sn = wells.geodesic_distance(spec, xs, 1.0, tol=tol)
        g = wells.gamma(spec, xs)
        assert np.max(np.abs(sn * g - sig)) <= 2 * tol * np.max(np.abs(sig)) + 2 * tol


class TestGeodesicDistance:
    def test_empty_integral(self):
        spec = wells.constant_quartic()
        assert wells.geodesic_distance(spec, 0.3, 0.0) == 0.0

    def test_full_interval_equals_sigma_n(self):
        spec = wells.constant_quartic()
        assert_allclose(wells.geodesic_distance(spec, 0.3, 1.0), SQRT2_6,
                        rtol=1e-9)

    def test_half_interval(self):
        spec = wells.constant_quartic()
        assert_allclose(wells.geodesic_distance(spec, 0.3, 0.5),
                        np.sqrt(2.0) / 12.0, rtol=1e-9)

    def test_nondecreasing_and_endpoints(self):
        spec = moving_spec()
        vs = np.linspace(0.0, 1.0, 11)
        ds = [wells.geodesic_distance(spec, 0.25, v) for v in vs]
        assert all(d1 >= d0 - 1e-12 for d0, d1 in zip(ds, ds[1:]))
        assert ds[0] == 0.0
        sigma_n = spec.sigma_exact(np.array([0.25])) / wells.gamma(spec, 0.25)
        assert_allclose(ds[-1], float(sigma_n), rtol=1e-8)

    def test_signed_for_negative_v(self):
        spec = wells.constant_quartic()
        assert wells.geodesic_distance(spec, 0.3, -0.3) < 0


# References: the quartic factories writing their own lambdas, and the
# normalized surface tension as a quadrature of its own. The factories
# now build their coefficients with ``wells._coefficient`` and sigma_n is
# ``geodesic_distance(spec, x, 1)``; the properties below check that both
# give these bits.

def reference_constant(a0=0.0, b0=1.0, amplitude=1.0):
    return wells.canonical_quartic(
        a=lambda x: a0 * np.ones(np.shape(x)[:-1]),
        grad_a=lambda x: np.zeros(np.shape(x)),
        b=lambda x: b0 * np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)),
        delta_sep=b0 - a0,
        amplitude=lambda x: amplitude * np.ones(np.shape(x)[:-1]),
        grad_amplitude=lambda x: np.zeros(np.shape(x)),
    )


def reference_unit_wells(m, grad_m):
    return wells.canonical_quartic(
        a=lambda x: np.zeros(np.shape(x)[:-1]),
        grad_a=lambda x: np.zeros(np.shape(x)),
        b=lambda x: np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)),
        delta_sep=1.0, amplitude=m, grad_amplitude=grad_m,
    )


def reference_affine(offset=1.0, slope=1.0, axis=0):
    def m(x):
        return offset + slope * x[..., axis]

    def grad_m(x):
        g = np.zeros(np.shape(x))
        g[..., axis] = slope
        return g

    return reference_unit_wells(m, grad_m)


def reference_exp(kappa, axis=0):
    def m(x):
        return np.exp(2.0 * kappa * x[..., axis])

    def grad_m(x):
        g = np.zeros(np.shape(x))
        g[..., axis] = 2.0 * kappa * np.exp(2.0 * kappa * x[..., axis])
        return g

    return reference_unit_wells(m, grad_m)


def reference_linear(a0, a_slope, b0, b_slope, axis, delta_sep):
    def mk_grad(slope):
        def grad(x):
            g = np.zeros(np.shape(x))
            g[..., axis] = slope
            return g
        return grad

    # with canonical_quartic's default amplitude m = 1 written out
    return wells.canonical_quartic(
        a=lambda x: a0 + a_slope * x[..., axis],
        grad_a=mk_grad(a_slope),
        b=lambda x: b0 + b_slope * x[..., axis],
        grad_b=mk_grad(b_slope),
        delta_sep=delta_sep,
        amplitude=lambda x: np.ones(np.shape(x)[:-1]),
        grad_amplitude=lambda x: np.zeros(np.shape(x)),
    )


def reference_sigma_n(spec, x, tol=1e-10):
    """Normalized surface tension int_0^1 sqrt(2 W_n(x, s)) ds = sigma/gamma."""
    x = wells.as_points(x)
    shape = np.atleast_1d(spec.a(x)).shape
    pts = x.reshape(-1, x.shape[-1])

    def integrand(t):
        wn = wells.normalized_well(spec, pts[None, :, :].repeat(len(t), axis=0),
                                   t[:, None] * np.ones(len(pts))[None, :])
        return np.sqrt(np.maximum(2.0 * wn, 0.0))

    val, _ = adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)
    val = np.asarray(val).reshape(shape)
    if np.asarray(spec.a(x)).ndim == 0:
        return float(val.reshape(()))
    return val


def bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


FACTORY_KINDS = ("constant", "affine", "exp", "linear")


@hst.composite
def factory_pairs(draw, dim, kinds=FACTORY_KINDS):
    """A quartic factory (of one of ``kinds``) at drawn arguments on
    [0, 1]^dim, built by the factory and by its reference; slopes and
    kappa may be exactly 0."""
    axis = draw(hst.integers(0, dim - 1))
    slope = hst.one_of(hst.just(0.0), hst.floats(-0.4, 0.4))
    kind = draw(hst.sampled_from(kinds))
    if kind == "constant":
        a0 = draw(hst.floats(-1.0, 1.0))
        args = (a0, a0 + draw(hst.floats(0.5, 2.0)),
                draw(hst.floats(0.2, 5.0)))
        return wells.constant_quartic(*args), reference_constant(*args)
    if kind == "affine":
        args = (draw(hst.floats(0.5, 2.0)), draw(slope), axis)
        return wells.affine_scaled_quartic(*args), reference_affine(*args)
    if kind == "exp":
        args = (draw(hst.one_of(hst.just(0.0), hst.floats(-1.0, 1.0))), axis)
        return wells.exp_scaled_quartic(*args), reference_exp(*args)
    # a zero slope gives the constant form a0 * 1, which has the bits of
    # a0 + 0 x at finite x for every a0 but -0.0 (then -0.0 against 0.0):
    # adding 0.0 turns a drawn -0.0 into 0.0
    a0 = draw(hst.floats(-0.5, 0.5)) + 0.0
    args = (a0, draw(slope), a0 + draw(hst.floats(0.8, 1.5)), draw(slope),
            axis, 0.1)
    return wells.linear_wells_quartic(*args), reference_linear(*args)


@hst.composite
def lattice_problems(draw, max_cells=16):
    """A factory pair, the cell centres of an n^d lattice of [0, 1]^d
    (d = 1 or 2) and values u on it."""
    dim = draw(hst.sampled_from((1, 2)))
    cells = tuple(draw(hst.integers(8, max_cells)) for _ in range(dim))
    pts = Grid((0.0,) * dim, (1.0,) * dim, cells).points()
    u = draw(hnp.arrays(float, cells, elements=hst.floats(-2.0, 3.0)))
    return draw(factory_pairs(dim)), pts, u


class TestFactoriesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(lattice_problems())
    def test_coefficients_and_derivatives_bit_identical(self, problem):
        (spec, ref), pts, u = problem
        assert spec.delta_sep == ref.delta_sep
        for name in ("a", "b", "amplitude",
                     "grad_a", "grad_b", "grad_amplitude"):
            assert bits(getattr(spec, name)(pts)) \
                == bits(getattr(ref, name)(pts)), name
        for name in ("W", "dW_du", "dW_dx"):
            assert bits(getattr(spec, name)(pts, u)) \
                == bits(getattr(ref, name)(pts, u)), name

    @settings(max_examples=100, deadline=None)
    @given(lattice_problems())
    def test_unit_geodesic_distance_is_sigma_n(self, problem):
        (spec, ref), pts, _ = problem
        assert bits(wells.geodesic_distance(spec, pts, 1.0)) \
            == bits(reference_sigma_n(ref, pts))
        x = pts.reshape(-1, pts.shape[-1])[-1]
        assert type(wells.geodesic_distance(spec, x, 1.0)) is float
        assert bits(wells.geodesic_distance(spec, x, 1.0)) \
            == bits(reference_sigma_n(ref, x))

    @settings(max_examples=30, deadline=None)
    @given(lattice_problems(max_cells=10), hst.floats(-0.5, 1.0))
    def test_batch_agrees_with_per_point_calls(self, problem, v):
        # for v <= 1 the integrand sqrt(2 m) gamma^2 |s (1 - s)| is a
        # polynomial on [v, 0] or [0, v], so every point converges on the
        # first panel, alone or in a batch. The panel's weighted sum is one
        # matrix-vector product, whose summation order depends on the batch
        # width (OpenBLAS's vector body and tail), so the batch and a single
        # point can differ in the last bits
        (spec, _), pts, _ = problem
        x = pts.reshape(-1, pts.shape[-1])
        batch = wells.geodesic_distance(spec, pts, v)
        assert batch.shape == pts.shape[:-1]
        single = np.array([wells.geodesic_distance(spec, p, v) for p in x])
        gap = np.abs(batch.reshape(-1) - single)
        assert np.all(gap <= 8 * np.finfo(float).eps * np.abs(single))


# every public quartic factory, at arguments
PUBLIC_FACTORIES = {
    "constant_quartic": lambda: wells.constant_quartic(),
    "affine_scaled_quartic": lambda: wells.affine_scaled_quartic(axis=1),
    "exp_scaled_quartic": lambda: wells.exp_scaled_quartic(0.5),
    "linear_wells_quartic": lambda: wells.linear_wells_quartic(
        0.0, 0.6, 1.0, 0.0, delta_sep=0.4),
}


class TestFactoriesRouteThroughCanonicalQuartic:
    """The per-layer tracer wraps ``wells.canonical_quartic`` by name to
    trace every spec's W and dW_du, so each factory must build its spec
    by exactly one call of that name."""

    def test_every_public_factory_is_listed(self):
        public = {name for name in vars(wells) if name.endswith("_quartic")
                  and not name.startswith("_")}
        assert public - {"canonical_quartic"} == set(PUBLIC_FACTORIES)

    @pytest.mark.parametrize(
        "build", [PUBLIC_FACTORIES[name] for name in sorted(PUBLIC_FACTORIES)],
        ids=sorted(PUBLIC_FACTORIES))
    def test_one_canonical_quartic_call(self, monkeypatch, build):
        built = []
        original = wells.canonical_quartic

        def counting(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(wells, "canonical_quartic", counting)
        spec = build()
        assert len(built) == 1
        assert spec is built[0]


class TestOptimalProfile:
    def test_initial_condition(self):
        spec = wells.constant_quartic()
        assert wells.optimal_profile(spec, 0.3, 0.0) == pytest.approx(0.5)

    def test_logistic_closed_form(self):
        spec = wells.constant_quartic()
        s = np.array([-3.0, -0.7, 0.4, 1.0, 2.5, 9.0])
        exact = 1.0 / (1.0 + np.exp(-np.sqrt(2.0) * s))
        assert_allclose(wells.optimal_profile(spec, 0.3, s), exact, atol=1e-8)

    def test_gamma_two_rate(self):
        # equipartitioned profile: du/ds = sqrt(2 W(u)) gives rate
        # sqrt(2) gamma for the quartic, logistic in v
        spec = wells.constant_quartic(0.0, 2.0)
        got = wells.optimal_profile(spec, 0.3, 1.0)
        assert_allclose(got, 1.0 / (1.0 + np.exp(-2.0 * np.sqrt(2.0))),
                        atol=1e-8)

    def test_monotone_with_saturating_tails(self):
        spec = moving_spec()
        s = np.linspace(-40.0, 40.0, 81)
        v = wells.optimal_profile(spec, 0.6, s)
        # monotone up to the integrator tolerance (dense-output wiggle in
        # the exponential tails sits at the atol scale)
        assert np.all(np.diff(v) >= -1e-9)
        assert v[0] <= 1e-9 and v[-1] >= 1.0 - 1e-9

    def test_pointwise_equipartition_identity(self):
        # gamma dv/ds = sqrt(2 W_n(v)) along the profile
        spec = wells.constant_quartic(0.0, 1.5)
        s = np.linspace(-2.0, 2.0, 9)
        delta = 1e-5
        vp = (wells.optimal_profile(spec, 0.3, s + delta)
              - wells.optimal_profile(spec, 0.3, s - delta)) / (2 * delta)
        v = wells.optimal_profile(spec, 0.3, s)
        rhs = np.sqrt(2.0 * wells.normalized_well(spec, 0.3, v)) / 1.5
        assert_allclose(vp, rhs, rtol=1e-6)


class TestProfileGrid:
    def test_matches_scalar_solver_heterogeneous(self):
        spec = wells.affine_scaled_quartic(offset=1.0, slope=2.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(30, 2))
        s = rng.uniform(-15.0, 15.0, size=30)
        batch = wells.optimal_profile_grid(spec, pts, s)
        single = np.array([wells.optimal_profile(spec, p, si)
                           for p, si in zip(pts, s)])
        assert_allclose(batch, single, atol=1e-7)

    def test_exact_for_quartic_family(self):
        spec = wells.constant_quartic(0.0, 2.0, amplitude=3.0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, size=(50, 1))
        s = rng.uniform(-6.0, 6.0, size=50)
        assert_allclose(wells.optimal_profile_grid(spec, pts, s),
                        spec.profile_exact(pts, s), atol=1e-12)

    def test_moving_wells(self):
        spec = moving_spec()
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.1, 0.9, size=(20, 1))
        s = rng.uniform(-10.0, 10.0, size=20)
        single = np.array([wells.optimal_profile(spec, p, si)
                           for p, si in zip(pts, s)])
        assert_allclose(wells.optimal_profile_grid(spec, pts, s), single,
                        atol=1e-7)


def per_point(spec, points, s):
    """``wells.optimal_profile_grid`` with each point passed alone: one
    class, one arclength table and one search per point."""
    flat_pts = points.reshape(-1, points.shape[-1])
    flat_s = np.asarray(s, dtype=float).reshape(-1)
    out = [wells.optimal_profile_grid(spec, flat_pts[i:i + 1],
                                      flat_s[i:i + 1])[0]
           for i in range(flat_s.size)]
    return np.array(out).reshape(np.shape(s))


def _unsorted_classes(spec, pts):
    """``wells._well_classes`` with the class id of each point in the
    given order, as the stepping march indexes them."""
    order, sorted_cls, a_c, g_c, x_c = wells._well_classes(spec, pts)
    cls = np.empty_like(sorted_cls)
    cls[order] = sorted_cls
    return cls, a_c, g_c, x_c


def stepping_march(spec, points, s):
    """The profile march step by step in tau: the reference that
    ``wells.optimal_profile_grid`` must reproduce bit for bit.

    Each step of 0.1 evaluates ds/dtau at its midpoint and end for every
    class that still holds an unplaced point, adds the Simpson increment
    to s and places the points whose target it crossed by the same
    Hermite-Newton inversion; a class leaves the march when its last
    point is placed.
    """
    points = wells.as_points(points)
    s = np.asarray(s, dtype=float)
    flat_pts = points.reshape(-1, points.shape[-1])
    flat_s = s.reshape(-1)
    out = np.full(flat_s.shape, 0.5)

    def phi(a, g, x, tau):
        v = 1.0 / (1.0 + np.exp(-tau))
        wn = spec.W(x, a + g * v)
        return g * v * (1.0 - v) / np.sqrt(np.maximum(2.0 * wn, 1e-300))

    for sgn in (1.0, -1.0):
        active = np.flatnonzero(sgn * flat_s > 0)
        if active.size == 0:
            continue
        targets = sgn * flat_s[active]
        cls, a_c, g_c, x_c = _unsorted_classes(spec, flat_pts[active])
        count = np.bincount(cls)
        s_lo = np.zeros(count.size)
        phi_lo = phi(a_c, g_c, x_c, 0.0)
        tau = 0.0
        while active.size and tau < 34.0:
            tau_hi = min(tau + 0.1, 34.0)
            h = tau_hi - tau
            phi_mid = phi(a_c, g_c, x_c, sgn * (tau + 0.5 * h))
            phi_hi = phi(a_c, g_c, x_c, sgn * tau_hi)
            s_hi = s_lo + (h / 6.0) * (phi_lo + 4.0 * phi_mid + phi_hi)
            crossed = targets <= s_hi[cls]
            if np.any(crossed):
                c, tc = cls[crossed], targets[crossed]
                p0, p1 = s_lo[c], s_hi[c]
                m0, m1 = h * phi_lo[c], h * phi_hi[c]
                t = np.clip((tc - p0) / np.maximum(p1 - p0, 1e-300), 0.0, 1.0)
                for _ in range(4):
                    h00 = (1 + 2 * t) * (1 - t) ** 2
                    h10 = t * (1 - t) ** 2
                    h01 = t * t * (3 - 2 * t)
                    h11 = t * t * (t - 1)
                    val = h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1
                    d00 = 6 * t * (t - 1)
                    d10 = (1 - t) * (1 - 3 * t)
                    d01 = -d00
                    d11 = t * (3 * t - 2)
                    der = d00 * p0 + d10 * m0 + d01 * p1 + d11 * m1
                    t = np.clip(t - (val - tc) / np.maximum(der, 1e-300),
                                0.0, 1.0)
                tau_star = sgn * (tau + t * h)
                out[active[crossed]] = 1.0 / (1.0 + np.exp(-tau_star))
                keep = ~crossed
                active = active[keep]
                targets = targets[keep]
                cls = cls[keep]
                count -= np.bincount(c, minlength=count.size)
                live = count > 0
                if not live.all():
                    cls = (np.cumsum(live, dtype=np.int32) - 1)[cls]
                    a_c, g_c, x_c = a_c[live], g_c[live], x_c[live]
                    count = count[live]
                    s_hi, phi_hi = s_hi[live], phi_hi[live]
            s_lo = s_hi
            phi_lo = phi_hi
            tau = tau_hi
        out[active] = 1.0 if sgn > 0 else 0.0

    return out.reshape(s.shape)


@hst.composite
def quartic_wells(draw, dim):
    """A constant, affine-amplitude, exp-amplitude or linear moving-well
    quartic on [0, 1]^dim."""
    axis = draw(hst.integers(0, dim - 1))
    kind = draw(hst.sampled_from(("constant", "affine", "exp", "linear")))
    if kind == "constant":
        a0 = draw(hst.floats(-1.0, 1.0))
        return wells.constant_quartic(a0, a0 + draw(hst.floats(0.5, 2.0)),
                                      amplitude=draw(hst.floats(0.2, 5.0)))
    if kind == "affine":
        return wells.affine_scaled_quartic(offset=draw(hst.floats(0.5, 2.0)),
                                           slope=draw(hst.floats(-0.4, 2.0)),
                                           axis=axis)
    if kind == "exp":
        return wells.exp_scaled_quartic(draw(hst.floats(-1.0, 1.0)),
                                        axis=axis)
    a0 = draw(hst.floats(-0.5, 0.5))
    return wells.linear_wells_quartic(
        a0, draw(hst.floats(-0.3, 0.3)), a0 + draw(hst.floats(0.8, 1.5)),
        draw(hst.floats(-0.3, 0.3)), axis=axis, delta_sep=0.1)


# lattice coordinates make points share a well; beyond +-34/rate the
# target lies past the marching window and clamps
_coords = hst.one_of(hst.sampled_from((0.0, 0.25, 0.5, 1.0)),
                     hst.floats(0.0, 1.0))
_arclengths = hst.one_of(hst.just(0.0), hst.floats(-60.0, 60.0),
                         hst.sampled_from((-np.inf, -1e3, -1e-300, 1e-300,
                                           1e3, np.inf)))


@hst.composite
def profile_problems(draw):
    """A quartic well, n points in [0, 1]^d (d = 1 or 2) and n arclengths."""
    dim = draw(hst.sampled_from((1, 2)))
    n = draw(hst.integers(1, 40))
    pts = draw(hnp.arrays(float, (n, dim), elements=_coords))
    s = draw(hnp.arrays(float, n, elements=_arclengths))
    return draw(quartic_wells(dim)), pts, s


@hst.composite
def march_problems(draw):
    """A profile problem in which up to five targets lie exactly on a knot
    arclength s(tau_k) of their own well, on either side of the profile."""
    spec, pts, s = draw(profile_problems())
    for _ in range(draw(hst.integers(0, 5))):
        i = draw(hst.integers(0, s.size - 1))
        sgn = draw(hst.sampled_from((1.0, -1.0)))
        x = pts[i:i + 1]
        a = spec.a(x)
        _, knots = wells._arclength_table(spec, a, spec.b(x) - a, x, sgn)
        s[i] = sgn * knots[draw(hst.integers(1, wells._TAU.size - 1)), 0]
    return spec, pts, s


class TestProfileGridMatchesSteppingMarch:
    @settings(max_examples=150, deadline=None)
    @given(march_problems())
    def test_bit_identical(self, problem):
        spec, pts, s = problem
        assert np.array_equal(wells.optimal_profile_grid(spec, pts, s),
                              stepping_march(spec, pts, s))

    @pytest.mark.parametrize("kind", ("affine", "constant", "both_axes"))
    def test_bit_identical_across_blocks(self, kind):
        # an affine well has 128 classes along x_0 of a 128 x 160 lattice;
        # each side of the profile holds 65 of them, 10 240 points: two
        # tables, and two searches in the first. A constant well is one
        # class per side, and a well that varies along both axes one class
        # per point
        assert wells._PROFILE_CLASSES < 128
        assert wells._PROFILE_POINTS < 64 * 160
        spec = wells.affine_scaled_quartic(offset=1.0, slope=2.0)
        if kind == "constant":
            spec = wells.constant_quartic(0.0, 1.5, amplitude=2.0)
        elif kind == "both_axes":
            spec = wells.canonical_quartic(
                a=lambda x: 0.3 * x[..., 1], grad_a=lambda x: np.stack(
                    [np.zeros(x.shape[:-1]), np.full(x.shape[:-1], 0.3)], -1),
                b=lambda x: np.ones(np.shape(x)[:-1]),
                grad_b=lambda x: np.zeros(np.shape(x)), delta_sep=0.6,
                amplitude=lambda x: 1.0 + 2.0 * x[..., 0],
                grad_amplitude=lambda x: np.stack(
                    [np.full(x.shape[:-1], 2.0), np.zeros(x.shape[:-1])], -1))
        pts = Grid((0.0, 0.0), (1.0, 1.0), (128, 160)).points()
        # up to 26 in |s|, beyond the window of every well here
        s = (pts[..., 0] - 0.5) / 0.02 + (pts[..., 1] - 0.5)
        assert np.array_equal(wells.optimal_profile_grid(spec, pts, s),
                              stepping_march(spec, pts, s))

    @settings(max_examples=60, deadline=None)
    @given(hst.data())
    def test_targets_at_the_padded_edge(self, data):
        # the step search reads +inf past the last knot: a target exactly
        # at s(34) is placed on the last step, one ulp above it and +inf
        # lie beyond the window and clamp, on either side of the profile
        dim = data.draw(hst.sampled_from((1, 2)))
        spec = data.draw(quartic_wells(dim))
        x = data.draw(hnp.arrays(float, (3, dim), elements=_coords))
        last = wells._TAU.size - 1
        pts, s, beyond = [], [], []
        for sgn in (1.0, -1.0):
            for p in x:
                p = p[None]
                a = spec.a(p)
                _, table = wells._arclength_table(spec, a, spec.b(p) - a, p,
                                                  sgn)
                assert np.all(table[last + 1:] == np.inf)
                edge = table[last, 0]
                for target in (edge, np.nextafter(edge, np.inf), np.inf):
                    pts.append(p[0])
                    s.append(sgn * target)
                    beyond.append(target > edge)
        pts, s, beyond = np.array(pts), np.array(s), np.array(beyond)
        v = wells.optimal_profile_grid(spec, pts, s)
        assert np.array_equal(v, stepping_march(spec, pts, s))
        assert np.array_equal(v[beyond], np.where(s[beyond] > 0, 1.0, 0.0))
        assert np.all((v[~beyond] > 0.0) & (v[~beyond] < 1.0))


class TestProfileArclength:
    def test_grid_rejects_nan(self):
        spec = wells.constant_quartic()
        with pytest.raises(GeometryError, match="NaN at 1 of 3"):
            wells.optimal_profile_grid(spec, np.full((3, 1), 0.3),
                                       np.array([np.nan, np.inf, -np.inf]))

    @pytest.mark.parametrize("n_points, n_s", ((3, 2), (1, 3)))
    def test_grid_rejects_mismatched_shapes(self, n_points, n_s):
        # three points with two arclengths used to give the profile of the
        # first two points, one point with three a bare IndexError
        spec = wells.constant_quartic()
        with pytest.raises(ValueError, match=rf"\({n_points}, 1\).*"
                                             rf"\({n_s},\)"):
            wells.optimal_profile_grid(spec, np.full((n_points, 1), 0.3),
                                       np.linspace(-1.0, 1.0, n_s))

    def test_scalar_solver_rejects_nan(self):
        spec = wells.constant_quartic()
        with pytest.raises(GeometryError, match="NaN at 1 of 3"):
            wells.optimal_profile(spec, 0.3,
                                  np.array([np.nan, np.inf, -np.inf]))

    def test_infinite_arclengths_clamp(self):
        spec = wells.constant_quartic()
        s = np.array([np.inf, -np.inf])
        assert np.array_equal(
            wells.optimal_profile_grid(spec, np.full((2, 1), 0.3), s),
            [1.0, 0.0])
        assert np.array_equal(wells.optimal_profile(spec, 0.3, s),
                              [1.0, 0.0])


class TestProfileGridProperties:
    @settings(max_examples=150, deadline=None)
    @given(profile_problems())
    def test_grouped_march_is_bit_identical_to_per_point(self, problem):
        spec, pts, s = problem
        assert np.array_equal(wells.optimal_profile_grid(spec, pts, s),
                              per_point(spec, pts, s))

    @settings(max_examples=100, deadline=None)
    @given(profile_problems())
    def test_monotone_in_s_and_in_unit_interval(self, problem):
        spec, pts, s = problem
        x = np.repeat(pts[:1], s.size, axis=0)
        s = np.sort(s)
        v = wells.optimal_profile_grid(spec, x, s)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all((v >= 0.0) & (v <= 1.0))


@hst.composite
def bound_problems(draw):
    """A quartic well, a cell-centred lattice of [0, 1]^d (d = 1 or 2)
    and values u on it."""
    dim = draw(hst.sampled_from((1, 2)))
    cells = tuple(draw(hst.integers(8, 16)) for _ in range(dim))
    pts = Grid((0.0,) * dim, (1.0,) * dim, cells).points()
    u = draw(hnp.arrays(float, cells, elements=hst.floats(-2.0, 3.0)))
    return draw(quartic_wells(dim)), pts, u


class TestBind:
    @settings(max_examples=150, deadline=None)
    @given(bound_problems())
    def test_bound_well_is_bit_identical_to_positions(self, problem):
        spec, pts, u = problem
        bound = wells.bind(spec, pts)
        assert np.array_equal(spec.W(bound, u), spec.W(pts, u))
        assert np.array_equal(spec.dW_du(bound, u), spec.dW_du(pts, u))
        # and to the formula written inline, on the grid, broadcast the way
        # reaction_lipschitz binds (points x values) and at one point with
        # a scalar value; u itself is left as it was
        flat = pts.reshape(-1, 1, pts.shape[-1])
        for x, v in ((pts, u), (flat, u.reshape(-1)[:7]),
                     (pts.reshape(-1, pts.shape[-1])[:1], float(u.flat[0]))):
            c = wells.bind(spec, x)
            kept = np.copy(v)
            w = spec.W(c, v)
            da, db = v - c.a, v - c.b
            assert np.array_equal(w, c.m * (da * da) * (db * db))
            assert np.array_equal(spec.dW_du(c, v),
                                  c.m * 2.0 * da * db * (da + db))
            assert np.array_equal(v, kept)

    @settings(max_examples=40, deadline=None)
    @given(bound_problems(), hst.integers(0, 2 ** 32 - 1))
    def test_scalar_and_array_W_agree(self, problem, seed):
        # W at one point has the same bits whether u comes alone or inside
        # an array, bound or at positions, over many u
        spec, pts, u = problem
        us = np.concatenate([
            u.reshape(-1),
            np.random.default_rng(seed).uniform(-3.0, 3.0, 500)])
        x = pts.reshape(-1, pts.shape[-1])
        for p in (x[:1], x[-1:]):
            c = wells.bind(spec, p)
            array_w = spec.W(c, us)
            for where in (c, p[0]):
                alone = np.array([spec.W(where, float(v)) for v in us])
                assert alone.tobytes() == array_w.tobytes()

    @pytest.mark.parametrize("kind", FACTORY_KINDS)
    @pytest.mark.parametrize("dim", (1, 2))
    @settings(max_examples=20, deadline=None)
    @given(data=hst.data())
    def test_bound_read_is_bit_identical_to_positions(self, dim, kind, data):
        # flow.read takes positions or a bound well (build_recovery passes
        # the one it formed u from): W, |grad u| and the energy agree
        spec, _ = data.draw(factory_pairs(dim, kinds=(kind,)))
        cells = tuple(data.draw(hst.integers(8, 16)) for _ in range(dim))
        grid = Grid((0.0,) * dim, (1.0,) * dim, cells)
        pts = grid.points()
        u = data.draw(hnp.arrays(float, cells,
                                 elements=hst.floats(-2.0, 3.0)))
        state = flow.PhaseState(Field(grid, u),
                                data.draw(hst.floats(0.01, 1.0)))
        at_points = flow.read(state, spec, pts)
        bound = flow.read(state, spec, wells.bind(spec, pts))
        assert bits(bound.w) == bits(at_points.w)
        assert bits(bound.grad_norm) == bits(at_points.grad_norm)
        assert bound.energy().hex() == at_points.energy().hex()

    def test_constant_coefficients_collapse_to_scalars(self):
        pts = Grid((0.0, 0.0), (1.0, 1.0), (8, 8)).points()
        bound = wells.bind(wells.exp_scaled_quartic(0.5, axis=1), pts)
        assert np.ndim(bound.a) == np.ndim(bound.b) == 0
        assert (bound.a, bound.b) == (0.0, 1.0)
        assert bound.m.shape == (8, 8)
        assert np.ndim(wells.bind(wells.constant_quartic(), pts).m) == 0


# values of u, a and b: near the wells, signed zeros, subnormals and
# magnitudes whose products overflow
_REACTION_VALUES = hst.one_of(
    hst.floats(-3.0, 3.0),
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309,
                      1e150, -1e150, 1e300, -1e300]))


@hst.composite
def reaction_problems(draw):
    """m, a and b, each a scalar or an array of one drawn shape, and u
    of that shape."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))

    def coefficient(elements):
        if draw(hst.booleans()):
            return np.float64(draw(elements))
        return draw(hnp.arrays(float, shape, elements=elements))

    m = coefficient(hst.one_of(
        hst.floats(1e-3, 1e3),
        hst.sampled_from([1.0, 5e-324, 1e-310, 1e150, 1e300])))
    a, b = coefficient(_REACTION_VALUES), coefficient(_REACTION_VALUES)
    return m, a, b, draw(hnp.arrays(float, shape, elements=_REACTION_VALUES))


class TestReactionInPlace:
    @settings(max_examples=200, deadline=None)
    @given(reaction_problems())
    def test_in_place_has_the_bits_of_the_allocating_form(self, problem):
        # and of spec.dW_du; da and db are kept, da + db is left in the
        # second array
        m, a, b, u = problem
        with np.errstate(all="ignore"):
            da, db = u - a, u - b
            kept = da.tobytes(), db.tobytes()
            out = (np.empty(u.shape), np.empty(u.shape))
            got = wells.quartic_dW_du(m * 2.0, da, db, out=out)
            alloc = wells.quartic_dW_du(m * 2.0, da, db)
            closure = wells.constant_quartic().dW_du(
                wells.BoundQuartic(m, a, b), u)
            total = da + db
        assert got is out[0]
        assert got.tobytes() == alloc.tobytes() == closure.tobytes()
        assert out[1].tobytes() == total.tobytes()
        assert (da.tobytes(), db.tobytes()) == kept


class TestValidateAssumptions:
    def test_quadratic_growth_near_wells(self):
        spec = wells.constant_quartic()
        pts = np.random.default_rng(2).uniform(0.0, 1.0, size=(10, 2))
        us = np.array([-0.01, 0.01, 0.99, 1.01])
        rep = wells.validate_assumptions(spec, pts, us)
        assert rep.ok()
        assert rep.c2_quadratic / rep.c1_quadratic < 1.1

    def test_constant_landscape_has_zero_derivative_control(self):
        spec = wells.constant_quartic()
        pts = np.linspace(0.1, 0.9, 7).reshape(-1, 1)
        us = np.linspace(-0.5, 1.5, 21)
        rep = wells.validate_assumptions(spec, pts, us)
        assert rep.c_derivative_control <= 1e-9

    def test_multiplicative_heterogeneity_ratio(self):
        # W = (1 + sin^2(pi x)) u^2 (1-u)^2: the ratio is v-independent
        # and equals |m'| / (2 m)
        spec = wells.canonical_quartic(
            a=lambda x: np.zeros(np.shape(x)[:-1]),
            grad_a=lambda x: np.zeros(np.shape(x)),
            b=lambda x: np.ones(np.shape(x)[:-1]),
            grad_b=lambda x: np.zeros(np.shape(x)),
            delta_sep=1.0,
            amplitude=lambda x: 1.0 + np.sin(np.pi * x[..., 0]) ** 2,
            grad_amplitude=lambda x: np.stack(
                [np.pi * np.sin(2.0 * np.pi * x[..., 0])], axis=-1))
        pts = np.linspace(0.05, 0.95, 19).reshape(-1, 1)
        us = np.linspace(0.1, 0.9, 9)
        rep = wells.validate_assumptions(spec, pts, us)
        m = 1.0 + np.sin(np.pi * pts[:, 0]) ** 2
        dm = np.pi * np.sin(2.0 * np.pi * pts[:, 0])
        expected = np.max(np.abs(dm) / (2.0 * m))
        assert rep.ok()
        assert rep.c_derivative_control == pytest.approx(expected, rel=1e-4)

    def test_flags_nonvanishing_well(self):
        # b - a = 1 - x_0 is 0.5 at x_0 = 0.5, below the declared 0.9
        bad = wells.linear_wells_quartic(0.0, 0.5, 1.0, -0.5, delta_sep=0.9)
        rep = wells.validate_assumptions(bad, np.array([[0.5]]),
                                         np.linspace(0, 1, 5))
        assert not rep.ok()
        assert rep.violations == ["b - a drops below delta_sep"]


class TestQuadrature:
    def test_smooth_integrand(self):
        val, err = adaptive_gauss_legendre(np.sin, 0.0, np.pi, tol=1e-12)
        assert_allclose(val, 2.0, atol=1e-12)
        assert err <= 1e-11

    def test_reversed_interval_is_signed(self):
        val, _ = adaptive_gauss_legendre(np.sin, np.pi, 0.0, tol=1e-12)
        assert_allclose(val, -2.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(hst.floats(-3.0, 3.0), hst.floats(-3.0, 3.0),
           hst.floats(0.1, 4.0), hst.floats(-2.0, 2.0))
    def test_swapping_the_interval_flips_the_sign(self, lo, hi, k, c):
        def f(t):
            return np.sqrt(np.abs(t - c)) + np.cos(k * t)

        tol = 1e-10
        fwd, _ = adaptive_gauss_legendre(f, lo, hi, tol=tol)
        bwd, _ = adaptive_gauss_legendre(f, hi, lo, tol=tol)
        assert abs(fwd + bwd) <= tol

    def test_kinked_integrand(self):
        val, _ = adaptive_gauss_legendre(lambda t: np.sqrt(np.abs(t)),
                                         0.0, 1.0, tol=1e-11)
        assert_allclose(val, 2.0 / 3.0, atol=1e-10)
