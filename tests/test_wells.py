"""Well-potential operations against closed forms.

Quartic oracles used below (gamma = b - a, amplitude m):
  sigma = sqrt(2 m) gamma^3 / 6, sigma_n = d_n(1) = sigma / gamma,
  d_n(v) = sqrt(2 m) gamma^2 (v^2/2 - v^3/3),
  profile = logistic with rate sqrt(2 m) gamma.
"""

import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import flow, sharp, variations as var, wells
from wmcflab.errors import GeometryError
from wmcflab.grid import Field, Grid
from wmcflab.quadrature import adaptive_gauss_legendre

from fieldcheck import along_axis, quartic
from test_arguments import defaults

SQRT2_6 = 0.23570226039551587  # sqrt(2)/6


def moving_spec(**kw):
    """a = -x0^2, b = 1: the gamma(0.3) = 1.09 example geometry."""
    return wells.canonical_quartic(
        a=lambda x: -x[..., 0] ** 2,
        grad_a=lambda x: np.stack([-2.0 * x[..., 0]]
                                  + [np.zeros(np.shape(x)[:-1])] * (np.shape(x)[-1] - 1),
                                  axis=-1),
        b=lambda x: np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)), **kw)


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
        spec = wells.linear_wells_quartic(0.0, 0.0, 1.0, 0.2)
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
        spec = wells.linear_wells_quartic(0.0, 0.0, 2.0, 0.0)
        # W_n = gamma^4 v^2 (1-v)^2 = 16 * 0.0625 = 1 at v = 1/2
        assert wells.normalized_well(spec, 0.1, 0.5) == pytest.approx(1.0)


class TestSurfaceTension:
    def test_canonical(self):
        spec = wells.constant_quartic()
        assert_allclose(wells.surface_tension(spec, 0.3), SQRT2_6, rtol=1e-10)

    def test_amplitude_scales_as_sqrt(self):
        spec = wells.affine_scaled_quartic(4.0, 0.0)  # 1 + q with q = 3
        assert_allclose(wells.surface_tension(spec, 0.3), 2 * SQRT2_6,
                        rtol=1e-10)

    # an amplitude m <= 0 gives no double well; m = 0 used to reach
    # flow.run and fail there with a ZeroDivisionError in its stability
    # bound
    @pytest.mark.parametrize("amplitude", [0.0, -0.0, -1.0, float("nan")])
    def test_non_positive_amplitude_is_rejected(self, amplitude):
        with pytest.raises(ValueError,
                           match="amplitude m must be finite and positive"):
            wells.surface_tension(
                wells.affine_scaled_quartic(amplitude, 0.0), 0.3)

    def test_gamma_two(self):
        spec = wells.linear_wells_quartic(0.0, 0.0, 2.0, 0.0)
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
        spec = wells.linear_wells_quartic(0.0, 0.0, 2.0, 0.0)
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
# give these bits. The factories vary along x_0 and ``along_axis`` turns
# them to x_1, so the references' own ``axis`` checks that turn too.

def reference_constant(a0=0.0, b0=1.0, amplitude=1.0):
    return wells.canonical_quartic(
        a=lambda x: a0 * np.ones(np.shape(x)[:-1]),
        grad_a=lambda x: np.zeros(np.shape(x)),
        b=lambda x: b0 * np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)),
        amplitude=lambda x: amplitude * np.ones(np.shape(x)[:-1]),
        grad_amplitude=lambda x: np.zeros(np.shape(x)),
    )


def reference_unit_wells(m, grad_m):
    return wells.canonical_quartic(
        a=lambda x: np.zeros(np.shape(x)[:-1]),
        grad_a=lambda x: np.zeros(np.shape(x)),
        b=lambda x: np.ones(np.shape(x)[:-1]),
        grad_b=lambda x: np.zeros(np.shape(x)),
        amplitude=m, grad_amplitude=grad_m,
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


def reference_linear(a0, a_slope, b0, b_slope, axis):
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
        amplitude=lambda x: np.ones(np.shape(x)[:-1]),
        grad_amplitude=lambda x: np.zeros(np.shape(x)),
    )


def reference_sigma_n(spec, x, tol=1e-10):
    """Normalized surface tension int_0^1 sqrt(2 W_n(x, s)) ds = sigma/gamma,
    one quadrature per position."""
    x = wells.as_points(x)
    pts = x.reshape(-1, x.shape[-1])

    def sigma_n(p):
        def integrand(t):
            wn = wells.normalized_well(spec, p, t)
            return np.sqrt(np.maximum(2.0 * wn, 0.0))

        return adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)[0]

    val = np.array([sigma_n(p) for p in pts]).reshape(x.shape[:-1])
    return float(val) if val.ndim == 0 else val


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
        return quartic(*args), reference_constant(*args)
    if kind == "affine":
        args = (draw(hst.floats(0.5, 2.0)), draw(slope))
        return (along_axis(wells.affine_scaled_quartic(*args), axis),
                reference_affine(*args, axis))
    if kind == "exp":
        args = (draw(hst.one_of(hst.just(0.0), hst.floats(-1.0, 1.0))),)
        return (along_axis(wells.exp_scaled_quartic(*args), axis),
                reference_exp(*args, axis))
    # a zero slope gives the constant form a0 * 1, which has the bits of
    # a0 + 0 x at finite x for every a0 but -0.0 (then -0.0 against 0.0):
    # adding 0.0 turns a drawn -0.0 into 0.0
    a0 = draw(hst.floats(-0.5, 0.5)) + 0.0
    args = (a0, draw(slope), a0 + draw(hst.floats(0.8, 1.5)), draw(slope))
    return (along_axis(wells.linear_wells_quartic(*args), axis),
            reference_linear(*args, axis))


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
        # each position is integrated alone, so a batch gives every point
        # the bits of its single call
        (spec, _), pts, _ = problem
        x = pts.reshape(-1, pts.shape[-1])
        batch = wells.geodesic_distance(spec, pts, v)
        assert batch.shape == pts.shape[:-1]
        single = np.array([wells.geodesic_distance(spec, p, v) for p in x])
        assert bits(batch.reshape(-1)) == bits(single)


# criterion 01's well and its 50 acceptance points (run_surface_tension
# at its defaults)
CRITERION_01 = (wells.linear_wells_quartic(0.0, 0.2, 1.1, -0.1),
                np.random.default_rng(0).uniform(0.0, 1.0, size=(50, 2)))


@hst.composite
def point_batches(draw):
    """A quartic factory and a batch of 1 to 60 positions in [0, 1]^d."""
    dim = draw(hst.sampled_from((1, 2)))
    spec, _ = draw(factory_pairs(dim))
    n = draw(hst.integers(1, 60))
    pts = draw(hnp.arrays(float, (n, dim), elements=hst.floats(0.0, 1.0)))
    return spec, pts


class TestEachPointIntegratedAlone:
    # sigma, d_n and grad sigma at a point are functions of that point: a
    # batch gives each point the bits of its single call, whatever the
    # batch's width and whatever its other points
    @settings(max_examples=60, deadline=None)
    @given(point_batches(), hst.floats(-0.5, 1.0))
    @example(CRITERION_01, 1.0)
    def test_batch_gives_each_point_its_own_bits(self, batch, v):
        spec, pts = batch
        routes = {
            "surface_tension": lambda x: wells.surface_tension(spec, x),
            "geodesic_distance": lambda x: wells.geodesic_distance(spec, x,
                                                                   v),
            "grad sigma": sharp.sigma_from_well(spec).grad,
        }
        for name, route in routes.items():
            alone = np.array([route(p) for p in pts])
            assert bits(route(pts)) == bits(alone), name


# every public quartic factory, at arguments
PUBLIC_FACTORIES = {
    "constant_quartic": lambda: wells.constant_quartic(),
    "affine_scaled_quartic": lambda: wells.affine_scaled_quartic(),
    "exp_scaled_quartic": lambda: wells.exp_scaled_quartic(0.5),
    "linear_wells_quartic": lambda: wells.linear_wells_quartic(
        0.0, 0.6, 1.0, 0.0),
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
        spec = wells.linear_wells_quartic(0.0, 0.0, 2.0, 0.0)
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
        spec = wells.linear_wells_quartic(0.0, 0.0, 1.5, 0.0)
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
        batch = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        single = np.array([wells.optimal_profile(spec, p, si)
                           for p, si in zip(pts, s)])
        assert_allclose(batch, single, atol=1e-7)

    def test_exact_for_quartic_family(self):
        spec = quartic(0.0, 2.0, 3.0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, size=(50, 1))
        s = rng.uniform(-6.0, 6.0, size=50)
        assert_allclose(wells.optimal_profile_grid(wells.bind(spec, pts), s),
                        spec.profile_exact(pts, s), atol=1e-12)

    def test_moving_wells(self):
        spec = moving_spec()
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.1, 0.9, size=(20, 1))
        s = rng.uniform(-10.0, 10.0, size=20)
        single = np.array([wells.optimal_profile(spec, p, si)
                           for p, si in zip(pts, s)])
        assert_allclose(wells.optimal_profile_grid(wells.bind(spec, pts), s),
                        single, atol=1e-7)


def per_point(spec, points, s):
    """``wells.optimal_profile_grid`` with each point bound and passed
    alone: one class, one arclength table and one search per point. The
    well is evaluated at that point only (and collapsed to scalars), so a
    batch that matches this also evaluates its coefficients to the bits
    of each point alone."""
    flat_pts = points.reshape(-1, points.shape[-1])
    flat_s = np.asarray(s, dtype=float).reshape(-1)
    out = [wells.optimal_profile_grid(wells.bind(spec, flat_pts[i:i + 1]),
                                      flat_s[i:i + 1])[0]
           for i in range(flat_s.size)]
    return np.array(out).reshape(np.shape(s))


def _unsorted_classes(spec, pts):
    """``wells._well_classes`` with the class id of each point in the
    given order, as the stepping march indexes them."""
    a, b = spec.a(pts), spec.b(pts)
    order, sorted_cls, rep = wells._well_classes(a, b, spec.amplitude(pts))
    cls = np.empty_like(sorted_cls)
    cls[order] = sorted_cls
    return cls, a[rep], b[rep] - a[rep], pts[rep]


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
        return quartic(a0, a0 + draw(hst.floats(0.5, 2.0)),
                       draw(hst.floats(0.2, 5.0)))
    if kind == "affine":
        return along_axis(wells.affine_scaled_quartic(
            offset=draw(hst.floats(0.5, 2.0)),
            slope=draw(hst.floats(-0.4, 2.0))), axis)
    if kind == "exp":
        return along_axis(wells.exp_scaled_quartic(
            draw(hst.floats(-1.0, 1.0))), axis)
    a0 = draw(hst.floats(-0.5, 0.5))
    return along_axis(wells.linear_wells_quartic(
        a0, draw(hst.floats(-0.3, 0.3)), a0 + draw(hst.floats(0.8, 1.5)),
        draw(hst.floats(-0.3, 0.3))), axis)


# offsets of a coefficient, with the zeros and non-finite values that
# bind must reject
_OFFSETS = hst.one_of(hst.floats(-1.0, 2.0),
                      hst.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)))


@hst.composite
def checked_wells(draw, dim):
    """A quartic on [0, 1]^dim whose m or b - a may be zero, negative or
    not finite somewhere: one of the four factories at arguments past its
    double-well range, or canonical_quartic with linear a, b and m whose
    offsets may be +-0, +-inf or NaN."""
    axis = draw(hst.integers(0, dim - 1))
    slope = hst.floats(-1.5, 1.5)
    kind = draw(hst.sampled_from(FACTORY_KINDS + ("canonical",)))
    if kind == "constant":
        a0 = draw(hst.floats(-1.0, 1.0))
        return quartic(
            a0, a0 + draw(hst.floats(-0.5, 1.0)),
            draw(hst.one_of(hst.floats(0.2, 5.0), hst.just(np.inf))))
    if kind == "affine":
        return along_axis(wells.affine_scaled_quartic(
            draw(hst.floats(-1.0, 2.0)), draw(slope)), axis)
    if kind == "exp":
        # m = exp(2 kappa x_axis) underflows to 0 at the far cells for
        # kappa below about -400
        return along_axis(wells.exp_scaled_quartic(draw(hst.one_of(
            hst.floats(-1.0, 1.0), hst.floats(-500.0, -300.0),
            hst.just(np.nan)))), axis)
    if kind == "linear":
        return along_axis(wells.linear_wells_quartic(
            draw(hst.floats(-1.0, 1.0)), draw(slope),
            draw(hst.floats(-1.0, 1.0)), draw(slope)), axis)
    return along_axis(wells.canonical_quartic(*(
        part for _ in range(3)
        for part in wells._coefficient(draw(_OFFSETS), draw(slope)))), axis)


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
        _, knots = wells._arclength_table(spec.a(x), spec.b(x),
                                          spec.amplitude(x), sgn)
        s[i] = sgn * knots[draw(hst.integers(1, wells._TAU.size - 1)), 0]
    return spec, pts, s


class TestProfileGridMatchesSteppingMarch:
    @settings(max_examples=150, deadline=None)
    @given(march_problems())
    def test_bit_identical(self, problem):
        spec, pts, s = problem
        v = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        assert np.array_equal(v, stepping_march(spec, pts, s))

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
            spec = quartic(0.0, 1.5, 2.0)
        elif kind == "both_axes":
            spec = wells.canonical_quartic(
                a=lambda x: 0.3 * x[..., 1], grad_a=lambda x: np.stack(
                    [np.zeros(x.shape[:-1]), np.full(x.shape[:-1], 0.3)], -1),
                b=lambda x: np.ones(np.shape(x)[:-1]),
                grad_b=lambda x: np.zeros(np.shape(x)),
                amplitude=lambda x: 1.0 + 2.0 * x[..., 0],
                grad_amplitude=lambda x: np.stack(
                    [np.full(x.shape[:-1], 2.0), np.zeros(x.shape[:-1])], -1))
        pts = Grid((0.0, 0.0), (1.0, 1.0), (128, 160)).points()
        # up to 26 in |s|, beyond the window of every well here
        s = (pts[..., 0] - 0.5) / 0.02 + (pts[..., 1] - 0.5)
        v = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        assert np.array_equal(v, stepping_march(spec, pts, s))

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
                _, table = wells._arclength_table(spec.a(p), spec.b(p),
                                                  spec.amplitude(p), sgn)
                assert np.all(table[last + 1:] == np.inf)
                edge = table[last, 0]
                for target in (edge, np.nextafter(edge, np.inf), np.inf):
                    pts.append(p[0])
                    s.append(sgn * target)
                    beyond.append(target > edge)
        pts, s, beyond = np.array(pts), np.array(s), np.array(beyond)
        v = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        assert np.array_equal(v, stepping_march(spec, pts, s))
        assert np.array_equal(v[beyond], np.where(s[beyond] > 0, 1.0, 0.0))
        assert np.all((v[~beyond] > 0.0) & (v[~beyond] < 1.0))


class TestProfileArclength:
    def test_grid_rejects_nan(self):
        spec = wells.constant_quartic()
        with pytest.raises(GeometryError, match="NaN at 1 of 3"):
            wells.optimal_profile_grid(wells.bind(spec, np.full((3, 1), 0.3)),
                                       np.array([np.nan, np.inf, -np.inf]))

    @pytest.mark.parametrize("n_points, n_s", ((3, 2), (1, 3)))
    def test_grid_rejects_mismatched_shapes(self, n_points, n_s):
        # three points with two arclengths used to give the profile of the
        # first two points, one point with three a bare IndexError; a
        # coefficient that is neither 0-d nor of s's shape is rejected,
        # one of shape (1,) too
        well = wells.BoundQuartic(*(np.full(n_points, c)
                                    for c in (1.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match=rf"\({n_points},\).*"
                                             rf"\({n_s},\)"):
            wells.optimal_profile_grid(well, np.linspace(-1.0, 1.0, n_s))

    def test_scalar_solver_rejects_nan(self):
        spec = wells.constant_quartic()
        with pytest.raises(GeometryError, match="NaN at 1 of 3"):
            wells.optimal_profile(spec, 0.3,
                                  np.array([np.nan, np.inf, -np.inf]))

    def test_infinite_arclengths_clamp(self):
        spec = wells.constant_quartic()
        s = np.array([np.inf, -np.inf])
        assert np.array_equal(
            wells.optimal_profile_grid(wells.bind(spec, np.full((2, 1), 0.3)),
                                       s),
            [1.0, 0.0])
        assert np.array_equal(wells.optimal_profile(spec, 0.3, s),
                              [1.0, 0.0])


    # a = 1.2 x_0 crosses b = 1 at x_0 = 5/6: at x = (0.95, 0.3), b - a is
    # -0.14, and each profile route must name the well before it computes,
    # at arclength 0 too, where a double well gives 1/2 and the grid march
    # builds no table
    @pytest.mark.parametrize("route", [
        lambda spec, x: spec.profile_rate(x),
        lambda spec, x: spec.profile_exact(x, 1.0),
        lambda spec, x: wells.optimal_profile(spec, x, 1.0),
        lambda spec, x: wells.optimal_profile_grid(wells.bind(spec, x[None]),
                                                   np.array([1.0])),
        lambda spec, x: spec.profile_exact(x, 0.0),
        lambda spec, x: wells.optimal_profile(spec, x, 0.0),
        lambda spec, x: wells.optimal_profile_grid(wells.bind(spec, x[None]),
                                                   np.array([0.0])),
    ], ids=["rate", "exact", "solver", "grid", "exact-at-0", "solver-at-0",
            "grid-at-0"])
    def test_crossed_wells_are_rejected(self, route):
        spec = wells.linear_wells_quartic(0.0, 1.2, 1.0, 0.0)
        with pytest.raises(GeometryError, match="separation b - a"):
            route(spec, np.array([0.95, 0.3]))


class TestProfileGridProperties:
    @settings(max_examples=150, deadline=None)
    @given(profile_problems())
    def test_grouped_march_is_bit_identical_to_per_point(self, problem):
        spec, pts, s = problem
        v = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        assert np.array_equal(v, per_point(spec, pts, s))

    @settings(max_examples=100, deadline=None)
    @given(profile_problems())
    def test_monotone_in_s_and_in_unit_interval(self, problem):
        spec, pts, s = problem
        x = np.repeat(pts[:1], s.size, axis=0)
        s = np.sort(s)
        v = wells.optimal_profile_grid(wells.bind(spec, x), s)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all((v >= 0.0) & (v <= 1.0))


def _mirror_fill(c, axis):
    """``c`` with its trailing n // 2 slices along ``axis`` replaced by the
    leading ones, flipped: mirror-symmetric along that axis."""
    c = np.moveaxis(np.array(c), axis, 0)
    n = c.shape[0]
    c[n - n // 2:] = c[:n // 2][::-1]
    return np.moveaxis(c, 0, axis)


def _planted(spec, name, at, change):
    """``spec`` with its coefficient ``name`` replaced by ``change`` of its
    value at the position ``at``, and unchanged elsewhere."""
    def coefficient(x):
        c = np.array(getattr(spec, name)(x), dtype=float)
        hit = np.all(np.asarray(x) == at, axis=-1)
        c[hit] = change(c[hit])
        return c

    parts = {k: getattr(spec, k) for k in ("a", "grad_a", "b", "grad_b",
                                           "amplitude", "grad_amplitude")}
    parts[name] = coefficient
    return wells.canonical_quartic(**parts)


def _solved_shapes(monkeypatch):
    """The list to which each call of ``wells._solve_profile``, the march
    behind ``optimal_profile_grid``, appends the shape it solves."""
    shapes = []
    solve = wells._solve_profile

    def seen(s, *coefficients):
        shapes.append(s.shape)
        return solve(s, *coefficients)

    monkeypatch.setattr(wells, "_solve_profile", seen)
    return shapes


def _one_ulp_up(c):
    return np.nextafter(c, np.inf)


@hst.composite
def mirror_problems(draw):
    """A quartic well along x_0 or x_1 (turned as ``fieldcheck`` turns
    it), the cell centres of [0, 1]^d with an even or odd number of cells
    per axis, and s, the signed distance to a disk over eps, as
    ``build_recovery`` forms it. A disk about the centre of the box has
    its s mirror-filled along every axis: only power-of-two cell counts
    make it mirror-symmetric by themselves. Then at most one planted
    asymmetry at one point: one ulp or a -0.0 in s (-0.0 facing +0.0),
    one ulp in a, b or m, or a -0.0 in a well whose a is +0.0."""
    dim = draw(hst.sampled_from((1, 2)))
    cells = tuple(draw(hst.sampled_from((8, 9, 10, 11, 13, 16)))
                  for _ in range(dim))
    pts = Grid((0.0,) * dim, (1.0,) * dim, cells).points()
    centred = draw(hst.booleans())
    center = (0.5,) * dim if centred else tuple(
        draw(hst.floats(0.3, 0.7)) for _ in range(dim))
    s = sharp.Sphere(center, draw(hst.floats(0.1, 0.3))).signed_distance(pts)
    s /= draw(hst.floats(0.02, 0.2))
    if centred:
        for ax in range(dim):
            s = _mirror_fill(s, ax)
    plant = draw(hst.one_of(hst.none(), hst.sampled_from((
        "s ulp", "s -0.0", "a ulp", "b ulp", "amplitude ulp", "a -0.0"))))
    if plant == "a -0.0":
        # a = 0.0 * 1 at every point, as the factories build it
        axis = draw(hst.integers(0, dim - 1))
        spec = along_axis(draw(hst.sampled_from((
            wells.constant_quartic(),
            wells.affine_scaled_quartic(1.0, 0.5),
            wells.exp_scaled_quartic(0.5)))), axis)
    else:
        spec = draw(quartic_wells(dim))
    at = tuple(draw(hst.integers(0, n - 1)) for n in cells)
    if plant == "s ulp":
        s[at] = _one_ulp_up(s[at])
    elif plant == "s -0.0":
        ax = draw(hst.integers(0, dim - 1))
        image = list(at)
        image[ax] = cells[ax] - 1 - at[ax]
        s[tuple(image)] = 0.0
        s[at] = -0.0
    elif plant == "a -0.0":
        spec = _planted(spec, "a", pts[at], lambda c: -c)
    elif plant is not None:
        spec = _planted(spec, plant.split()[0], pts[at], _one_ulp_up)
    return spec, pts, s


class TestMirroredProfile:
    @settings(max_examples=60, deadline=None)
    @given(mirror_problems())
    def test_reduced_build_is_bit_identical_to_per_point(self, problem):
        spec, pts, s = problem
        assert bits(wells.optimal_profile_grid(wells.bind(spec, pts), s)) \
            == bits(per_point(spec, pts, s))

    @pytest.mark.parametrize("cells", ((9, 16), (11, 13), (16, 8)))
    @pytest.mark.parametrize("axis", (None, 0, 1))
    def test_odd_and_even_halves(self, cells, axis, monkeypatch):
        # a mirror-filled disk on either parity: a constant well (axis
        # None) solves a quarter, a well along x_axis half the other axis
        spec = wells.constant_quartic() if axis is None else along_axis(
            wells.linear_wells_quartic(0.0, 0.3, 1.0, -0.2), axis)
        pts = Grid((0.0, 0.0), (1.0, 1.0), cells).points()
        s = sharp.Sphere((0.5, 0.5), 0.3).signed_distance(pts) / 0.05
        s = _mirror_fill(_mirror_fill(s, 0), 1)
        want = per_point(spec, pts, s)
        shapes = _solved_shapes(monkeypatch)
        v = wells.optimal_profile_grid(wells.bind(spec, pts), s)
        assert bits(v) == bits(want)
        half = [n - n // 2 for n in cells]
        if axis is not None:
            half[axis] = cells[axis]
        assert shapes == [tuple(half)]

    def test_nan_arclength_text(self):
        # the NaN count is of the whole grid, before any mirror
        pts = Grid((0.0, 0.0), (1.0, 1.0), (16, 16)).points()
        s = np.zeros((16, 16))
        s[3, 4] = s[12, 11] = np.nan
        with pytest.raises(GeometryError, match=re.escape(
                "profile arclength is NaN at 2 of 256 points")):
            wells.optimal_profile_grid(
                wells.bind(wells.constant_quartic(), pts), s)

    @pytest.mark.parametrize("zero", (True, False), ids=("s=0", "disk"))
    def test_crossed_well_text(self, zero):
        # a = 1.2 x_0 crosses b = 1 at x_0 = 5/6; the march reads a bound
        # well, and bind checks every point, so the text names the span of
        # the whole grid whether s is 0 or a disk (mirror-symmetric along
        # x_1, where the well is constant)
        pts = Grid((0.0, 0.0), (1.0, 1.0), (16, 16)).points()
        s = np.zeros((16, 16)) if zero else sharp.Sphere(
            (0.5, 0.5), 0.3).signed_distance(pts) / 0.1
        spec = wells.linear_wells_quartic(0.0, 1.2, 1.0, 0.0)
        with pytest.raises(GeometryError, match=re.escape(
                "separation b - a must be finite and positive at every "
                "point; it spans [-0.16249999999999987, 0.9625]")):
            wells.optimal_profile_grid(wells.bind(spec, pts), s)

    @pytest.mark.parametrize("spec, solved", (
        (wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0), (64, 32)),
        (wells.constant_quartic(), (32, 32))), ids=("moving", "constant"))
    def test_recovery_solves_the_mirrored_part(self, spec, solved,
                                               monkeypatch):
        # criterion 02's well moves along x_0 and is halved along x_1; a
        # constant well is halved along both axes
        shapes = _solved_shapes(monkeypatch)
        grid = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
        var.build_recovery(
            var.bind_recovery(sharp.Sphere((0.5, 0.5), 0.3), spec, grid), 0.08)
        assert shapes == [solved]
        # a 1-d start about a point is not mirror-symmetric: whole grid
        shapes.clear()
        var.build_recovery(var.bind_recovery(
            sharp.Point1D(0.35), spec, Grid.interval(0.0, 1.0, 512)), 0.02)
        assert shapes == [(512,)]

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("k", range(3, 10))
    def test_power_of_two_unit_box_centres_are_antisymmetric(self, dim, k):
        # x - 0.5 at the cell centres of [0, 1]^d with n = 2^k cells per
        # axis is exactly antisymmetric, so a disk about the centre has a
        # mirror-symmetric s on every 2-d registry grid (128^2 to 512^2).
        # Other counts (9, 10, 12, ...) are not, and build in full
        n = 2 ** k
        off = Grid((0.0,) * dim, (1.0,) * dim, (n,) * dim).points() - 0.5
        for ax in range(dim):
            assert np.array_equal(off[..., ax], -np.flip(off[..., ax], ax))

    def test_every_2d_registry_grid_has_power_of_two_cells(self):
        # the unit boxes of 02, 03, 04 and 07 at their defaults: with any
        # other cell count (384^2, say) their disks would build whole,
        # without an error, at about twice or four times the work
        cells = [defaults(name)["grid_n"] for name in (
            "equipartition", "first_variation", "gibbs_thomson")]
        cells += [n for _, n, _ in defaults("ac_to_mcf_radial")["runs"]]
        assert len(cells) == 5
        for n in cells:
            assert n > 0 and n & (n - 1) == 0, n


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
        # the one it formed u from): W, |grad u| and the energy agree, and
        # the energy has the bits of energy_face
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
        assert bound.energy().hex() == at_points.energy().hex() \
            == flow.energy_face(u, grid, state.eps, spec,
                                wells.bind(spec, pts)).hex()

    @settings(max_examples=200, deadline=None)
    @given(hst.sampled_from((1, 2)).flatmap(
        lambda dim: hst.tuples(checked_wells(dim), hst.tuples(
            *[hst.integers(8, 16)] * dim))))
    def test_raises_exactly_where_the_double_well_fails(self, problem):
        spec, cells = problem
        pts = Grid((0.0,) * len(cells), (1.0,) * len(cells), cells).points()
        m, a, b = (f(pts) for f in (spec.amplitude, spec.a, spec.b))
        with np.errstate(invalid="ignore", over="ignore"):
            gap = b - a
        if all(np.all(np.isfinite(c) & (c > 0)) for c in (m, gap)):
            bound = wells.bind(spec, pts)
            # checked, the coefficients keep their evaluated, collapsed bits
            for got, c in zip((bound.m, bound.a, bound.b), (m, a, b)):
                assert bits(got) == bits(wells._collapse(c))
        else:
            with pytest.raises(GeometryError, match="finite and positive"):
                wells.bind(spec, pts)

    def test_constant_coefficients_collapse_to_scalars(self):
        pts = Grid((0.0, 0.0), (1.0, 1.0), (8, 8)).points()
        bound = wells.bind(along_axis(wells.exp_scaled_quartic(0.5), 1), pts)
        assert np.ndim(bound.a) == np.ndim(bound.b) == 0
        assert (bound.a, bound.b) == (0.0, 1.0)
        assert bound.m.shape == (8, 8)
        assert np.ndim(wells.bind(wells.constant_quartic(), pts).m) == 0


# b - a = 1 - 1.2 x_0 is negative on x_0 > 5/6, a NaN amplitude and one
# that is negative on x_0 < 0.5: each must stop a run where it binds
BROKEN_WELLS = {
    "crossing": wells.linear_wells_quartic(0.0, 1.2, 1.0, 0.0),
    "nan amplitude": wells.exp_scaled_quartic(np.nan),
    "negative amplitude": wells.affine_scaled_quartic(-0.5, 1.0),
}


class TestEntryPointsRejectABrokenWell:
    @pytest.mark.parametrize("name", sorted(BROKEN_WELLS))
    @pytest.mark.parametrize("entry", ("build_recovery", "run", "step_minmov",
                                       "minimize_constrained"))
    def test_raises_before_any_state(self, monkeypatch, entry, name):
        spec = BROKEN_WELLS[name]
        grid = Grid((0.0, 0.0), (1.0, 1.0), (32, 32))
        state = flow.PhaseState(Field.constant(grid, 0.5), 0.15)

        def tripwire(*args, **kwargs):
            raise AssertionError("a profile or a state was built or stepped")

        for module, attr in ((var, "optimal_profile_grid"), (var, "Field"),
                             (var, "PhaseState"), (flow, "energy_face"),
                             (flow, "_march"), (flow, "_bb_descent")):
            monkeypatch.setattr(module, attr, tripwire)
        calls = {
            "build_recovery": lambda: var.build_recovery(var.bind_recovery(
                sharp.Sphere((0.5, 0.5), 0.25), spec, grid), 0.125),
            "run": lambda: flow.run(state, spec, 1e-4, 2e-4),
            "step_minmov": lambda: flow.step_minmov(state, spec, 1e-4),
            "minimize_constrained": lambda: flow.minimize_constrained(
                spec, grid, 0.15, 0.8, state.u),
        }
        with pytest.raises(GeometryError, match="must be finite and positive"):
            calls[entry]()


class TestSigmaRoutesRejectABrokenWell:
    # each sigma route checks the double well at all its positions before
    # any quadrature: the crossing well used to give sigma = -6.4677e-4 at
    # x_0 = 0.95, and x_0 = 0.2 is where the negative amplitude is negative
    @pytest.mark.parametrize("name", sorted(BROKEN_WELLS))
    @pytest.mark.parametrize("route", ("sigma_exact", "closed-form value",
                                       "closed-form grad", "surface_tension",
                                       "quadrature grad", "geodesic_distance"))
    def test_raises_before_any_quadrature(self, monkeypatch, route, name):
        spec = BROKEN_WELLS[name]

        def tripwire(*args, **kwargs):
            raise AssertionError("a quadrature ran")

        for module in (wells, sharp):
            monkeypatch.setattr(module, "adaptive_gauss_legendre", tripwire)
        routes = {
            "sigma_exact": spec.sigma_exact,
            "closed-form value": sharp.sigma_field_of(spec).value,
            "closed-form grad": sharp.sigma_field_of(spec).grad,
            "surface_tension": lambda x: wells.surface_tension(spec, x),
            "quadrature grad": sharp.sigma_from_well(spec).grad,
            "geodesic_distance": lambda x: wells.geodesic_distance(spec, x,
                                                                   1.0),
        }
        pts = np.array([[0.5, 0.5], [0.95, 0.5], [0.2, 0.5]])
        with pytest.raises(GeometryError, match="must be finite and positive"):
            routes[route](pts)


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


@hst.composite
def reaction_into_db_problems(draw):
    """m2 and da, each a scalar or an array of one drawn shape, and db,
    an array of that shape."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))

    def operand(elements):
        if draw(hst.booleans()):
            return np.float64(draw(elements))
        return draw(hnp.arrays(float, shape, elements=elements))

    m2 = operand(hst.one_of(
        hst.floats(2e-3, 2e3),
        hst.sampled_from([2.0, 1e-323, 2e-310, 2e150, 2e300])))
    return m2, operand(_REACTION_VALUES), \
        draw(hnp.arrays(float, shape, elements=_REACTION_VALUES))


class TestReactionIntoDb:
    @settings(max_examples=200, deadline=None)
    @given(reaction_into_db_problems())
    def test_sum_into_db_has_the_bits_of_the_allocating_form(self, problem):
        # out=(dw, db): the product and da + db as out=None forms them,
        # with da kept
        m2, da, db = problem
        with np.errstate(all="ignore"):
            alloc = wells.quartic_dW_du(m2, da, db)
            total = da + db
            kept = np.copy(da).tobytes()
            dw = np.empty(db.shape)
            got = wells.quartic_dW_du(m2, da, db, out=(dw, db))
        assert got is dw
        assert got.tobytes() == alloc.tobytes()
        assert db.tobytes() == total.tobytes()
        assert np.asarray(da).tobytes() == kept


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

    # a NaN tol used to bisect to the 20 000-panel budget and raise
    # NumericError, an infinite one to return the first panel
    # uncertified (0.49979 +- 3.4e-3 for sqrt|t - 0.3| on [0, 1]); each is
    # rejected before any panel, also through the sigma quadrature
    @pytest.mark.parametrize("tol", (np.nan, np.inf, -np.inf, 0.0, -1.0))
    def test_tolerance_must_be_positive_and_finite(self, tol):
        def tripwire(t):
            raise AssertionError("a panel was integrated")

        with pytest.raises(ValueError, match="tol must be positive and "
                                             "finite"):
            adaptive_gauss_legendre(tripwire, 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and "
                                             "finite"):
            wells.surface_tension(wells.constant_quartic(), 0.3, tol=tol)
