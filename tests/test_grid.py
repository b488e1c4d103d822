"""Grid operators: Neumann stencils, quadrature, level sets."""

import math
import pickle

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from wmcflab.errors import ExtractionError, GridMismatchError
from wmcflab.grid import (Field, FieldStack, Grid, VectorField, _axis_scaling,
                          _second_difference, extract_levelset, fit_circle,
                          gradient_neumann, integrate, laplacian_neumann,
                          pair_density)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.interval(0.0, 1.0, 4)          # too few cells
    with pytest.raises(ValueError):
        Grid.box((0, 0), (1, 0), (16, 16))  # degenerate axis
    g = Grid.box((0, 0), (2, 1), (64, 16))
    assert g.spacing[0] == pytest.approx(2 / 64)
    assert g.cell_volume == pytest.approx((2 / 64) * (1 / 16))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("side", ("lower", "upper"))
@pytest.mark.parametrize("dim", (1, 2))
def test_grid_rejects_non_finite_bounds(dim, side, bad):
    # a NaN bound passed hi <= lo and gave NaN spacing and cell centres;
    # an infinite one gave spacing inf
    for axis in range(dim):
        bounds = {"lower": [0.0] * dim, "upper": [1.0] * dim}
        bounds[side][axis] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Grid(bounds["lower"], bounds["upper"], (16,) * dim)


bounds = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
lengths = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
sizes = st.integers(8, 40)


@st.composite
def grids(draw):
    """1-d and 2-d grids; about half the axes are dyadic: spacing 2^-k
    from a quarter-integer lower corner, so the upper corner is exact."""
    dim = draw(st.sampled_from((1, 2)))
    cells = tuple(draw(sizes) for _ in range(dim))
    lower, upper = [], []
    for n in cells:
        if draw(st.booleans()):
            lower.append(draw(st.integers(-40, 40)) / 4)
            upper.append(lower[-1] + n * 2.0 ** -draw(st.integers(2, 6)))
        else:
            lower.append(draw(bounds))
            upper.append(lower[-1] + draw(lengths))
    return Grid(lower, upper, cells)


class TestGridProperties:
    @given(grids())
    def test_spacing_is_read_only(self, g):
        for grid in (g, pickle.loads(pickle.dumps(g))):
            with pytest.raises(ValueError):
                grid.spacing[0] = 1.0
            # the stencil scaling is derived with the spacing, copies too
            assert grid._stencil_scaling == tuple(
                _axis_scaling(float(h ** 2)) for h in grid.spacing)
        expected = (np.array(g.upper) - np.array(g.lower)) / np.array(g.cells)
        assert np.array_equal(g.spacing, expected)
        assert g.cell_volume == float(np.prod(expected))

    @given(grids())
    def test_equal_grids_compare_and_hash_equal(self, g):
        twin = Grid(list(g.lower), list(g.upper), [float(n) for n in g.cells])
        assert twin == g
        assert hash(twin) == hash(g)
        assert len({g, twin, pickle.loads(pickle.dumps(g))}) == 1
        other = Grid(g.lower, g.upper, tuple(n + 1 for n in g.cells))
        assert other != g


def test_field_shape_and_finiteness():
    g = Grid.interval(0, 1, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        Field(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        VectorField(g, (np.zeros(16), np.zeros(16)))
    # a stack holds its fields along one leading axis; a Field takes none
    for bad in (np.zeros(16), np.zeros((2, 8)), np.zeros((2, 1, 16))):
        with pytest.raises(ValueError, match="does not match"):
            FieldStack(g, bad)
    with pytest.raises(ValueError, match="does not match"):
        Field(g, np.zeros((1, 16)))
    with pytest.raises(ValueError, match="must be finite"):
        FieldStack(g, np.full((2, 16), np.inf))


class TestLaplacian:
    def test_constant_is_harmonic(self):
        g = Grid.box((0, 0), (1, 1), (32, 32))
        lap = laplacian_neumann(Field.constant(g, 3.7))
        assert np.max(np.abs(lap.values)) == 0.0

    def test_cosine_interior_accuracy(self):
        g = Grid.interval(0.0, 1.0, 256)
        x = g.axis_centers(0)
        lap = laplacian_neumann(Field(g, np.cos(np.pi * x)))
        err = np.max(np.abs(lap.values + np.pi ** 2 * np.cos(np.pi * x)))
        # truncation pi^4 h^2 / 12
        assert err <= 2.0 * np.pi ** 4 * g.spacing[0] ** 2 / 12.0

    def test_output_sums_to_zero(self):
        g = Grid.box((0, 0), (1, 1), (64, 64))
        rng = np.random.default_rng(0)
        f = Field(g, rng.standard_normal(g.cells))
        lap = laplacian_neumann(f)
        total = np.sum(lap.values) * g.cell_volume
        scale = np.sum(np.abs(lap.values)) * g.cell_volume
        assert abs(total) <= 1e-12 * max(scale, 1.0)

    def test_integration_by_parts_symmetry(self):
        g = Grid.box((0, 0), (1, 1), (32, 32))
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal(g.cells))
        h = Field(g, rng.standard_normal(g.cells))
        s1 = integrate(Field(g, f.values * laplacian_neumann(h).values))
        s2 = integrate(Field(g, h.values * laplacian_neumann(f).values))
        assert abs(s1 - s2) <= 1e-11 * max(abs(s1), 1.0)

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid.interval(0.0, 1.0, n)
            x = g.axis_centers(0)
            lap = laplacian_neumann(Field(g, np.cos(2 * np.pi * x)))
            exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
            errs.append(np.max(np.abs(lap.values - exact)[4:-4]))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


def _lap_reference(v, h):
    """The stencil as written with ``np.pad(mode="edge")`` ghosts."""
    if v.ndim == 1:
        p = np.pad(v, 1, mode="edge")
        return (p[2:] - 2.0 * v + p[:-2]) / h[0] ** 2
    p = np.pad(v, ((1, 1), (0, 0)), mode="edge")
    out = (p[2:, :] - 2.0 * v + p[:-2, :]) / h[0] ** 2
    p = np.pad(v, ((0, 0), (1, 1)), mode="edge")
    return out + (p[:, 2:] - 2.0 * v + p[:, :-2]) / h[1] ** 2


def _second_difference_reference(v, axis):
    """(v[i+1] - 2 v[i]) + v[i-1] along ``axis`` of a 2-d array, with
    ``np.pad(mode="edge")`` ghosts."""
    if axis == 0:
        p = np.pad(v, ((1, 1), (0, 0)), mode="edge")
        return p[2:, :] - 2.0 * v + p[:-2, :]
    p = np.pad(v, ((0, 0), (1, 1)), mode="edge")
    return p[:, 2:] - 2.0 * v + p[:, :-2]


def _grad_reference(v, h):
    """Centered differences as written with ``np.pad(mode="edge")`` ghosts."""
    p = np.pad(v, 1, mode="edge")
    if v.ndim == 1:
        return [(p[2:] - p[:-2]) / (2.0 * h[0])]
    return [(p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h[0]),
            (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h[1])]


values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def spans(n):
    """Lengths of an axis of n cells: a float in [0.01, 1000], or, about
    half the time, the dyadic n 2^k (spacing 2^k, from 1/128 to 16)."""
    return st.one_of(
        st.floats(0.01, 1e3, allow_nan=False, allow_infinity=False),
        st.integers(-7, 4).map(lambda k: n * 2.0 ** k))


@st.composite
def boxes(draw):
    """(cells, span) of a 2-d box whose lower corner is the origin."""
    cells = (draw(sizes), draw(sizes))
    return cells, tuple(draw(spans(n)) for n in cells)


@st.composite
def grid_fields(draw, count=1):
    g = draw(grids())
    return (g,) + tuple(
        Field(g, draw(hnp.arrays(float, g.cells, elements=values)))
        for _ in range(count))


def _roundoff_bound(g, u, w):
    """Bound on |sum Lap(u) w - sum u Lap(w)| from roundoff, for the
    summation-by-parts identities below.

    The relative part, 64 eps times a bound on sum |Lap| |u| |w|, covers
    results in the normal range. A quotient or product that lands below
    it rounds by up to half a subnormal spacing however small it is, which
    no relative bound sees. Each summed term carries one such quotient per
    axis (in Lap, then scaled by the other factor) and one such product;
    sums of subnormals are exact. The absolute part allows four times that
    error, n (2 + max|u| + max|w|) subnormal spacings.
    """
    inv_h2 = float(np.sum(1.0 / g.spacing ** 2))
    a, b = np.abs(u.values), np.abs(w.values)
    scale = 4.0 * inv_h2 * max(np.sum(a) * np.max(b), np.sum(b) * np.max(a))
    tiny = np.finfo(float).smallest_subnormal \
        * a.size * (2.0 + np.max(a) + np.max(b))
    return 64 * np.finfo(float).eps * scale + 4.0 * tiny


# f at the smallest subnormal: s1 = 0 exactly, while each product of s2
# rounds by one subnormal spacing (|s1 - s2| = 5e-324)
_G8 = Grid((0.0,), (5.0,), (8,))
SUBNORMAL_CASE = (_G8, Field(_G8, np.full(8, 5e-324)),
                  Field(_G8, np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])))


class TestLaplacianProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    def test_bit_identical_to_pad_formula(self, gf):
        # with and without out=, which then holds the returned values; the
        # gradient's ghosts too
        g, f = gf
        ref = _lap_reference(f.values, g.spacing)
        assert np.array_equal(laplacian_neumann(f).values, ref)
        out = np.full(g.cells, np.nan)
        assert laplacian_neumann(f, out=out).values is out
        assert np.array_equal(out, ref)
        comps = gradient_neumann(f).components
        ref = _grad_reference(f.values, g.spacing)
        assert len(comps) == len(ref) == g.dim
        for c, r in zip(comps, ref):
            assert np.array_equal(c, r)

    @settings(max_examples=60, deadline=None)
    @given(grid_fields(count=3))
    def test_stack_has_the_bits_of_each_field(self, gf):
        # one call on a FieldStack gives each field the bits it gets alone
        g, *fields = gf
        lap = laplacian_neumann(FieldStack(g, [f.values for f in fields]))
        assert isinstance(lap, FieldStack)
        for f, row in zip(fields, lap.values):
            assert row.tobytes() == laplacian_neumann(f).values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(boxes(), st.data())
    def test_2d_bit_identical_to_unfused_expression(self, box, data):
        # the in-place 2-d stencil against the expression it replaced,
        # on boxes 0.01 to 1000 long per axis, dyadic or not
        cells, span = box
        g = Grid((0.0, 0.0), span, cells)
        v = data.draw(hnp.arrays(float, cells, elements=values))
        h = g.spacing
        p = np.pad(v, 1, mode="edge")
        old = (p[2:, 1:-1] - 2.0 * v + p[:-2, 1:-1]) / h[0] ** 2
        old = old + (p[1:-1, 2:] - 2.0 * v + p[1:-1, :-2]) / h[1] ** 2
        assert np.array_equal(laplacian_neumann(Field(g, v)).values, old)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(-1074, 1023).map(lambda k: 2.0 ** k),
                     st.floats(1e-300, 1e300)),
           hnp.arrays(float, 24, elements=st.one_of(
               st.floats(allow_nan=False),
               st.floats(-1e-300, 1e-300),      # subnormal quotients
               st.floats(1e300, np.finfo(float).max))))
    @example(2.0 ** -1023, np.array([5e-324, -2.5e-323, 1.0, 1.7e308]))
    @example(2.0 ** 1023, np.array([5e-324, 3e-308, -1.0, 1.7e308]))
    @example(2.0 ** -1024, np.array([5e-324, 1.0]))
    @example(0.1 ** 2, np.arange(1.0, 100.0))
    def test_scaling_has_the_bits_of_division(self, h2, x):
        # the stencil's scaling by 1 / h^2 multiplies where h^2 = 2^k and
        # 2^-k is a double, and has the bits of x / h^2 for every x,
        # subnormal and overflowing quotients included; any other h^2
        # keeps the division (the reciprocal of 0.1^2 is inexact, and
        # multiplying by it would change some quotients of the example)
        op, c = _axis_scaling(h2)
        dyadic = math.frexp(h2)[0] == 0.5 and h2 >= 2.0 ** -1023
        assert op is (np.multiply if dyadic else np.divide)
        with np.errstate(over="ignore"):
            assert op(x, c).tobytes() == (x / h2).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2)), st.integers(1, 6), st.booleans(),
           st.data())
    def test_second_difference_on_short_axes(self, short, other, flip, data):
        # boxes with a 1-cell or 2-cell axis (below the 8 cells a Grid
        # allows), where a boundary cell's neighbour is the other boundary
        # cell or itself
        shape = (other, short) if flip else (short, other)
        v = data.draw(hnp.arrays(float, shape, elements=values))
        for axis in (0, 1):
            out = np.full(shape, np.nan)
            assert _second_difference(v, axis, out) is out
            assert out.tobytes() == _second_difference_reference(v, axis) \
                .tobytes()

    @settings(max_examples=60, deadline=None)
    @given(boxes(), st.sampled_from(("transposed", "strided")), st.data())
    def test_noncontiguous_input_matches_pad_formula(self, box, layout,
                                                     data):
        # a transposed view and a strided slice, with and without out=;
        # out= may itself be a transposed view
        cells, span = box
        g = Grid((0.0, 0.0), span, cells)
        if layout == "transposed":
            base = data.draw(hnp.arrays(float, cells[::-1], elements=values))
            v = base.T
        else:
            base = data.draw(hnp.arrays(
                float, (2 * cells[0], 3 * cells[1]), elements=values))
            v = base[::2, ::3]
        assert not v.flags.c_contiguous
        kept = base.copy()
        f = Field(g, v)
        ref = _lap_reference(v, g.spacing)
        assert laplacian_neumann(f).values.tobytes() == ref.tobytes()
        for out in (np.full(cells, np.nan), np.full(cells[::-1], np.nan).T):
            assert laplacian_neumann(f, out=out).values is out
            assert out.tobytes() == ref.tobytes()
        assert np.array_equal(base, kept)

    def test_second_difference_rejects_noncontiguous_out_across(self):
        # along axis 1 the passes run over the flattened out, which a
        # non-C-contiguous out cannot give without a copy
        v = np.arange(12.0).reshape(3, 4)
        out = np.zeros((4, 3)).T
        with pytest.raises(ValueError, match="C-contiguous out"):
            _second_difference(v, 1, out)
        _second_difference(v, 0, out)
        assert out.tobytes() == _second_difference_reference(v, 0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    @example((SUBNORMAL_CASE[0], SUBNORMAL_CASE[1]))
    def test_output_sums_to_zero(self, gf):
        g, f = gf
        ones = Field.constant(g, 1.0)
        total = float(np.sum(laplacian_neumann(f).values))
        assert abs(total) <= _roundoff_bound(g, f, ones)

    @settings(max_examples=60, deadline=None)
    @given(grid_fields(count=2))
    @example(SUBNORMAL_CASE)
    def test_symmetric(self, gfw):
        g, f, w = gfw
        s1 = float(np.sum(laplacian_neumann(f).values * w.values))
        s2 = float(np.sum(f.values * laplacian_neumann(w).values))
        assert abs(s1 - s2) <= _roundoff_bound(g, f, w)


class TestGradient:
    def test_constant(self):
        g = Grid.box((0, 0), (1, 1), (16, 16))
        grad = gradient_neumann(Field.constant(g, 1.23))
        assert np.max(grad.norm()) == 0.0

    def test_quadratic_interior_exact(self):
        g = Grid.box((0, 0), (1, 1), (32, 32))
        f = Field.from_function(g, lambda p: p[..., 0] ** 2)
        grad = gradient_neumann(f)
        x = g.axis_centers(0)
        interior = grad.components[0][1:-1, :]
        assert np.max(np.abs(interior - 2.0 * x[1:-1][:, None])) <= 1e-12

    def test_mirror_symmetric_data_has_zero_normal_derivative(self):
        g = Grid.interval(0.0, 1.0, 32)
        f = Field.constant(g, 2.0)
        grad = gradient_neumann(f)
        assert grad.components[0][0] == 0.0
        assert grad.components[0][-1] == 0.0

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid.interval(0.0, 1.0, n)
            x = g.axis_centers(0)
            grad = gradient_neumann(Field(g, np.sin(2 * np.pi * x)))
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs.append(np.max(np.abs(grad.components[0] - exact)[4:-4]))
        assert np.log2(errs[0] / errs[2]) / 2.0 >= 1.9


class TestIntegrate:
    def test_constant_unit_square(self):
        g = Grid.box((0, 0), (1, 1), (16, 16))
        assert integrate(Field.constant(g, 1.0)) == pytest.approx(1.0)

    def test_midpoint_exact_on_linear(self):
        g = Grid.interval(0.0, 1.0, 64)
        f = Field.from_function(g, lambda p: p[..., 0])
        assert integrate(f) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_error_is_second_order(self):
        errs = []
        for n in (32, 64, 128):
            g = Grid.interval(0.0, 1.0, n)
            f = Field.from_function(g, lambda p: p[..., 0] ** 2)
            errs.append(abs(integrate(f) - 1.0 / 3.0))
        assert np.log2(errs[0] / errs[2]) / 2.0 >= 1.9


class TestPairing:
    def test_unit_test_function(self):
        g = Grid.interval(0.0, 1.0, 32)
        rng = np.random.default_rng(3)
        dens = Field(g, rng.uniform(0, 1, g.cells))
        assert pair_density(dens, Field.constant(g, 1.0)) == pytest.approx(
            integrate(dens))

    def test_zero_density(self):
        g = Grid.interval(0.0, 1.0, 32)
        assert pair_density(Field.constant(g, 0.0),
                            Field.constant(g, 2.0)) == 0.0

    def test_grid_mismatch(self):
        g1 = Grid.interval(0.0, 1.0, 32)
        g2 = Grid.interval(0.0, 1.0, 64)
        with pytest.raises(GridMismatchError):
            pair_density(Field.constant(g1, 1.0), Field.constant(g2, 1.0))

    def test_profile_energy_density_pairs_to_sigma(self):
        # gradient-energy density of the exact 1-d profile integrates to
        # sigma up to O(eps + h^2)
        eps = 0.02
        g = Grid.interval(0.0, 1.0, 1024)
        x = g.axis_centers(0)
        u = 1.0 / (1.0 + np.exp(-np.sqrt(2) * (x - 0.5) / eps))
        dens = eps * gradient_neumann(Field(g, u)).norm() ** 2
        val = pair_density(Field(g, dens), Field.constant(g, 1.0))
        assert abs(val - np.sqrt(2) / 6) <= 5 * (eps ** 2 + g.spacing[0] ** 2 / eps)


def _levelset_reference(f, level):
    """Crossing points by the former two algorithms: sign changes between
    neighbours in 1-d, a walk over mixed cells that appends each crossing
    edge once in 2-d."""
    d = f.values - level
    if f.grid.dim == 1:
        x = f.grid.axis_centers(0)
        sign_change = d[:-1] * d[1:] < 0
        theta = d[:-1][sign_change] / (d[:-1][sign_change] - d[1:][sign_change])
        crossings = x[:-1][sign_change] + theta * f.grid.spacing[0]
        return np.sort(np.concatenate([crossings, x[d == 0]]))

    xs = f.grid.axis_centers(0)
    ys = f.grid.axis_centers(1)
    pts = []
    seen = set()

    def crossing(i0, j0, i1, j1):
        if (i1, j1) < (i0, j0):
            i0, j0, i1, j1 = i1, j1, i0, j0
        key = (i0, j0, i1, j1)
        if key in seen:
            return
        d0, d1 = d[i0, j0], d[i1, j1]
        if d0 * d1 >= 0 and not (d0 == 0 or d1 == 0):
            return
        theta = 0.5 if d0 == d1 else d0 / (d0 - d1)
        if not (0.0 <= theta <= 1.0):
            return
        seen.add(key)
        pts.append(np.array([xs[i0] + theta * (xs[i1] - xs[i0]),
                             ys[j0] + theta * (ys[j1] - ys[j0])]))

    mixed_i, mixed_j = np.nonzero(
        (np.sign(d[:-1, :-1]) != np.sign(d[1:, :-1]))
        | (np.sign(d[:-1, :-1]) != np.sign(d[:-1, 1:]))
        | (np.sign(d[:-1, :-1]) != np.sign(d[1:, 1:]))
    )
    for i, j in zip(mixed_i, mixed_j):
        crossing(i, j, i + 1, j)
        crossing(i + 1, j, i + 1, j + 1)
        crossing(i + 1, j + 1, i, j + 1)
        crossing(i, j + 1, i, j)
    return np.array(pts).reshape(-1, 2)


class TestLevelSet:
    def test_linear_crossing(self):
        g = Grid.interval(0.0, 1.0, 64)
        f = Field.from_function(g, lambda p: p[..., 0])
        ls = extract_levelset(f, 0.5)
        assert ls.position() == pytest.approx(0.5, abs=g.spacing[0] ** 2)

    def test_radial_profile_circle_fit(self):
        g = Grid.box((0, 0), (1, 1), (128, 128))
        pts = g.points()
        r = np.sqrt((pts[..., 0] - 0.5) ** 2 + (pts[..., 1] - 0.5) ** 2)
        v = 1.0 / (1.0 + np.exp(-np.sqrt(2) * (0.3 - r) / 0.02))
        ls = extract_levelset(Field(g, v), 0.5)
        center, radius = ls.fitted_circle()
        assert_allclose(center, [0.5, 0.5], atol=g.spacing[0])
        assert radius == pytest.approx(0.3, abs=g.spacing[0])

    def test_no_crossing_raises(self):
        g = Grid.interval(0.0, 1.0, 16)
        with pytest.raises(ExtractionError):
            extract_levelset(Field.constant(g, 1.0), 0.5)

    def test_fit_circle_exact_on_circle(self):
        theta = np.linspace(0, 2 * np.pi, 37)[:-1]
        pts = np.stack([0.2 + 0.45 * np.cos(theta),
                        -0.1 + 0.45 * np.sin(theta)], axis=-1)
        center, radius = fit_circle(pts)
        assert_allclose(center, [0.2, -0.1], atol=1e-12)
        assert radius == pytest.approx(0.45, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(grid_fields(), st.sampled_from((0.0, 0.5)))
    def test_matches_former_algorithms(self, gf, level):
        # fields with no value at the level, where both rules take the same
        # edges; the reference tests d0 * d1 < 0, so fields where that
        # product underflows to zero are left to test_tiny_values_cross
        g, f = gf
        d = f.values - level
        assume(np.any(d > 0) and np.any(d < 0) and not np.any(d == 0))
        for k in range(g.dim):
            dk = np.moveaxis(d, k, 0)
            assume(not np.any((dk[:-1] * dk[1:] == 0)
                              & (np.sign(dk[:-1]) != np.sign(dk[1:]))))
        got = extract_levelset(f, level).points
        ref = _levelset_reference(f, level)
        if g.dim == 1:
            assert np.array_equal(got, ref)
        else:
            # the reference steps by xs[i + 1] - xs[i] in place of h, a few
            # units in the last place of the largest coordinate apart; that
            # can swap two crossings with near-equal x in sorted order, so
            # each point is matched to its nearest neighbour in the other set
            tol = 1e-15 * max(1.0, *map(abs, g.lower + g.upper))
            assert got.shape == ref.shape
            assert np.max(cKDTree(ref).query(got)[0]) <= tol
            assert np.max(cKDTree(got).query(ref)[0]) <= tol

    def test_centers_on_the_level_counted_once(self):
        # v = x + y is exactly 1 on the 8 anti-diagonal centers, and no
        # edge straddles 1; the former walk returned each center once per
        # edge touching it, 28 points that weight the circle fit unevenly
        g = Grid.box((0, 0), (1, 1), (8, 8))
        f = Field.from_function(g, lambda p: p[..., 0] + p[..., 1])
        x = g.axis_centers(0)
        assert np.array_equal(extract_levelset(f, 1.0).points,
                              np.stack([x, x[::-1]], axis=-1))

    def test_tiny_values_cross(self):
        # d0 * d1 underflows to zero here; the sign test still finds the
        # crossing halfway between the two middle centers
        g = Grid.interval(0.0, 1.0, 8)
        f = Field(g, np.where(g.axis_centers(0) < 0.5, 1e-200, -1e-200))
        assert np.array_equal(extract_levelset(f, 0.0).points, [0.5])
