"""Time integration: stepping, ledger bookkeeping, constrained minima."""

import itertools
import math
import sys
from typing import NamedTuple
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import flow, sharp, wells
from wmcflab.errors import NumericError
from wmcflab.grid import Field, Grid, extract_levelset, laplacian_neumann

from fieldcheck import along_axis

SQRT2_6 = 0.23570226039551587


def _lap(values, grid):
    return laplacian_neumann(Field(grid, values)).values


def profile_state(n=512, eps=0.02, center=0.5, grid=None):
    g = grid or Grid.interval(0.0, 1.0, n)
    x = g.axis_centers(0)
    u = 1.0 / (1.0 + np.exp(-np.sqrt(2) * (x - center) / eps))
    return flow.PhaseState(Field(g, u), eps)


def energy_of(st, spec):
    """``energy_face`` of one state, with the well bound to its grid."""
    g = st.u.grid
    return flow.energy_face(st.u.values, g, st.eps, spec,
                            wells.bind(spec, g.points()))


class TestEnergy:
    def test_well_state_has_zero_energy(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        st = flow.PhaseState(Field.constant(g, 1.0), 0.05)
        assert energy_of(st, spec) == 0.0

    def test_profile_energy_is_sigma(self):
        spec = wells.constant_quartic()
        st = profile_state(n=1024, eps=0.02)
        assert abs(energy_of(st, spec) - SQRT2_6) <= 2e-3

    def test_widening_eps_reduces_potential_dominated_energy(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 64)
        f = Field.constant(g, 0.5)
        e1 = energy_of(flow.PhaseState(f, 0.05), spec)
        e2 = energy_of(flow.PhaseState(f, 0.10), spec)
        assert e2 < e1


def one_step(st, spec, dt):
    return flow.run(st, spec, dt=dt, t_end=st.time + dt).state


def _cg(apply_op, rhs, tol: float = 1e-10, max_iter: int = 20000):
    """Plain conjugate gradient on arrays; returns (solution, residual).
    The reference solver the direct spectral solve is checked against."""
    x = rhs.copy()
    r = rhs - apply_op(x)
    p = r.copy()
    rr = float(np.sum(r * r))
    target = max(tol, 1e-14 * np.sqrt(float(np.sum(rhs * rhs))))
    for _ in range(max_iter):
        if np.sqrt(rr) <= target:
            return x, float(np.sqrt(rr))
        ap = apply_op(p)
        alpha = rr / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rr_new = float(np.sum(r * r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise NumericError("conjugate gradient did not reach the residual target",
                       achieved=float(np.sqrt(rr)), last_iterate=x)


def _reference_run(state, spec, dt, t_end, snapshot_times=()):
    """``flow.run`` as one step at a time: a ``PhaseState`` per step, W and
    dW_du through the spec's closures, the residual stencil on a padded
    copy and the energy summed as ``energy_face`` wrote it. The reference
    the run kernel is checked against bit for bit; it takes valid
    arguments only."""
    from scipy.fft import dctn, idctn

    grid = state.u.grid
    bound = wells.bind(spec, grid.points())
    eps = state.eps
    h = grid.spacing

    def lap(v):
        p = np.pad(v, 1, mode="edge")
        if grid.dim == 1:
            return (p[2:] - 2.0 * v + p[:-2]) / h[0] ** 2
        v2 = 2.0 * v
        out = (p[2:, 1:-1] - v2 + p[:-2, 1:-1]) / h[0] ** 2
        return out + (p[1:-1, 2:] - v2 + p[1:-1, :-2]) / h[1] ** 2

    def energy(v):
        total = float(np.sum(spec.W(bound, v))) / eps
        total += 0.5 * eps * float(np.sum((v[1:] - v[:-1]) ** 2)) / h[0] ** 2
        if grid.dim == 2:
            total += 0.5 * eps * float(
                np.sum((v[:, 1:] - v[:, :-1]) ** 2)) / h[1] ** 2
        return total * grid.cell_volume

    n_steps = int(round((t_end - state.time) / dt))
    ledger = flow.DissipationLedger(e_initial=energy(state.u.values))
    denom = flow._spectral_denominator(grid, dt)
    snapshots = []
    want = sorted(snapshot_times)
    for k in range(1, n_steps + 1):
        u_old = state.u.values
        rhs = u_old - (dt / eps ** 2) * spec.dW_du(bound, u_old)
        sol = idctn(dctn(rhs, type=2, norm="ortho") / denom, type=2,
                    norm="ortho")
        state = state.replace(sol, time=state.time + dt)
        resid = float(np.sqrt(np.sum((sol - dt * lap(sol) - rhs) ** 2)))
        increment = eps / dt * float(np.sum((sol - u_old) ** 2)) \
            * grid.cell_volume
        ledger.append(k, state.time, energy(sol), increment, resid)
        while want and (k == n_steps or state.time >= want[0] - 1e-12):
            snapshots.append(state)
            want.pop(0)
    return flow.RunResult(state, ledger, snapshots)


class TestSemiImplicit:
    def test_well_value_is_fixed_point(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 64)
        st = flow.PhaseState(Field.constant(g, 1.0), 0.05)
        out = one_step(st, spec, 1e-4)
        assert np.max(np.abs(out.u.values - 1.0)) <= 1e-12

    def test_rejects_unstable_step(self):
        spec = wells.constant_quartic()
        st = profile_state(n=128, eps=0.02)
        with pytest.raises(ValueError, match="stability bound"):
            one_step(st, spec, 1e-2)

    def test_standing_profile_is_stationary(self):
        spec = wells.constant_quartic()
        st = profile_state(n=256, eps=0.05)
        out = flow.run(st, spec, dt=5e-4, t_end=0.2).state
        pos = extract_levelset(out.u, 0.5).position()
        assert abs(pos - 0.5) <= 1e-3

    def test_mass_conserved_for_symmetric_data(self):
        # reaction is odd about the well midpoint, so symmetric data keep
        # their mean
        spec = wells.constant_quartic()
        st = profile_state(n=256, eps=0.05)
        out = one_step(st, spec, 1e-4)
        assert abs(np.mean(out.u.values) - np.mean(st.u.values)) <= 1e-10

    def test_spectral_matches_cg(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        pts = g.points()
        st = flow.PhaseState(
            Field(g, 0.5 + 0.3 * np.sin(5 * pts[..., 0]) * pts[..., 1]), 0.06)
        dt = 2e-4
        rhs = st.u.values - (dt / st.eps ** 2) * spec.dW_du(pts, st.u.values)
        a, _ = _cg(lambda v: v - dt * _lap(v, g), rhs, tol=1e-13)
        b = one_step(st, spec, dt)
        assert_allclose(a, b.u.values, atol=1e-11)


class TestMinimizingMovements:
    def test_well_state_returns_unchanged(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 64)
        st = flow.PhaseState(Field.constant(g, 0.0), 0.05)
        out, rec = flow.step_minmov(st, spec, 1e-4)
        assert np.array_equal(out.u.values, st.u.values)
        assert rec.slack >= 0.0

    def test_every_step_decreases_energy(self):
        spec = wells.constant_quartic()
        st = profile_state(n=128, eps=0.05)
        for _ in range(10):
            st, rec = flow.step_minmov(st, spec, 2e-4)
            assert rec.slack >= -1e-12

    def test_clamp_comparison_enforces_box(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 128)
        x = g.axis_centers(0)
        u0 = np.clip(1.1 * np.sin(3 * np.pi * x) + 0.5, -1.0, 1.0)
        st = flow.PhaseState(Field(g, u0), 0.05)
        c0 = 1.0
        for _ in range(5):
            st, _ = flow.step_minmov(st, spec, 2e-4, trunc=c0)
            assert np.max(np.abs(st.u.values)) <= c0 + 1e-12

    def test_clamp_never_increases_face_energy(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 128)
        rng = np.random.default_rng(4)
        u = 0.5 + 1.5 * rng.standard_normal(g.cells)
        bound = wells.bind(spec, g.points())
        e_raw = flow.energy_face(u, g, 0.05, spec, bound)
        e_clamped = flow.energy_face(np.clip(u, -1.0, 1.0), g, 0.05, spec,
                                     bound)
        assert e_clamped <= e_raw


class TestRun:
    def test_stationary_state_has_zero_defect(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 64)
        st = flow.PhaseState(Field.constant(g, 1.0), 0.05)
        ledger = flow.run(st, spec, dt=1e-4, t_end=5e-3).ledger
        assert ledger.final_defect <= 1e-14

    def test_defect_first_order_in_dt(self):
        spec = wells.constant_quartic()
        st = profile_state(n=256, eps=0.02)
        defects = []
        for dt in (4e-5, 2e-5):
            led = flow.run(st, spec, dt=dt, t_end=0.01).ledger
            defects.append(led.final_defect)
        assert defects[1] < defects[0]

    def test_radial_energy_strictly_decreasing(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (64, 64))
        pts = g.points()
        r = np.sqrt((pts[..., 0] - 0.5) ** 2 + (pts[..., 1] - 0.5) ** 2)
        eps = 0.08
        u = 1.0 / (1.0 + np.exp(-np.sqrt(2) * (0.3 - r) / eps))
        st = flow.PhaseState(Field(g, u), eps)
        led = flow.run(st, spec, dt=5e-4, t_end=0.02).ledger
        es = np.array([led.e_initial] + led.energies)
        assert np.all(np.diff(es) < 0)

    def test_minmov_run_records_slack(self):
        spec = wells.constant_quartic()
        st = profile_state(n=128, eps=0.05)
        es = [flow.energy_face(st.u.values, st.u.grid, st.eps, spec,
                               wells.bind(spec, st.u.grid.points()))]
        slacks = []
        for _ in range(10):
            st, rec = flow.step_minmov(st, spec, 2e-4, trunc=1.0)
            es.append(rec.energy)
            slacks.append(rec.slack)
        assert all(s >= -1e-12 for s in slacks)
        assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(es, es[1:]))

    def test_dt_not_dividing_span_raises(self):
        spec = wells.constant_quartic()
        st = profile_state(n=128, eps=0.05)
        with pytest.raises(ValueError, match=r"dt=0\.0003 .* 0\.001$"):
            flow.run(st, spec, dt=3e-4, t_end=1e-3)
        later = flow.PhaseState(st.u, st.eps, time=2e-4)
        with pytest.raises(ValueError, match="does not divide"):
            flow.run(later, spec, dt=2e-4, t_end=1e-3 + 1e-4)

    def test_span_shorter_than_one_step_raises(self):
        # round(span / dt) = 0 passes the divisibility slack, but a run of
        # no steps would return its input with an empty ledger
        spec = wells.constant_quartic()
        base = profile_state(n=16, eps=0.1)
        st = flow.PhaseState(base.u, base.eps, time=1.0)
        for t_end, times in ((1.0 + 5e-13, ()), (1.0 + 5e-13, [1.0 + 1.2e-12]),
                             (1.0 + 4e-4, ())):
            with pytest.raises(ValueError, match="does not divide"):
                flow.run(st, spec, dt=1e-3, t_end=t_end,
                         snapshot_times=times)

    def test_nonpositive_dt_raises(self):
        spec = wells.constant_quartic()
        st = profile_state(n=128)
        for dt in (0.0, -1e-4):
            with pytest.raises(ValueError, match="dt must be positive"):
                flow.run(st, spec, dt=dt, t_end=1e-3)

    def test_snapshot_times_outside_the_run_raise(self):
        # no step reaches a time past t_end, and the first step is not the
        # state at or before the start
        spec = wells.constant_quartic()
        st = profile_state(n=64, eps=0.05)
        for times in ([1e-3, 5e-3], [-1.0], [0.0], [2e-3 + 1e-9]):
            with pytest.raises(ValueError, match="outside"):
                flow.run(st, spec, dt=5e-4, t_end=2e-3, snapshot_times=times)
        later = flow.PhaseState(st.u, st.eps, time=1e-3)
        with pytest.raises(ValueError, match="outside"):
            flow.run(later, spec, dt=5e-4, t_end=2e-3,
                     snapshot_times=[5e-4])

    def test_last_step_reaches_t_end_despite_rounding(self):
        # 1000 steps of 1e-3 from t = 1000 add up to 2.4e-11 short of
        # t_end, beyond the 1e-12 slack
        spec = wells.constant_quartic()
        base = profile_state(n=16, eps=0.1)
        st = flow.PhaseState(base.u, base.eps, time=1000.0)
        t_end = 1000.0 + 1000 * 1e-3
        result = flow.run(st, spec, dt=1e-3, t_end=t_end,
                          snapshot_times=[t_end])
        assert result.state.time < t_end - 1e-12
        assert len(result.snapshots) == 1
        assert result.snapshots[0] is result.state

    def test_result_shape_does_not_depend_on_snapshots(self):
        spec = wells.constant_quartic()
        st = profile_state(n=64, eps=0.05)
        plain = flow.run(st, spec, dt=5e-4, t_end=2e-3)
        snap = flow.run(st, spec, dt=5e-4, t_end=2e-3, snapshot_times=[1e-3])
        assert type(plain) is type(snap) is flow.RunResult
        assert plain.snapshots == []
        assert [s.time for s in snap.snapshots] == pytest.approx([1e-3])
        assert np.array_equal(plain.state.u.values, snap.state.u.values)

    def test_schemes_agree_as_dt_shrinks(self):
        # both schemes discretize the same flow; their L2 distance after a
        # fixed horizon is O(dt)
        spec = wells.constant_quartic()
        st = profile_state(n=128, eps=0.05)
        st = flow.PhaseState(
            Field(st.u.grid, st.u.values + 0.02 * np.sin(
                4 * np.pi * st.u.grid.axis_centers(0))), 0.05)
        dists = []
        for dt in (4e-4, 2e-4):
            a = flow.run(st, spec, dt=dt, t_end=4e-3).state
            b = st
            for _ in range(round(4e-3 / dt)):
                b, _ = flow.step_minmov(b, spec, dt)
            vol = st.u.grid.cell_volume
            dists.append(np.sqrt(np.sum((a.u.values - b.u.values) ** 2) * vol))
        assert dists[1] < dists[0]


def disk_state(n=32, eps=0.08, radius=0.3):
    g = Grid.box((0, 0), (1, 1), (n, n))
    pts = g.points()
    r = np.sqrt((pts[..., 0] - 0.5) ** 2 + (pts[..., 1] - 0.5) ** 2)
    return flow.PhaseState(Field(g, 1.0 / (1.0 + np.exp((r - radius) / eps))),
                           eps)


class TestInnerResiduals:
    @pytest.mark.parametrize("spec, st, dt", [
        (wells.exp_scaled_quartic(0.5), profile_state(n=128, eps=0.05), 1e-4),
        (along_axis(wells.affine_scaled_quartic(slope=0.5), 1), disk_state(),
         2e-4),
    ])
    def test_every_step_records_its_solve_residual(self, spec, st, dt):
        # the residual checks that each direct solve solved its system;
        # it is recorded on every step, not on a sample of them
        n = 20
        result = flow.run(st, spec, dt=dt, t_end=n * dt,
                          snapshot_times=[k * dt for k in range(1, n + 1)])
        residuals = result.ledger.inner_residuals
        assert len(residuals) == len(result.ledger.steps) == n
        g = st.u.grid
        pts = g.points()
        states = [st] + result.snapshots
        for before, after, resid in zip(states, states[1:], residuals):
            u = before.u.values
            rhs = u - (dt / st.eps ** 2) * spec.dW_du(pts, u)
            sol = after.u.values
            own = float(np.sqrt(np.sum((sol - dt * _lap(sol, g)
                                        - rhs) ** 2)))
            assert resid == pytest.approx(own, rel=1e-6, abs=0.0)
            assert resid <= 1e-10 * float(np.sqrt(np.sum(rhs ** 2)))


class TestReactionLipschitz:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sampled_estimate_equals_full_grid_maximum(self, monkeypatch,
                                                        axis):
        # the amplitude exp(4 x_axis) peaks on the last row or column,
        # which the sub-lattice keeps whichever axis it varies along
        spec = along_axis(wells.exp_scaled_quartic(2.0), axis)
        g = Grid.box((0, 0), (1, 1), (128, 128))
        box = (-0.06, 1.06)
        sampled = flow.reaction_lipschitz(spec, g, box)
        monkeypatch.setattr(flow, "_MAX_PTS", 128 * 128)
        full = flow.reaction_lipschitz(spec, g, box)
        assert sampled == full


class TestLedgerProperties:
    @settings(max_examples=100, deadline=None)
    @given(hst.floats(-1e3, 1e3),
           hst.lists(hst.tuples(hst.floats(-1e3, 1e3), hst.floats(0.0, 1e3)),
                     max_size=400))
    @example(0.5, [])
    def test_defect_is_the_fsum_form(self, e0, records):
        # signed energies and nonnegative increments; a ledger with no
        # record has no defect to read (run records at least one step)
        ledger = flow.DissipationLedger(e_initial=e0)
        for k, (energy, increment) in enumerate(records):
            ledger.append(k + 1, 0.1 * k, energy, increment, 0.0)
        if not records:
            with pytest.raises(IndexError):
                ledger.final_defect
            return
        expected = abs(e0 - records[-1][0]
                       - math.fsum(inc for _, inc in records))
        assert repr(ledger.final_defect) == repr(expected)


class TestSnapshotProperties:
    @settings(max_examples=50, deadline=None)
    @given(hst.sampled_from((0.0, 0.3, 1.0)), hst.integers(1, 12),
           hst.lists(hst.floats(0.0, 1.0, exclude_min=True), max_size=6))
    def test_one_snapshot_per_time_first_state_reaching_it(self, t0, n,
                                                           fracs):
        # in-window times, including the step times themselves and t_end
        spec = wells.constant_quartic()
        base = profile_state(n=32, eps=0.1)
        st = flow.PhaseState(base.u, base.eps, time=t0)
        dt = 1e-4
        t_end = t0 + n * dt
        times = [t0 + f * n * dt for f in fracs] + [t_end]
        times = [t for t in times if t > t0 + 1e-12]
        result = flow.run(st, spec, dt=dt, t_end=t_end, snapshot_times=times)
        assert len(result.snapshots) == len(times)
        step_times = result.ledger.times
        for t, snap in zip(sorted(times), result.snapshots):
            j = step_times.index(snap.time)
            assert snap.time >= t - 1e-12
            before = step_times[j - 1] if j > 0 else t0
            assert before < t - 1e-12
            # the snapshot is the state of that step, bit for bit
            again = flow.run(st, spec, dt=dt, t_end=t0 + (j + 1) * dt).state
            assert np.array_equal(snap.u.values, again.u.values)


@hst.composite
def implicit_systems(draw):
    dim = draw(hst.sampled_from((1, 2)))
    cells = tuple(draw(hst.integers(8, 24)) for _ in range(dim))
    g = Grid(tuple(0.0 for _ in cells),
             tuple(draw(hst.floats(0.5, 2.0)) for _ in cells), cells)
    dt = draw(hst.floats(1e-6, 1e-2))
    rhs = draw(hnp.arrays(float, cells, elements=hst.floats(-2.0, 2.0)))
    return g, dt, rhs


# right-hand side values the transforms must carry bit for bit: signed
# zeros, subnormals and magnitudes near the top of the range
SOLVE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e300,
                  -1e300)


@hst.composite
def solve_inputs(draw):
    """A 1-d grid of 8 to 2 048 cells or a 2-d one of 8 to 256 cells an
    axis, over spans that are not powers of two, a dt and a generic
    right-hand side: uniform values, scaled to subnormal, unit or
    near-overflow size, with special values at drawn cells."""
    dim = draw(hst.sampled_from((1, 2)))
    n_max = 2048 if dim == 1 else 256
    cells = tuple(draw(hst.integers(8, n_max)) for _ in range(dim))
    g = Grid((0.0,) * dim, tuple(draw(hst.floats(0.3, 3.0)) for _ in cells),
             cells)
    dt = draw(hst.floats(1e-6, 1e-2))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    rhs = rng.uniform(-2.0, 2.0, cells) \
        * draw(hst.sampled_from((1.0, 1e-310, 1e300)))
    for i, v in draw(hst.lists(hst.tuples(
            hst.integers(0, rhs.size - 1), hst.sampled_from(SOLVE_SPECIALS)),
            max_size=8)):
        rhs.flat[i] = v
    return g, dt, rhs


class TestSpectralSolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(solve_inputs())
    @example((Grid((0.0, 0.0), (1.7, 0.9), (255, 256)), 3e-4,
              np.cos(np.arange(255 * 256.0)).reshape(255, 256)))
    @example((Grid((0.0,), (0.7,), (1023,)), 1e-3,
              np.resize(SOLVE_SPECIALS, 1023)))
    def test_bound_solve_has_the_bits_of_scipy_fft(self, system):
        g, dt, rhs = system
        denom = flow._spectral_denominator(g, dt)
        # the solve writes into the row of a stack it is given
        row = np.empty((2, *rhs.shape))[1]
        got = flow._bind_solve(denom)(rhs, row)
        want = flow._spectral_solve(denom, rhs)
        assert got is row
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(implicit_systems())
    def test_matches_cg(self, system):
        g, dt, rhs = system
        tol = 1e-10
        denom = flow._spectral_denominator(g, dt)
        direct = flow._spectral_solve(denom, rhs)
        # the solve a run binds has the same bits
        got = flow._bind_solve(denom)(rhs, np.empty_like(rhs))
        assert got.tobytes() == direct.tobytes()
        iterative, resid = _cg(lambda v: v - dt * _lap(v, g), rhs,
                               tol=tol)
        assert resid <= tol
        # (I - dt Lap) has spectrum >= 1, so the error is at most the
        # CG residual (plus roundoff of the direct solve)
        err = float(np.sqrt(np.sum((direct - iterative) ** 2)))
        scale = float(np.sqrt(np.sum(rhs ** 2)))
        assert err <= tol + 1e-13 * max(scale, 1.0)


class TestConstrainedMinimization:
    def test_mass_at_upper_well_gives_flat_state(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        init = Field.constant(g, 1.0)
        out = flow.minimize_constrained(spec, g, 0.05, 1.0, init)
        assert out.lam == pytest.approx(0.0, abs=1e-10)
        assert out.residual <= 1e-10
        assert_allclose(out.state.u.values, 1.0, atol=1e-12)

    def test_mass_outside_range_raises(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        with pytest.raises(ValueError):
            flow.minimize_constrained(spec, g, 0.05, 1.5,
                                      Field.constant(g, 1.0))

    def test_disk_multiplier_negative_and_near_target(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (128, 128))
        pts = g.points()
        eps = 0.04
        r = np.sqrt((pts[..., 0] - 0.5) ** 2 + (pts[..., 1] - 0.5) ** 2)
        u0 = 1.0 / (1.0 + np.exp(-np.sqrt(2) * (0.25 - r) / eps))
        out = flow.minimize_constrained(spec, g, eps, float(np.mean(u0)),
                                        Field(g, u0), tol_residual=5e-4)
        lam0 = -SQRT2_6 / 0.25
        assert out.lam < 0
        assert abs(out.lam - lam0) <= 0.1
        assert out.residual <= 5e-4

    def test_nonconvergence_raises_with_last_iterate(self, monkeypatch):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        pts = g.points()
        u0 = 0.5 + 0.4 * np.sin(6 * pts[..., 0])
        monkeypatch.setattr(flow, "_MAX_ITER", 3)
        with pytest.raises(NumericError) as exc:
            flow.minimize_constrained(spec, g, 0.05, float(np.mean(u0)),
                                      Field(g, u0), tol_residual=1e-16)
        assert exc.value.last_iterate is not None

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_unreachable_tolerance_raises_before_descent(self, monkeypatch,
                                                         tol):
        # a tolerance of 0 used to run all _MAX_ITER iterations (about 21 s
        # for Gibbs-Thomson on 64^2), then raise NumericError; an infinite
        # one used to stop at iteration 0 with its residual check passed
        monkeypatch.setattr(flow, "_bb_descent", None)
        g = Grid.box((0, 0), (1, 1), (32, 32))
        with pytest.raises(ValueError, match="tol_residual must be positive"):
            flow.minimize_constrained(wells.constant_quartic(), g, 0.05, 0.5,
                                      Field.constant(g, 0.5),
                                      tol_residual=tol)


@hst.composite
def descent_problems(draw):
    """A small 1-d or 2-d grid, a fixed or moving quartic well, an eps and
    a field of values in [0, 1]."""
    dim = draw(hst.sampled_from((1, 2)))
    cells = tuple(draw(hst.integers(8, 16)) for _ in range(dim))
    g = Grid((0.0,) * dim, (1.0,) * dim, cells)
    if draw(hst.booleans()):
        spec = wells.constant_quartic()
    else:
        spec = wells.linear_wells_quartic(0.0, 0.3, 1.0, 0.0)
    eps = draw(hst.floats(0.05, 0.3))
    v = draw(hnp.arrays(float, cells, elements=hst.floats(0.0, 1.0)))
    return g, spec, eps, v


class TestDescentProperties:
    @settings(max_examples=40, deadline=None)
    @given(descent_problems())
    def test_constrained_minimum_keeps_mass(self, problem):
        g, spec, eps, v = problem
        pts = g.points()
        u0 = spec.a(pts) + (spec.b(pts) - spec.a(pts)) * v
        mass = float(np.mean(u0))
        out = flow.minimize_constrained(spec, g, eps, mass, Field(g, u0),
                                        tol_residual=1e-3)
        assert out.residual <= 1e-3
        assert abs(float(np.mean(out.state.u.values)) - mass) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(descent_problems(), hst.floats(1e-5, 1e-2))
    def test_minmov_slack_nonnegative(self, problem, h_step):
        g, spec, eps, v = problem
        st = flow.PhaseState(Field(g, 3.0 * v - 1.5), eps)
        _, rec = flow.step_minmov(st, spec, h_step)
        assert rec.slack >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(descent_problems(), hst.floats(1e-5, 1e-2))
    def test_minmov_clamp_keeps_box(self, problem, h_step):
        # both wells are monotone outside [-1, 1]
        g, spec, eps, v = problem
        u0 = 3.0 * v - 1.5
        c0 = max(float(np.max(np.abs(u0))), 1.0)
        st, rec = flow.step_minmov(flow.PhaseState(Field(g, u0), eps), spec,
                                   h_step, trunc=c0)
        assert rec.slack >= -1e-12
        assert float(np.max(np.abs(st.u.values))) <= c0 + 1e-12


def _reference_descent(objective, gradient, u0, alpha0, max_iter, vol,
                       stationary, obj_tol=None, project=None):
    """The descent loop written on its callers' closures: new arrays on
    every iteration, and u - a and u - b formed anew by every W and dW_du
    call through the spec. With ``_reference_minmov`` and
    ``_reference_constrained``, the reference the descent kernel is
    checked against bit for bit."""
    u = u0.copy()
    if project is not None:
        u = project(u)
    J = objective(u)
    g = gradient(u)
    recent = [J]
    alpha = alpha0
    u_prev = None
    g_prev = None
    for it in range(max_iter):
        if stationary(g):
            return u, J, g, it
        if project is not None:
            d = -(g - np.mean(g))
        else:
            d = -g
        gd = float(np.sum(g * d)) * vol
        if u_prev is not None:
            s = u - u_prev
            y = g - g_prev
            sy = float(np.sum(s * y)) * vol
            ss = float(np.sum(s * s)) * vol
            if sy > 1e-300:
                alpha = min(max(ss / sy, 1e-6 * alpha0), 1e6 * alpha0)
        ref = max(recent)
        step = alpha
        for _ in range(60):
            trial = u + step * d
            if project is not None:
                trial = project(trial)
            J_trial = objective(trial)
            if J_trial <= ref + 1e-4 * step * gd:
                break
            step *= 0.5
        else:
            return u, J, g, it
        u_prev, g_prev = u, g
        u, J_new = trial, J_trial
        g = gradient(u)
        recent.append(J_new)
        if len(recent) > 10:
            recent.pop(0)
        if obj_tol is not None \
                and abs(J - J_new) <= obj_tol * max(1.0, abs(J_new)):
            return u, J_new, g, it + 1
        J = J_new
    raise NumericError("descent did not converge within the iteration budget",
                       last_iterate=u)


def _reference_minmov(state, spec, h_step, trunc=None):
    """``flow.step_minmov`` on ``_reference_descent``; valid arguments."""
    grid = state.u.grid
    bound = wells.bind(spec, grid.points())
    eps = state.eps
    u_prev = state.u.values
    vol = grid.cell_volume

    def objective(u):
        move = float(np.sum((u - u_prev) ** 2)) * vol
        return flow.energy_face(u, grid, eps, spec, bound) / eps \
            + move / (2 * h_step)

    def gradient(u):
        return (spec.dW_du(bound, u) / eps - eps * _lap(u, grid)) / eps \
            + (u - u_prev) / h_step

    def l2_norm(g):
        return np.sqrt(float(np.sum(g * g)) * vol)

    lw = flow.reaction_lipschitz(spec, grid, (float(np.min(u_prev)) - 0.5,
                                              float(np.max(u_prev)) + 0.5))
    lip = lw / eps ** 2 + 4 * grid.dim / float(np.min(grid.spacing)) ** 2 \
        + 1.0 / h_step
    u, J, g, iters = _reference_descent(
        objective, gradient, u_prev, alpha0=1.0 / lip, max_iter=2000,
        vol=vol, stationary=lambda g: l2_norm(g) <= 1e-9, obj_tol=1e-12)
    gnorm = l2_norm(g)
    if not np.isfinite(gnorm):
        raise NumericError("minimizing-movements descent reached a "
                           "non-finite gradient", achieved=gnorm,
                           last_iterate=u)
    J_prev = objective(u_prev)
    if J > J_prev:
        u, J = u_prev.copy(), J_prev
    if trunc is not None:
        clamped = np.clip(u, -trunc, trunc)
        J_clamped = objective(clamped)
        if J_clamped <= J:
            u, J = clamped, J_clamped
    move_sq = float(np.sum((u - u_prev) ** 2)) * vol
    slack = eps * (J_prev - J)
    e_new = flow.energy_face(u, grid, eps, spec, bound)
    record = flow.MinMovRecord(time=state.time + h_step, energy=e_new,
                               movement_sq=move_sq, slack=slack,
                               inner_residual=gnorm, iterations=iters)
    return state.replace(u, time=state.time + h_step), record


def _reference_constrained(spec, grid, eps, mass, init, tol_residual=2e-4,
                           max_iter=60000):
    """``flow.minimize_constrained`` on ``_reference_descent``."""
    bound = wells.bind(spec, grid.points())
    mean_a = float(np.mean(bound.a))
    mean_b = float(np.mean(bound.b))
    if not (min(mean_a, mean_b) - 1e-12 <= mass
            <= max(mean_a, mean_b) + 1e-12):
        raise ValueError(f"mass {mass} outside the admissible range "
                         f"[{mean_a}, {mean_b}]")

    def project(u):
        return u + (mass - float(np.mean(u)))

    def objective(u):
        return flow.energy_face(u, grid, eps, spec, bound)

    def gradient(u):
        return spec.dW_du(bound, u) / eps - eps * _lap(u, grid)

    lw = flow.reaction_lipschitz(spec, grid,
                                 (float(np.min(init.values)) - 0.5,
                                  float(np.max(init.values)) + 0.5))
    lip = lw / eps + eps * 4 * grid.dim / float(np.min(grid.spacing)) ** 2
    u, _, g, iters = _reference_descent(
        objective, gradient, init.values, alpha0=1.0 / lip,
        max_iter=max_iter, vol=grid.cell_volume, project=project,
        stationary=lambda g: float(np.std(g)) <= tol_residual)
    lam_field = -g
    resid = float(np.std(lam_field))
    if not resid <= tol_residual:
        raise NumericError("constrained minimization stopped above the "
                           "stationarity tolerance", achieved=resid,
                           last_iterate=u)
    return flow.ConstrainedMinimum(
        state=flow.PhaseState(Field(grid, u), eps),
        lam=float(np.mean(lam_field)), residual=resid, iterations=iters)


class Descent(NamedTuple):
    """One call of a descent's caller: ``minimize_constrained`` with
    ``kwargs`` (mass, tol_residual, max_iter; the budget max_iter is
    flow's ``_MAX_ITER`` for the call), or ``step_minmov`` from the state
    (u0, eps, time) with ``kwargs`` (h_step, trunc)."""

    constrained: bool
    grid: Grid
    spec: wells.WellSpec
    eps: float
    u0: np.ndarray
    time: float
    kwargs: dict

    def run(self, reference=False):
        init = Field(self.grid, self.u0)
        if self.constrained:
            if reference:
                return _reference_constrained(self.spec, self.grid,
                                              self.eps, init=init,
                                              **self.kwargs)
            kwargs = dict(self.kwargs)
            with mock.patch.object(flow, "_MAX_ITER", kwargs.pop("max_iter")):
                return flow.minimize_constrained(self.spec, self.grid,
                                                 self.eps, init=init,
                                                 **kwargs)
        fn = _reference_minmov if reference else flow.step_minmov
        return fn(flow.PhaseState(init, self.eps, self.time), self.spec,
                  **self.kwargs)


def gibbs_thomson_descent(n=64, eps=0.08, radius=0.25):
    """The constrained descent of ``run_gibbs_thomson`` at one eps."""
    spec = wells.constant_quartic()
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))
    pts = g.points()
    disk = sharp.Sphere((0.5, 0.5), radius)
    v0 = wells.optimal_profile_grid(wells.bind(spec, pts),
                                    disk.signed_distance(pts) / eps)
    return Descent(True, g, spec, eps, v0, 0.0,
                   dict(mass=float(np.mean(v0)), tol_residual=1e-3 / 5.0,
                        max_iter=60000))


def wide_minmov_descent(cells=(72, 130), eps=0.1):
    """A minimizing-movements step whose face differences along axis 1
    (72 x 129) outnumber the 8192 elements numpy reduces in one buffer."""
    g = Grid((0.0, 0.0), (1.0, 2.0), cells)
    pts = g.points()
    r = np.hypot(pts[..., 0] - 0.5, pts[..., 1] - 1.0)
    u0 = 1.0 / (1.0 + np.exp((r - 0.3) / eps)) + 0.05 * np.sin(9 * pts[..., 1])
    return Descent(False, g, along_axis(wells.exp_scaled_quartic(0.5), 1),
                   eps, u0, 0.0, dict(h_step=2e-4, trunc=None))


def negative_zero_descent():
    """One constrained iteration, from an odd u0 at mass -0.0 in the odd
    well u^4 (both wells at -0.0), which then stops on its budget.

    u - a turns the -0.0 cell 3, whose Laplacian is +0.0, into +0.0.
    Every sum here is exactly +0.0, so the shift to the mass is -0.0,
    and the sign of that zero reaches the iterate: a kernel that skipped
    u - a on a == 0.0 would return +0.0 there."""
    g = Grid.interval(0.0, 1.0, 8)
    u0 = np.array([0.5, 0.25, -0.0, -0.0, 0.0, 0.0, -0.25, -0.5])
    return Descent(True, g, wells.linear_wells_quartic(-0.0, 0.0, -0.0, 0.0),
                   0.125, u0, 0.0,
                   dict(mass=-0.0, tol_residual=1e-3, max_iter=1))


def sigmoid_descent(constrained, dim, span=16e-60):
    """A descent from a sigmoid on a grid of 16 cells per axis over
    ``span``; the default spacing 1e-60 lies past the bound below which
    the kernel's later gradients skip ``laplacian_neumann``'s checks, and
    there the constrained descent stops on its budget."""
    g = Grid((0.0,) * dim, (span,) * dim, (16,) * dim)
    x = g.points()[..., 0] / span
    u0 = 1.0 / (1.0 + np.exp((x - 0.5) / 0.1))
    spec = wells.constant_quartic()
    if constrained:
        return Descent(True, g, spec, 0.1, u0, 0.0,
                       dict(mass=float(np.mean(u0)), tol_residual=1e-3,
                            max_iter=30))
    return Descent(False, g, spec, 0.1, u0, 0.0,
                   dict(h_step=1e-3 * span ** 2, trunc=None))


def overflowing_laplacian_descent():
    """A constrained descent at eps = 1e-160 on 4 000 cells of width
    5e-157, past the bound: the wide profile u0 has a finite Laplacian
    (about 1.7e307), but the descent sharpens it until the Laplacian of
    an iterate overflows. A kernel that checked only J there would go on
    and stop on a NumericError where the reference raises ValueError."""
    n = 4000
    g = Grid.interval(0.0, n * 5e-157, n)
    u0 = 1.0 / (1.0 + np.exp(-(np.arange(n) + 0.5 - n / 2) / 300.0))
    return Descent(True, g, wells.affine_scaled_quartic(1e-8, 0.0), 1e-160,
                   u0, 0.0, dict(mass=float(np.mean(u0)), tol_residual=1e-3,
                                 max_iter=5))


@hst.composite
def kernel_descents(draw):
    """A ``Descent`` of either caller on a 1-d or non-square 2-d grid,
    with a constant (wells 0 or -0.0 and 1), exponentially scaled or
    moving-well quartic; some masses lie outside the admissible range
    and some budgets are too small. About half the axes are dyadic
    (spacing 2^-k), where the Laplacian multiplies by 1/h^2."""
    dim = draw(hst.sampled_from((1, 2)))
    if dim == 1:
        cells = (draw(hst.integers(8, 48)),)
    else:
        n0 = draw(hst.integers(8, 16))
        cells = (n0, draw(hst.integers(8, 16).filter(lambda n: n != n0)))
    spans = [n * 2.0 ** -draw(hst.integers(n.bit_length() - 1,
                                           n.bit_length()))
             if draw(hst.booleans()) else draw(hst.floats(0.5, 2.0))
             for n in cells]
    g = Grid((0.0,) * dim, tuple(spans), cells)
    kind = draw(hst.sampled_from(("constant", "constant -0", "exp",
                                  "linear")))
    if kind == "constant":
        spec = wells.constant_quartic()
    elif kind == "constant -0":
        spec = wells.linear_wells_quartic(-0.0, 0.0, 1.0, 0.0)
    elif kind == "exp":
        kappa = draw(hst.floats(-1.0, 1.0))
        spec = along_axis(wells.exp_scaled_quartic(kappa),
                          draw(hst.integers(0, dim - 1)))
    else:
        spec = along_axis(wells.linear_wells_quartic(0.0, 0.3, 1.0, 0.0),
                          draw(hst.integers(0, dim - 1)))
    eps = draw(hst.floats(0.05, 0.3))
    v = draw(hnp.arrays(float, cells, elements=hst.floats(0.0, 1.0)))
    if draw(hst.booleans()):
        pts = g.points()
        u0 = spec.a(pts) + (spec.b(pts) - spec.a(pts)) * v
        shift = draw(hst.sampled_from((0.0, 0.0, 0.0, 0.0, -1.5, 1.5)))
        kwargs = dict(mass=float(np.mean(u0)) + shift,
                      tol_residual=draw(hst.sampled_from((1e-3, 1e-4))),
                      max_iter=draw(hst.sampled_from((60000, 3))))
        return Descent(True, g, spec, eps, u0, 0.0, kwargs)
    u0 = 3.0 * v - 1.5
    trunc = draw(hst.sampled_from(
        (None, 1.0, max(float(np.max(np.abs(u0))), 1.0))))
    return Descent(False, g, spec, eps, u0, draw(hst.floats(0.0, 10.0)),
                   dict(h_step=draw(hst.floats(1e-5, 1e-2)), trunc=trunc))


def _outcome(descent, reference=False):
    """(result, None) of a descent's call, or (None, the error it raised)."""
    try:
        return descent.run(reference), None
    except (ValueError, NumericError) as exc:
        return None, exc


def _returned_arrays(result):
    if isinstance(result, flow.ConstrainedMinimum):
        return [result.state.u.values]
    return [result[0].u.values]


class TestDescentKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(kernel_descents())
    @example(gibbs_thomson_descent())
    @example(wide_minmov_descent())
    @example(negative_zero_descent())
    @example(sigmoid_descent(True, 2))
    @example(sigmoid_descent(False, 1))
    def test_bit_identical_to_reference_loop(self, descent):
        got, got_exc = _outcome(descent)
        ref, ref_exc = _outcome(descent, reference=True)
        assert type(got_exc) is type(ref_exc)
        if ref_exc is not None:
            # the mass-range ValueError and the NumericError with the
            # iterate it stopped at
            assert str(got_exc) == str(ref_exc)
            if isinstance(ref_exc, NumericError):
                assert repr(got_exc.achieved) == repr(ref_exc.achieved)
                assert got_exc.last_iterate.tobytes() \
                    == ref_exc.last_iterate.tobytes()
                assert not np.shares_memory(got_exc.last_iterate, descent.u0)
            return
        if descent.constrained:
            assert got.state.u.values.tobytes() == ref.state.u.values.tobytes()
            assert (got.state.eps, got.state.time) \
                == (ref.state.eps, ref.state.time)
            # repr compares the bits and the types
            assert repr((got.lam, got.residual, got.iterations)) \
                == repr((ref.lam, ref.residual, ref.iterations))
        else:
            (got_state, got_rec), (ref_state, ref_rec) = got, ref
            assert got_state.u.values.tobytes() == ref_state.u.values.tobytes()
            assert (got_state.eps, got_state.time) \
                == (ref_state.eps, ref_state.time)
            assert repr(got_rec) == repr(ref_rec)
        # every returned array is its own: it shares no memory with the
        # input or with the result of another call
        again, _ = _outcome(descent)
        arrays = _returned_arrays(got) + _returned_arrays(again)
        for i, x in enumerate(arrays):
            assert not np.shares_memory(x, descent.u0)
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonfinite_iterate_raises_through_field(self, constrained, dim):
        # a NaN slipped into the input after its Field was built reaches
        # the first gradient's Field, which rejects it; 16 cells make the
        # unit box dyadic, where the stencil multiplies by 1/h^2
        spec = wells.constant_quartic()
        for cells, reference in itertools.product((12, 16), (False, True)):
            g = Grid((0.0,) * dim, (1.0,) * dim, (cells,) * dim)
            init = Field(g, np.full(g.cells, 0.5))
            init.values.flat[5] = np.nan
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError,
                                  match="field values must be finite"):
                if constrained:
                    fn = _reference_constrained if reference \
                        else flow.minimize_constrained
                    fn(spec, g, 0.1, 0.5, init)
                else:
                    fn = _reference_minmov if reference \
                        else flow.step_minmov
                    fn(flow.PhaseState(init, 0.1), spec, 1e-3)

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_each_descent_reaches_laplacian_neumann(self, monkeypatch,
                                                   constrained, tiny):
        # one Field-checked Laplacian for u0, then the bare stencil; on a
        # grid past the bound every gradient goes through the checks.
        # The counter wraps the binding flow calls, which a traced
        # benchmark run replaces by its grid.laplacian_neumann span: a
        # descent that never reached it would leave that span empty.
        descent = sigmoid_descent(constrained, 1, 16e-60 if tiny else 1.0)
        calls = []

        def counted(f, out=None):
            calls.append(1)
            return laplacian_neumann(f, out)

        monkeypatch.setattr(flow, "laplacian_neumann", counted)
        got, exc = _outcome(descent)
        if exc is not None:
            # a budget run out: every iteration took a gradient
            assert "iteration budget" in str(exc)
            iterations = descent.kwargs["max_iter"]
        else:
            iterations = got.iterations if constrained \
                else got[1].iterations
        assert iterations > 1
        assert len(calls) == (1 + iterations if tiny else 1)

    def test_overflowing_laplacian_raises_as_the_reference(self):
        descent = overflowing_laplacian_descent()
        with np.errstate(over="ignore", invalid="ignore"):
            _, exc = _outcome(descent)
            _, ref_exc = _outcome(descent, reference=True)
        assert type(ref_exc) is type(exc) is ValueError
        assert str(exc) == str(ref_exc) == "field values must be finite"

    @pytest.mark.parametrize("constrained", [True, False])
    def test_overflowing_gradient_raises_numeric_error(self, constrained):
        # finite input whose gradient overflows: the constrained residual
        # is NaN and the minimizing-movements gradient norm inf, and
        # neither may come back as a result
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (16, 16))
        spec = wells.constant_quartic()
        u0 = np.full(g.cells, 0.5)
        u0[3, 4], u0[9, 11] = 1e120, -1e120
        for reference in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericError) as exc:
                if constrained:
                    fn = _reference_constrained if reference \
                        else flow.minimize_constrained
                    fn(spec, g, 0.05, float(np.mean(u0)), Field(g, u0))
                else:
                    fn = _reference_minmov if reference \
                        else flow.step_minmov
                    fn(flow.PhaseState(Field(g, u0), 0.05), spec, 1e-4)
            assert not np.isfinite(exc.value.achieved)
            assert exc.value.last_iterate is not None


LEDGER_LISTS = ("steps", "times", "energies", "dissipation_increments",
                "inner_residuals")


@hst.composite
def run_problems(draw):
    """A small 1-d or 2-d run: a constant, exponentially scaled or
    moving-well quartic, a start time, a stable dt, a few steps,
    snapshot times inside the run and the steps per ledger block, at
    most 6, so that a run crosses several blocks and may end inside
    one."""
    dim = draw(hst.sampled_from((1, 2)))
    n_max = 40 if dim == 1 else 16
    cells = tuple(draw(hst.integers(8, n_max)) for _ in range(dim))
    g = Grid((0.0,) * dim, tuple(draw(hst.floats(0.5, 2.0)) for _ in cells),
             cells)
    kind = draw(hst.sampled_from(("constant", "exp", "linear")))
    if kind == "constant":
        spec = wells.constant_quartic()
    elif kind == "exp":
        kappa = draw(hst.floats(-1.0, 1.0))
        spec = along_axis(wells.exp_scaled_quartic(kappa),
                          draw(hst.integers(0, dim - 1)))
    else:
        spec = along_axis(wells.linear_wells_quartic(0.0, 0.2, 1.0, -0.1),
                          draw(hst.integers(0, dim - 1)))
    eps = draw(hst.floats(0.05, 0.3))
    v = draw(hnp.arrays(float, cells, elements=hst.floats(-0.2, 1.2)))
    t0 = draw(hst.floats(0.0, 10.0))
    # the stability bound run() checks, on the box it checks it on
    lo, hi = float(np.min(v)), float(np.max(v))
    pad = 0.05 * max(hi - lo, 1.0)
    lw = flow.reaction_lipschitz(spec, g, (lo - pad, hi + pad))
    dt = draw(hst.floats(0.05, 1.0)) * eps ** 2 / lw
    n = draw(hst.integers(1, 20))
    t_end = t0 + n * dt
    # t_end - t0 carries the rounding of t0 + n dt, which run() accepts
    # up to 1e-9 dt
    assume(abs(n * dt - (t_end - t0)) <= 1e-9 * dt)
    fracs = draw(hst.lists(hst.floats(0.0, 1.0, exclude_min=True),
                           max_size=5))
    times = [t for t in [t0 + f * n * dt for f in fracs]
             if t0 + 1e-12 < t <= t_end + 1e-12]
    state = flow.PhaseState(Field(g, v), eps, time=t0)
    return state, spec, dt, t_end, times, draw(hst.integers(1, 6))


def _block_case(cells, n):
    """A run of ``n`` steps on ``cells`` over the unit box: a smoothed
    disk (an interval in 1-d) under an exponentially scaled quartic, with
    snapshots inside the run and at its end."""
    g = Grid((0.0,) * len(cells), (1.0,) * len(cells), cells)
    r = np.sqrt(np.sum((g.points() - 0.5) ** 2, axis=-1))
    spec = wells.exp_scaled_quartic(0.5)
    state = flow.PhaseState(Field(g, 1.0 / (1.0 + np.exp((r - 0.3) / 0.05))),
                            0.05, time=0.25)
    lw = flow.reaction_lipschitz(spec, g, (-0.05, 1.05))
    dt = 0.5 * 0.05 ** 2 / lw
    times = [0.25 + f * n * dt for f in (0.3, 0.5, 1.0)]
    return state, spec, dt, 0.25 + n * dt, times


class TestRunKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(run_problems())
    def test_bit_identical_to_reference_loop(self, problem):
        # each block of the ledger holds ``block`` steps
        *problem, block = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_BLOCK_CELLS",
                       block * math.prod(problem[0].u.grid.cells))
            self.check_against_reference(*problem)

    # at the default block budget: 3 full blocks and one step of 1 024
    # cells; 2 full blocks and one step of 128^2 cells, whose row sums
    # each reduce more than numpy's 8 192-element buffer; one step per
    # block at 256^2
    @pytest.mark.parametrize("cells, n", [
        ((1024,), 3 * (flow._BLOCK_CELLS // 1024) + 1),
        ((128, 128), 2 * (flow._BLOCK_CELLS // 128 ** 2) + 1),
        ((256, 256), 3),
    ])
    def test_default_blocks_bit_identical_to_reference_loop(self, cells, n):
        self.check_against_reference(*_block_case(cells, n))

    # four steps per block over ten: a snapshot on step 4 (the first
    # block's last), on step 6 (inside the second) or on step 10 (t_end,
    # in the last, partial block; the final state is that snapshot)
    @pytest.mark.parametrize("cells", [(16,), (10, 8)])
    @pytest.mark.parametrize("step", [4, 6, 10])
    def test_snapshot_leaves_the_reused_stacks(self, cells, step):
        state, spec, dt, t_end, _ = _block_case(cells, 10)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_BLOCK_CELLS", 4 * math.prod(cells))
            self.check_against_reference(state, spec, dt, t_end,
                                         [state.time + step * dt])

    @staticmethod
    def check_against_reference(state, spec, dt, t_end, times):
        got = flow.run(state, spec, dt, t_end, snapshot_times=times)
        _assert_is_reference_run(got, state, spec, dt, t_end, times)


def _assert_is_reference_run(got, state, spec, dt, t_end, times):
    """``got``, a ``flow.run`` from these arguments, has the bits of
    ``_reference_run`` from them, and owns its arrays."""
    ref = _reference_run(state, spec, dt, t_end, snapshot_times=times)
    assert np.array_equal(got.state.u.values, ref.state.u.values)
    assert got.state.time == ref.state.time
    assert got.state.eps == ref.state.eps
    assert len(got.snapshots) == len(ref.snapshots)
    for a, b in zip(got.snapshots, ref.snapshots):
        assert np.array_equal(a.u.values, b.u.values)
        assert a.time == b.time
    assert ([s is got.state for s in got.snapshots]
            == [s is ref.state for s in ref.snapshots])
    assert repr(got.ledger.e_initial) == repr(ref.ledger.e_initial)
    for name in LEDGER_LISTS:
        # repr compares the bits and the types (np.float64 or float)
        assert repr(getattr(got.ledger, name)) \
            == repr(getattr(ref.ledger, name))
    assert repr(got.ledger.final_defect) == repr(ref.ledger.final_defect)
    # every state returned owns its array: no two distinct states
    # share memory with each other or with the input
    distinct = {id(s): s.u.values for s in got.snapshots + [got.state]}
    arrays = list(distinct.values()) + [state.u.values]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)


FINITENESS_STATES = [profile_state(n=64, eps=0.05), disk_state(n=16)]


class TestFinitenessGuard:
    """A NaN in the k-th solve is caught in step k, whichever route
    writes the solve into its row of the block's state stack: the bound
    kernel (the first two tests, where SciPy has it) or the ``scipy.fft``
    fallback, which copies its solution into the row."""

    @pytest.mark.parametrize("st", FINITENESS_STATES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_nonfinite_solve_raises_on_its_step(self, monkeypatch, st, k):
        # a NaN in the k-th solve is caught in step k: no later solve runs
        self.check_raises_on_step(monkeypatch, st, k)

    @pytest.mark.parametrize("st", FINITENESS_STATES)
    @pytest.mark.parametrize("k", [3, 4])
    def test_nonfinite_solve_in_second_block_raises_on_its_step(
            self, monkeypatch, st, k):
        # two steps per ledger block: steps 3 and 4 form the second
        # block, after the first block's ledger entries are formed
        monkeypatch.setattr(flow, "_BLOCK_CELLS",
                            2 * math.prod(st.u.grid.cells))
        self.check_raises_on_step(monkeypatch, st, k)

    @pytest.mark.parametrize("st", FINITENESS_STATES)
    @pytest.mark.parametrize("block, k", [(5, 1), (5, 3), (2, 3), (2, 4)])
    def test_fallback_nonfinite_solve_raises_on_its_step(
            self, monkeypatch, st, block, k):
        # the kernel is missing, so every step goes through scipy.fft;
        # one block of all 5 steps, or blocks of 2 with step k in the
        # second
        import scipy.fft  # noqa: F401  (the fallback route, loaded first)

        monkeypatch.setitem(sys.modules, "scipy.fft._pocketfft.pypocketfft",
                            None)
        monkeypatch.setattr(flow, "_BLOCK_CELLS",
                            block * math.prod(st.u.grid.cells))
        self.check_raises_on_step(monkeypatch, st, k)

    @staticmethod
    def check_raises_on_step(monkeypatch, st, k):
        # the NaN goes into the k-th solve of the run's bound solve
        bind = flow._bind_solve
        calls = []

        def bind_solve(denom):
            solve = bind(denom)

            def faulty(rhs, out):
                got = solve(rhs, out)
                assert got is out
                calls.append(1)
                if len(calls) == k:
                    got.flat[got.size // 2] = np.nan
                return got
            return faulty

        monkeypatch.setattr(flow, "_bind_solve", bind_solve)
        spec = wells.constant_quartic()
        with pytest.raises(ValueError, match="field values must be finite"):
            flow.run(st, spec, dt=2e-4, t_end=5 * 2e-4)
        assert len(calls) == k


def _bits_off(dct):
    """``dct`` with one value of each inverse (type 3) transform one ulp
    up."""
    def off(a, type, *args):
        out = dct(a, type, *args)
        if type == 3:
            out.flat[0] = np.nextafter(out.flat[0], np.inf)
        return out
    return off


def _rejects(*args):
    raise TypeError("incompatible function arguments")


class TestSolveBinding:
    """A run binds pocketfft's cosine kernel, and it checks the binding
    against ``scipy.fft`` once; where the kernel is missing or disagrees,
    every step goes through ``scipy.fft`` with the same bits."""

    @staticmethod
    def counted_run(*problem):
        """``flow.run`` of ``problem``, counting its ``scipy.fft.idctn``
        calls."""
        import scipy.fft

        real = scipy.fft.idctn
        calls = []

        def idctn(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.fft, "idctn", idctn)
            got = flow.run(*problem[:4], snapshot_times=problem[4])
        return got, len(calls)

    # how the kernel fails, and the scipy.fft calls of its check
    @pytest.mark.parametrize("fault, checks", [
        ("missing", 0), ("type_error", 0), ("one_ulp", 1)])
    @pytest.mark.parametrize("cells", [(64,), (12, 10)])
    def test_fallback_has_the_bits_of_scipy_fft(self, monkeypatch, fault,
                                               checks, cells):
        import scipy.fft  # noqa: F401  (the fallback route, loaded first)

        name = "scipy.fft._pocketfft.pypocketfft"
        if fault == "missing":
            monkeypatch.setitem(sys.modules, name, None)
        else:
            module = pytest.importorskip(name)
            monkeypatch.setattr(module, "dct", _rejects if fault == "type_error"
                                else _bits_off(module.dct))
        problem = _block_case(cells, 7)
        got, calls = self.counted_run(*problem)
        assert calls == 7 + checks
        _assert_is_reference_run(got, *problem)

    @pytest.mark.parametrize("cells", [(64,), (12, 10)])
    def test_steps_skip_scipy_fft(self, cells):
        pytest.importorskip("scipy.fft._pocketfft.pypocketfft")
        problem = _block_case(cells, 10)
        got, calls = self.counted_run(*problem)
        assert calls == 1  # the binding's check
        _assert_is_reference_run(got, *problem)
