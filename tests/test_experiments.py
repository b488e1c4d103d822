"""The check evaluator: verdicts from (label, value, relation, bound)."""

import operator
import re
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from wmcflab import calib, experiments, flow, sharp, testfields as tf
from wmcflab import variations as var, wells
from wmcflab.errors import GeometryError, ResolutionError
from wmcflab.experiments import (Check, ExperimentResult, _sweep_part, holds,
                                 run_ac_to_mcf_1d_drift, run_ac_to_mcf_radial,
                                 run_calibration, run_dissipation,
                                 run_equipartition, run_first_variation,
                                 run_gibbs_thomson, run_minimizing_movements,
                                 run_weak_strong)

from test_arguments import defaults

ELEMENTWISE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
               ">": operator.gt}
RELATIONS = sorted(ELEMENTWISE) + ["decreasing"]

finite = hst.floats(-1e6, 1e6)
finite_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2,
                                                        max_side=6),
                           elements=finite)
sequences = hnp.arrays(np.float64, hst.integers(2, 8), elements=finite)
factors = hst.floats(1.0, 10.0, exclude_min=True)


@given(hst.sampled_from(RELATIONS), finite,
       hst.sampled_from([(0,), (0, 3), (2, 0)]))
def test_empty_value_fails(relation, bound, shape):
    assert not holds(np.empty(shape), relation, bound)


@given(hst.sampled_from(RELATIONS), finite, finite_arrays,
       hst.sampled_from([np.nan, np.inf, -np.inf]), hst.data())
def test_nonfinite_entry_fails(relation, bound, vals, bad, data):
    # -inf would satisfy < and <=, +inf > and >=: it still fails
    vals = vals.copy()
    vals.flat[data.draw(hst.integers(0, vals.size - 1))] = bad
    assert not holds(vals, relation, bound)
    assert not holds(float(bad), relation, bound)


@given(finite)
def test_decreasing_fails_on_a_single_value(x):
    assert not holds(x, "decreasing", None)
    assert not holds([x], "decreasing", None)


@given(hst.sampled_from(sorted(ELEMENTWISE)), finite_arrays, finite)
def test_elementwise_matches_numpy(relation, vals, bound):
    assert holds(vals, relation, bound) == bool(
        np.all(ELEMENTWISE[relation](vals, bound)))
    for x in vals.flat:
        assert holds(x, relation, bound) == ELEMENTWISE[relation](x, bound)


@given(sequences)
def test_decreasing_matches_numpy(vals):
    assert holds(vals, "decreasing", None) == bool(np.all(np.diff(vals) < 0))


@given(sequences)
def test_sweep_part_without_factor_is_a_strict_decrease(vals):
    _, *part = _sweep_part("err", vals)
    assert holds(*part) == bool(np.all(np.diff(vals) < 0))


@given(hnp.arrays(np.float64, hst.integers(2, 8),
                  elements=hst.floats(1e-6, 1e6)), factors)
def test_sweep_part_with_factor_is_each_ratio(vals, factor):
    _, *part = _sweep_part("err", vals, factor)
    errs = [float(v) for v in vals]
    assert holds(*part) == all(a / b >= factor
                               for a, b in zip(errs, errs[1:]))


@given(finite, hst.none() | factors)
def test_sweep_part_fails_on_a_single_value(x, factor):
    assert not holds(*_sweep_part("err", [x], factor)[1:])


@given(sequences, hst.sampled_from([np.nan, np.inf, -np.inf]),
       hst.none() | factors, hst.data())
def test_sweep_part_fails_on_a_nonfinite_entry(vals, bad, factor, data):
    # an infinite error gives a ratio of inf, nan, 0 or -0, none >= f > 1
    vals = vals.copy()
    vals[data.draw(hst.integers(0, vals.size - 1))] = bad
    assert not holds(*_sweep_part("err", vals, factor)[1:])


def test_dissipation_runs_largest_dt_first(monkeypatch):
    # a stand-in run whose defect is its dt: each halving halves it
    seen = []

    def run(state, spec, dt, t_end):
        seen.append(dt)
        return SimpleNamespace(ledger=SimpleNamespace(final_defect=dt))

    monkeypatch.setattr(flow, "run", run)
    res = run_dissipation(dt_list=(8.75e-6, 3.5e-5, 1.75e-5))
    assert seen == [3.5e-5, 1.75e-5, 8.75e-6]
    assert [row[0] for row in res.csv_rows] == seen
    assert res.passed


@pytest.mark.parametrize("kwargs", [
    {"dt_list": (3.5e-5, 8.75e-6)},  # one quartering, no halving
    {"dt_list": (3.5e-5, 1.75e-5, 1e-5)},
    {"factor": 0.5}, {"factor": 1.0}, {"factor": float("nan")}])
def test_dissipation_rate_needs_halvings_and_a_decrease(kwargs, monkeypatch):
    # raised before the first run: a run here would fail the test
    monkeypatch.setattr(flow, "run", None)
    with pytest.raises(ValueError, match="halving"):
        run_dissipation(**kwargs)


def test_nan_bound_fails():
    assert not holds(1.0, "<=", np.nan)
    assert not holds(1.0, ">", np.nan)


def test_unknown_relation_raises():
    with pytest.raises(KeyError):
        holds(1.0, "==", 1.0)


class TestCheck:
    def test_passes_when_every_part_holds(self):
        ok = ("a", [1.0, 2.0], "<=", 2.0)
        assert Check("c", (ok,)).passed
        assert not Check("c", (ok, ("b", 3.0, "<", 3.0))).passed

    def test_no_parts_fails(self):
        assert not Check("c", ()).passed
        assert not ExperimentResult("no checks").passed

    def test_detail_shows_worst_entry_relation_and_bound(self):
        check = Check("c", (("err", [1e-3, 5e-3, 2e-3], "<=", 1e-2),
                            ("slack", [0.5, -2.0], ">=", -1.0),
                            ("gap", [0.3, 0.2, 0.1], "decreasing", None),
                            ("none", [], "<", 1.0),
                            ("bad", [1.0, np.nan], "<", 1.0)))
        assert check.detail == ("err 0.005 <= 0.01, slack -2 >= -1, "
                                "gap 0.3 -> 0.2 -> 0.1 decreasing, "
                                "none empty < 1, bad nan < 1")

    def test_result_add_and_summary_line(self):
        res = ExperimentResult("demo")
        res.add("bounded", ("x", 0.5, "<=", 1.0))
        res.add("decreasing", ("y", [2.0], "decreasing", None))
        assert [c.passed for c in res.checks] == [True, False]
        assert not res.passed
        assert list(res.summary_lines()) == [
            "PASS  demo: bounded  x 0.5 <= 1",
            "FAIL  demo: decreasing  y 2 decreasing"]


@pytest.mark.parametrize("n_times", [1, 2])
def test_weak_strong_without_a_coarse_fit_fails(n_times):
    # one time fits no Gronwall constant; two leave the coarse grid with
    # one time. Neither may pass the stability or the exponential bound
    res = run_weak_strong(n_times=n_times)
    verdicts = {c.name: c.passed for c in res.checks}
    assert not res.passed
    assert not verdicts["fitted Gronwall constant stable within 2x under "
                        "grid halving"]
    assert not verdicts["pointwise exponential bound E_rel(t) <= "
                        "E_rel(0) exp(C t)"]


def test_weak_strong_name_states_zero_tol():
    res = run_weak_strong(n_times=5, zero_tol=1e-6)
    first = res.checks[0]
    assert first.name == "identical data keeps E_rel, E_bulk below 1e-6"
    assert [bound for *_, bound in first.parts] == [1e-6, 1e-6]


def test_flow_runner_name_states_rel_tol():
    res = run_ac_to_mcf_1d_drift(t_end=0.02, grid_n=256,
                                 runs=((0.04, 0.5), (0.02, 0.5)), rel_tol=0.1)
    first = res.checks[0]
    assert first.name == ("position error <= 10% of traveled distance at "
                          "finest eps")
    assert first.parts[0][3] == 0.1


def test_drift_error_is_relative_to_the_distance_traveled():
    # kappa < 0 carries the point to the right: the error is still over
    # the distance |kappa| t, so it is positive and a tolerance of 1e-9
    # fails instead of passing a negative ratio
    res = run_ac_to_mcf_1d_drift(kappa=-0.5, p0=0.3, t_end=0.02,
                                 grid_n=256, runs=((0.04, 0.5), (0.02, 0.5)),
                                 rel_tol=1e-9)
    for _, t, exact, found, err in res.csv_rows:
        assert exact > 0.3
        assert err == abs(found - exact) / (0.5 * t) > 0
    assert not res.checks[0].passed


def test_drift_without_drift_raises_before_running(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("flow.run called")

    monkeypatch.setattr(flow, "run", forbidden)
    with pytest.raises(ValueError, match="kappa must be nonzero"):
        run_ac_to_mcf_1d_drift(kappa=0.0)


BV, CAL, WS = map(defaults, ("bv_residuals", "calibration", "weak_strong"))


# (r0, t_end) of every radial reference 09, 10 and 11 build at their
# defaults; 11 builds a second one from r0 + delta
@pytest.mark.parametrize("r0, t_end", sorted({
    (BV["r0"], BV["t_end"]), (CAL["r0"], CAL["t_end"]),
    (WS["r0"], WS["t_end"]), (WS["r0"] + WS["delta"], WS["t_end"])}))
def test_radial_reference_is_the_closed_form_over_its_window(r0, t_end):
    traj = experiments._radial_reference(r0, t_end)
    exact = np.sqrt(r0 ** 2 - 2.0 * traj.times)
    assert len(traj.times) == 257 and traj.times[-1] == t_end
    assert np.max(np.abs(traj.positions / exact - 1.0)) <= 1e-9
    # V = -dR/dt = 1/R
    assert np.max(np.abs(traj.velocity(traj.times) * exact - 1.0)) <= 1e-9


def test_flow_verdicts_do_not_depend_on_run_order():
    # the error grows from eps = 0.04 to 0.02 at this short t_end; given
    # finest first, the runs used to be judged in that order and pass
    kwargs = {"t_end": 0.02, "grid_n": 256, "rel_tol": 0.1}
    given, swapped = [run_ac_to_mcf_1d_drift(runs=runs, **kwargs)
                      for runs in (((0.04, 0.5), (0.02, 0.5)),
                                   ((0.02, 0.5), (0.04, 0.5)))]
    assert repr(given.csv_rows) == repr(swapped.csv_rows)
    assert given.csv_rows[0][0] == 0.04
    checks = [[(c.name, c.passed, c.detail) for c in r.checks]
              for r in (given, swapped)]
    assert checks[0] == checks[1]
    assert not dict(c[:2] for c in checks[0])["error decreases with eps"]


class TestFlowRecords:
    """``experiments._track_flow`` on criterion 08's acceptance runs, given
    finest first: the records the runner forms its rows and checks from."""

    @pytest.fixture(scope="class")
    def drift(self):
        got, track = [], experiments._track_flow

        def recording(*args, **kwargs):
            got.extend(track(*args, **kwargs))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_track_flow", recording)
            res = run_ac_to_mcf_1d_drift(runs=((0.02, 0.25), (0.04, 0.5)))
        return res, got

    def test_one_record_per_run_largest_eps_first(self, drift):
        res, records = drift
        assert [r.eps for r in records] == [0.04, 0.02]
        assert repr(res.csv_rows) == repr(
            [[r.eps, *c] for r in records for c in r.checkpoints])

    def test_records_hold_scalars_only(self, drift):
        for r in drift[1]:
            assert len(r.checkpoints) == 5
            values = [r.eps, r.dt, r.steps, r.final_defect, r.max_residual]
            values += [v for c in r.checkpoints for v in c]
            assert all(np.ndim(v) == 0 for v in values)

    def test_every_solve_solved_its_system(self, drift):
        # measured 1.1e-12 (eps 0.04) and 1.4e-13 (eps 0.02)
        for r in drift[1]:
            assert 0.0 <= r.max_residual <= 1e-10

    def test_steps_times_dt_is_t_end(self, drift):
        for r in drift[1]:
            assert isinstance(r.steps, int)
            assert abs(r.steps * r.dt - 0.2) <= 1e-9 * r.dt

    def test_checkpoints_are_the_first_steps_reaching_each_fifth(self, drift):
        for r in drift[1]:
            times, t = [], 0.0
            for _ in range(r.steps):   # flow.run accumulates its time
                t = t + r.dt
                times.append(t)
            # the last step reaches t_end, whatever rounding it carries
            first = [next((s for s in times if s >= 0.2 * k / 5 - 1e-12),
                          times[-1]) for k in range(1, 6)]
            assert [c[0] for c in r.checkpoints] == first


class TestFirstVariationClosedForm:
    NAME = "heterogeneous sharp value matches the elliptic closed form"

    def verdict(self):
        res = run_first_variation(grid_n=128, eps_list=(0.08, 0.04),
                                  radius=0.25)
        found = [c for c in res.checks if c.name == self.NAME]
        assert len(found) == 1
        return found[0].passed

    def test_passes_at_another_radius(self):
        assert self.verdict()

    def test_sharp_value_off_by_ten_percent_fails(self, monkeypatch):
        # the boundary quadrature, as bound where the sweep calls it
        exact = var.sharp_first_variation
        monkeypatch.setattr(var, "sharp_first_variation",
                            lambda *args: 1.1 * exact(*args))
        assert not self.verdict()


def test_first_variation_rows_carry_both_routes():
    # each branch's recovery state, rebuilt here, gives the row's second
    # route; its distance to the direct route is the row's route gap
    res = run_first_variation(grid_n=128, eps_list=(0.08, 0.04))
    assert res.csv_header[-3:] == ["energy_sharp", "reassembled", "route_gap"]
    grid = experiments._unit_box(128)
    disk = sharp.Sphere((0.5, 0.5), 0.3)
    branches = {
        "homogeneous": (wells.constant_quartic(),
                        tf.dilation_field((0.5, 0.5), 0.38, 0.47)),
        "heterogeneous": (wells.affine_scaled_quartic(1.0, 1.0),
                          tf.translation_field((1, 0), (0.5, 0.5), 0.38,
                                               0.47))}
    assert [row[:2] for row in res.csv_rows] == [
        [b, eps] for b in branches for eps in (0.08, 0.04)]
    for row in res.csv_rows:
        col = dict(zip(res.csv_header, row))
        spec, psi = branches[col["branch"]]
        state = var.build_recovery(disk, spec, grid, col["eps"]).state
        fv = var.diffuse_first_variation(state, spec, psi)
        assert col["diffuse"] == fv.value
        assert col["reassembled"] == fv.reassembled
        assert col["route_gap"] == abs(col["diffuse"] - col["reassembled"])


# ---------------------------------------------------------------------------
# diffuse starts
# ---------------------------------------------------------------------------

def recorded_builds(monkeypatch) -> list:
    """Wrap ``variations.build_recovery``; the list it returns collects the
    state of every recovery state built."""
    built, build = [], var.build_recovery

    def recording(*args):
        rec = build(*args)
        built.append(rec.state)
        return rec

    monkeypatch.setattr(var, "build_recovery", recording)
    return built


def profile(front, spec, grid, eps):
    """The optimal profile of the signed distance to ``front`` over eps:
    the start the runners built by hand before."""
    pts = grid.points()
    return wells.optimal_profile_grid(spec, pts,
                                      front.signed_distance(pts) / eps)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStartsAreRecoveryStates:
    """Each runner's diffuse start is ``.state`` of
    ``variations.build_recovery``; for wells at 0 and 1 it has the bits of
    the optimal profile. The solvers are replaced by stand-ins that record
    what they are given."""

    def test_gibbs_thomson(self, monkeypatch):
        built, seen = recorded_builds(monkeypatch), []

        def minimize(spec, grid, eps, mass, init, tol_residual):
            seen.append((eps, mass, init))
            return SimpleNamespace(state=flow.PhaseState(init, eps), lam=0.0,
                                   residual=0.0, iterations=0)

        monkeypatch.setattr(flow, "minimize_constrained", minimize)
        run_gibbs_thomson(grid_n=64, eps_list=(0.08, 0.12), radius=0.2)
        assert [eps for eps, *_ in seen] == [0.12, 0.08]
        assert len(built) == len(seen)
        for (eps, mass, init), state in zip(seen, built):
            assert init is state.u
            v = profile(sharp.Sphere((0.5, 0.5), 0.2),
                        wells.constant_quartic(), init.grid, eps)
            assert same_bits(init.values, v)
            assert mass == float(np.mean(v))

    def test_minimizing_movements(self, monkeypatch):
        built, seen = recorded_builds(monkeypatch), []

        def step(state, spec, h_step, trunc):
            seen.append((state, trunc))
            return state, SimpleNamespace(slack=0.0, energy=0.0,
                                          movement_sq=0.0)

        monkeypatch.setattr(flow, "step_minmov", step)
        run_minimizing_movements(grid_n=128, n_steps=1)
        (state, trunc), = seen
        grid = state.u.grid
        v = profile(sharp.Point1D(0.35), wells.constant_quartic(), grid, 0.05)
        assert len(built) == 1 and same_bits(built[0].u.values, v)
        perturbed = v + 0.05 * np.sin(9 * np.pi * grid.points()[..., 0])
        assert same_bits(state.u.values, np.clip(perturbed, -1.0, 1.0))
        assert trunc == 1.0

    def test_dissipation(self, monkeypatch):
        built, seen = recorded_builds(monkeypatch), []

        def run(state, spec, dt, t_end):
            seen.append(state)
            return SimpleNamespace(ledger=SimpleNamespace(final_defect=dt))

        monkeypatch.setattr(flow, "run", run)
        run_dissipation()
        assert len(built) == 1 and len(seen) == 4  # one run per default dt
        assert all(state is built[0] for state in seen)
        assert same_bits(built[0].u.values,
                         profile(sharp.Point1D(0.5), wells.constant_quartic(),
                                 built[0].u.grid, 0.02))

    @pytest.mark.parametrize("runner, kwargs, front", [
        (run_ac_to_mcf_radial, {"runs": ((0.04, 128, 0.25),
                                         (0.045, 128, 0.25))},
         sharp.Sphere((0.5, 0.5), 0.4)),
        (run_ac_to_mcf_1d_drift, {"grid_n": 256,
                                  "runs": ((0.02, 0.5), (0.04, 0.5))},
         sharp.Point1D(0.7))])
    def test_flow_runners(self, monkeypatch, runner, kwargs, front):
        built, seen = recorded_builds(monkeypatch), []

        def run(state, spec, dt, t_end, snapshot_times):
            seen.append((state, spec))
            return SimpleNamespace(
                snapshots=[state.replace(state.u.values, t_end)],
                ledger=SimpleNamespace(final_defect=0.0,
                                       inner_residuals=[0.0]))

        monkeypatch.setattr(flow, "run", run)
        runner(**kwargs)
        assert [state.eps for state, _ in seen] == sorted(
            (r[0] for r in kwargs["runs"]), reverse=True)
        assert len(built) == len(seen)
        for (state, spec), start in zip(seen, built):
            assert state is start
            assert same_bits(state.u.values,
                             profile(front, spec, state.u.grid, state.eps))


def test_gibbs_thomson_rejects_a_start_cut_by_the_wall(monkeypatch):
    # the r = 0.45 disk lies 0.05 from the wall, under 2 eps: the sweep on
    # its clipped profile used to FAIL (|lambda - lambda_0| 1.14 -> 1.226);
    # the recovery state rejects it before any descent
    monkeypatch.setattr(flow, "minimize_constrained", None)
    with pytest.raises(GeometryError, match="margin"):
        run_gibbs_thomson(grid_n=64, eps_list=(0.12, 0.08), radius=0.45)


@pytest.mark.parametrize("name, t_end", [
    ("bv_residuals", 0.5), ("calibration", 0.5), ("weak_strong", 0.5),
    ("ac_to_mcf_radial", 0.5), ("ac_to_mcf_1d_drift", 2.0)])
def test_reference_that_stops_early_raises_first(monkeypatch, name, t_end):
    # the r0 = 0.4 disk reaches the 1e-3 floor at (0.16 - 1e-6) / 2 and
    # the p0 = 0.7 point reaches 0 at p0 / kappa = 1.4: the sharp
    # reference raises, naming that time, before any recovery state, flow
    # or calibration is built
    stop = 0.7 / 0.5 if name == "ac_to_mcf_1d_drift" else (0.16 - 1e-6) / 2
    def reached(*args, **kwargs):
        raise AssertionError("reached past the sharp reference")

    for module, attr in ((var, "build_recovery"), (flow, "run"),
                         (calib, "build_calibration")):
        monkeypatch.setattr(module, attr, reached)
    with pytest.raises(GeometryError, match=f"before t_end = {t_end!r}") \
            as info:
        experiments.REGISTRY[name][0](t_end=t_end)
    found = re.search(r"stops at t = (\S+),", str(info.value))
    assert abs(float(found.group(1)) - stop) <= 1e-9


# Arguments a runner rejects before it computes a verdict: an interface
# too close to the wall for its recovery state, an eps under 4 spacings,
# a sharp reference that stops before t_end (the p0 = 0.1 point reaches 0
# at t = 0.02), a stationarity tolerance no descent is relied on to
# reach, and a dt that does not divide the time span. A config cannot
# set them; these calls are the Python API's guard, and ``wmcf run``
# maps each error to exit 2.
@pytest.mark.parametrize("runner, kwargs, error, fragment", [
    (run_gibbs_thomson, {"radius": 0.45}, GeometryError, "interface margin"),
    (run_equipartition, {"grid_n": 64, "eps_list": (0.3, 0.2)},
     GeometryError, "interface margin"),
    (run_equipartition, {"grid_n": 128, "eps_list": (0.02, 0.01)},
     ResolutionError, "under-resolved"),
    (run_ac_to_mcf_1d_drift, {"kappa": 5.0, "p0": 0.1}, GeometryError,
     "sharp reference stops"),
    (run_gibbs_thomson, {"residual_tol": 0.0}, ValueError,
     "tol_residual must be positive"),
    (run_dissipation, {"t_end": 0.01}, ValueError,
     "does not divide the time span"),
], ids=["gibbs_thomson-wall", "equipartition-wall", "equipartition-grid",
        "drift-stops", "gibbs_thomson-tolerance", "dissipation-span"])
def test_runner_rejects_its_arguments(runner, kwargs, error, fragment):
    with pytest.raises(error, match=fragment):
        runner(**kwargs)


# A non-finite argument is rejected before a verdict: an infinite
# stationarity tolerance used to stop the Gibbs-Thomson descent at
# iteration 0 with its residual check passed. An infinite or NaN eps in a
# sweep, and a non-finite t_end, never reach a run.
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("runner, kwargs, error, fragment", [
    (run_gibbs_thomson, {"residual_tol": INF}, ValueError,
     "tol_residual must be positive and finite"),
    (run_gibbs_thomson, {"residual_tol": -INF}, ValueError,
     "tol_residual must be positive and finite"),
    *((runner, {"t_end": t_end}, ValueError,
       "t_end must be finite and positive")
      for runner in (run_calibration, run_weak_strong)
      for t_end in (INF, NAN, -INF)),
    (run_equipartition, {"grid_n": 64, "eps_list": (INF, 0.1)},
     GeometryError, "interface margin"),
    (run_equipartition, {"grid_n": 64, "eps_list": (0.1, NAN)},
     GeometryError, "is NaN"),
], ids=["gibbs_thomson-inf", "gibbs_thomson--inf",
        *(f"{name}-{t_end}" for name in ("calibration", "weak_strong")
          for t_end in ("inf", "nan", "-inf")),
        "equipartition-inf", "equipartition-nan"])
def test_non_finite_argument_is_rejected(runner, kwargs, error, fragment):
    with pytest.raises(error, match=fragment):
        runner(**kwargs)


def test_minimizing_movements_box_comes_from_the_well(monkeypatch):
    # wells at 0 and 2: the start reaches 2 and the box is [-2, 2], not
    # the [-1, 1] of the unit wells
    seen, step = [], flow.step_minmov

    def recording(state, spec, h_step, trunc):
        seen.append((float(np.max(np.abs(state.u.values))), trunc))
        return step(state, spec, h_step, trunc=trunc)

    monkeypatch.setattr(flow, "step_minmov", recording)
    well = wells.linear_wells_quartic(0.0, 0.0, 2.0, 0.0)
    monkeypatch.setattr(wells, "constant_quartic", lambda: well)
    res = run_minimizing_movements(grid_n=128, n_steps=5)
    assert seen[0][0] > 1.9
    assert all(trunc >= 2.0 for _, trunc in seen)
    assert res.passed, [c.detail for c in res.checks]
