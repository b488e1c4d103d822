"""Failing controls: one planted fault per registry check, each of which
the named check must FAIL (ROADMAP item 4).

Each fault is planted with ``monkeypatch`` on the library the runner
calls, at the defaults where they are cheap (01, 06, 08-11) and at small
sizes elsewhere; ``test_unfaulted_runners_pass`` runs each runner at the
same arguments without a fault, so a control fails only through its
fault.

A grad sigma without its grad gamma term (the part that exists only
because the wells move) is failed by 03's moving-well closed form
alone: 01, 02 and 04-11 pass with it, and 01's grad sigma part that
would see it is ROADMAP item 25.

Checks without a failing control, and why (measured):

* 02, all ten "strictly decreasing" checks: with 1e-3 added to the
  defect it still shrinks 1.46, 1.41 and 1.50 times per halving at the
  acceptance sizes, against 1.53, 1.52 and 1.72 for the true defect, so
  no rate bound separates the two with margin.
* 03, both "|diffuse - sharp| strictly decreasing": against the sharp
  value times 1.1 (homogeneous) or 0.9 (heterogeneous) the gaps stay
  decreasing at the acceptance sizes (0.0650, 0.0450, 0.0445 and 0.0316,
  0.0188, 0.0179).
* 04, "|lambda_eps - lambda_0| strictly decreasing": lambda_0 off by -5,
  -10 or -20 % stays decreasing; a rate part is ROADMAP item 4.
* 05, both checks: a no-op descent passes both (slack 0, box margin 0,
  ROADMAP item 3), and so does a step that ignores the clamp: the
  iterates never reach the box (max|u| - C0 = -2.9e-7 at the defaults).
* 07, "max checkpoint error decreases with eps", and 08, "error
  decreases with eps": a wrong reference moves every run's error alike,
  so they stay decreasing (07 with r0 off by 5 %: 0.1223 -> 0.1209 at
  eps 0.04 and 0.035 on 128^2; 08 with kappa times 1.1: 0.1481 ->
  0.1254).
* 10, "residual ratios bounded and stable within 2x under refinement":
  it asks only that max r_k / dist^k over samples at dist >= 1e-4 be
  positive and stable within 2x under refinement. A velocity scaled by
  1.1 rescales the ratios and leaves them positive and stable, so the
  check passes. The on-interface residual bounds of ROADMAP item 10 are
  the check that such a fault would fail.
* 11, "pointwise exponential bound E_rel(t) <= E_rel(0) exp(C t)": the
  bound uses the constant C that ``gronwall_verify`` fitted to the same
  E_rel samples, so a fault in E_rel moves C with it (E_rel scaled by
  e^{200 t} or by 1 + sin^2(300 t) passes). E_rel scaled by 1 + 50 t does
  fail it (excess 5e-7), but through the fit, not the fault: the curve
  E_rel = 0.01 (1 + 50 t), which obeys E(t) <= E(0) e^{50 t}, fails it
  too, since C is fitted at the grid times only (48.8, below the
  supremum 50 at t -> 0). That failure is not a control.
* 11 reads no sign of E_bulk: with theta's sign flipped every check of
  11 still passes. The identical-data check bounds E_bulk from above
  only (it is exactly 0 there), and no check reads the bulk fit.
  ROADMAP item 10 lists the weighted faults (grad sigma negated) that 10
  and 11 do not see either; its controls join this file with it.
"""

import dataclasses

import numpy as np

from wmcflab import calib, flow, sharp, variations as var, wells
from wmcflab import experiments as ex

# small arguments of the runners that are slow at their defaults
FIRST_VARIATION = {"grid_n": 128, "eps_list": (0.08, 0.04), "radius": 0.25}
GIBBS_THOMSON = {"grid_n": 128, "eps_list": (0.08, 0.04)}
RADIAL = {"runs": ((0.04, 128, 0.25),)}  # the coarse run of criterion 07


def passed(res, prefix) -> bool:
    """The verdict of the one check of ``res`` whose name starts with
    ``prefix``."""
    found = [c for c in res.checks if c.name.startswith(prefix)]
    assert len(found) == 1, [c.name for c in res.checks]
    return found[0].passed


# ---------------------------------------------------------------------------
# 01: surface tension
# ---------------------------------------------------------------------------

def test_01_perturbed_quadrature_fails(monkeypatch):
    quadrature = wells.surface_tension
    monkeypatch.setattr(wells, "surface_tension", lambda *args, **kwargs:
                        (1.0 + 1e-6) * quadrature(*args, **kwargs))
    assert not passed(ex.run_surface_tension(), "sigma quadrature")


# ---------------------------------------------------------------------------
# 03: first variations
# ---------------------------------------------------------------------------

def test_03_scaled_sharp_value_fails_both_sanity_checks(monkeypatch):
    exact = var.sharp_first_variation
    monkeypatch.setattr(var, "sharp_first_variation",
                        lambda *args: 1.1 * exact(*args))
    res = ex.run_first_variation(**FIRST_VARIATION)
    for prefix in ("sharp dilation value", "heterogeneous sharp value"):
        assert not passed(res, prefix), prefix


def test_03_dropped_grad_sigma_fails_nonzero_pairing(monkeypatch):
    # on the interface the translation field is constant, so the sharp
    # pairing is -int grad sigma . psi alone
    sigma_of = var.sigma_field_of
    monkeypatch.setattr(var, "sigma_field_of",
                        lambda spec: dataclasses.replace(
                            sigma_of(spec),
                            grad=lambda x: np.zeros(np.shape(x))))
    res = ex.run_first_variation(**FIRST_VARIATION)
    assert not passed(res, "heterogeneous grad-sigma pairing is nonzero")


def test_03_dropped_grad_gamma_fails_moving_closed_form(monkeypatch):
    # the moving well's grad sigma without its grad gamma term: zero, as
    # the well's amplitude is constant (relative error 1.0)
    monkeypatch.setattr(sharp, "grad_gamma",
                        lambda spec, x: np.zeros(np.shape(x)))
    res = ex.run_first_variation(**FIRST_VARIATION)
    assert not passed(res, "moving-well sharp value")


# ---------------------------------------------------------------------------
# 04: Gibbs-Thomson
# ---------------------------------------------------------------------------

def test_04_early_stop_fails_stationarity(monkeypatch):
    minimize = flow.minimize_constrained
    monkeypatch.setattr(flow, "minimize_constrained",
                        lambda *args, tol_residual: minimize(
                            *args, tol_residual=25.0 * tol_residual))
    res = ex.run_gibbs_thomson(**GIBBS_THOMSON)
    assert not passed(res, "stationarity residual")


# ---------------------------------------------------------------------------
# 06: dissipation
# ---------------------------------------------------------------------------

def test_06_perturbed_initial_energy_fails_finest_rate(monkeypatch):
    # the ledger's E(0), the one energy_face call of flow.run, off by one
    # part in 1e6: the defect stops halving (finest ratio 1.041, true 1.950)
    energy = flow.energy_face
    monkeypatch.setattr(flow, "energy_face",
                        lambda *args: (1.0 + 1e-6) * energy(*args))
    assert not passed(ex.run_dissipation(), "defect decreases")


# ---------------------------------------------------------------------------
# 07, 08: convergence to the sharp flow
# ---------------------------------------------------------------------------

def test_07_offset_reference_fails_radius_error(monkeypatch):
    reference = ex._radial_reference
    monkeypatch.setattr(ex, "_radial_reference",
                        lambda r0, t_end: reference(1.05 * r0, t_end))
    res = ex.run_ac_to_mcf_radial(**RADIAL)
    assert not passed(res, "extracted radius within")


def test_08_scaled_kappa_fails_position_error(monkeypatch):
    sigma = sharp.exponential_scalar_sigma
    monkeypatch.setattr(sharp, "exponential_scalar_sigma",
                        lambda kappa, scale: sigma(1.1 * kappa, scale=scale))
    assert not passed(ex.run_ac_to_mcf_1d_drift(), "position error")


# ---------------------------------------------------------------------------
# 09: BV-solution residuals
# ---------------------------------------------------------------------------

def test_09_scaled_velocity_fails_motion_transport_dissipation(monkeypatch):
    velocity = sharp.SharpTrajectory.velocity
    monkeypatch.setattr(sharp.SharpTrajectory, "velocity",
                        lambda self, t: 1.1 * velocity(self, t))
    res = ex.run_bv_residuals()
    for prefix in ("motion-law residuals", "transport residual",
                   "dissipation slack"):
        assert not passed(res, prefix), prefix


def test_09_ignored_velocity_scale_fails_doubled_velocity(monkeypatch):
    check = sharp.dissipation_check
    monkeypatch.setattr(sharp, "dissipation_check",
                        lambda traj, t_prime, n_t=1024, velocity_scale=1.0:
                        check(traj, t_prime, n_t=n_t))
    assert not passed(ex.run_bv_residuals(), "doubled velocity")


# ---------------------------------------------------------------------------
# 10: calibration
# ---------------------------------------------------------------------------

INVARIANTS = "|xi| bound, boundary identities"


def test_10_flipped_theta_fails_invariants(monkeypatch):
    truncation = calib._truncation
    monkeypatch.setattr(calib, "_truncation",
                        lambda s, r: -truncation(s, r))
    assert not passed(ex.run_calibration(), INVARIANTS)


def test_10_widened_cutoff_fails_invariants(monkeypatch):
    build = calib.build_calibration

    def widened(traj):
        cal = build(traj)
        return dataclasses.replace(cal, r_g=1.2 * cal.r_g)

    monkeypatch.setattr(calib, "build_calibration", widened)
    assert not passed(ex.run_calibration(), INVARIANTS)


# ---------------------------------------------------------------------------
# 11: weak-strong stability
# ---------------------------------------------------------------------------

def test_11_shifted_identical_data_fails_first_check(monkeypatch):
    verify = calib.gronwall_verify

    def shifted(weak, cal, times, **kwargs):
        if weak is cal.traj:  # the identical-data case
            weak = ex._radial_reference(0.4 + 1e-3, cal.traj.t_end)
        return verify(weak, cal, times, **kwargs)

    monkeypatch.setattr(calib, "gronwall_verify", shifted)
    assert not passed(ex.run_weak_strong(), "identical data")


def test_11_scaled_tilt_fails_coercivity(monkeypatch):
    check = calib.coercivity_check

    def tilted(weak, cal, t):
        rep = check(weak, cal, t)
        tilt = 1.01 * rep.tilt
        return dataclasses.replace(
            rep, tilt=tilt, identity_error=abs(tilt + rep.slack - rep.e_rel))

    monkeypatch.setattr(calib, "coercivity_check", tilted)
    assert not passed(ex.run_weak_strong(), "tilt coercivity")


def test_11_tripled_fine_constant_fails_gronwall_stability(monkeypatch):
    verify = calib.gronwall_verify

    def tripled(*args, **kwargs):
        rep = verify(*args, **kwargs)
        return dataclasses.replace(rep, fitted_c_rel=3.0 * rep.fitted_c_rel)

    monkeypatch.setattr(calib, "gronwall_verify", tripled)
    assert not passed(ex.run_weak_strong(), "fitted Gronwall constant")


def test_unfaulted_runners_pass():
    # the controls above fail only through their fault
    for runner, kwargs in ((ex.run_surface_tension, {}),
                           (ex.run_first_variation, FIRST_VARIATION),
                           (ex.run_gibbs_thomson, GIBBS_THOMSON),
                           (ex.run_dissipation, {}),
                           (ex.run_ac_to_mcf_1d_drift, {}),
                           (ex.run_bv_residuals, {}),
                           (ex.run_calibration, {}),
                           (ex.run_weak_strong, {})):
        res = runner(**kwargs)
        assert res.passed, [c.detail for c in res.checks if not c.passed]
    # one run shows no decrease; the check its control targets holds
    assert passed(ex.run_ac_to_mcf_radial(**RADIAL), "extracted radius within")
