"""Failing controls: one planted fault per registry check, each of which
the named check must FAIL (ROADMAP item 4).

Covered here are the runners of criteria 09-11, whose oracles read sigma
off the sharp trajectory: ``run_bv_residuals``, ``run_calibration`` and
``run_weak_strong``, at their defaults (0.1-0.8 s each). Each fault is
planted with ``monkeypatch`` on the library the runner calls.

Checks without a failing control, and why:

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

from wmcflab import calib, sharp
from wmcflab import experiments as ex


def passed(res, prefix) -> bool:
    """The verdict of the one check of ``res`` whose name starts with
    ``prefix``."""
    found = [c for c in res.checks if c.name.startswith(prefix)]
    assert len(found) == 1, [c.name for c in res.checks]
    return found[0].passed


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

    def widened(traj, r=None):
        cal = build(traj, r)
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
    for runner in (ex.run_bv_residuals, ex.run_calibration,
                   ex.run_weak_strong):
        res = runner()
        assert res.passed, [c.detail for c in res.checks if not c.passed]
