"""Failing controls: one planted fault per registry check, each of which
the named check must FAIL (ROADMAP item 4), and the ledger of the checks
that have none.

Each control plants its fault with ``monkeypatch`` on the library the
runner calls and returns the runner's result, at the defaults where they
are cheap (01, 06, 08-11) and at ``SIZES`` elsewhere; ``fails`` names, in
full, the checks that result must FAIL. ``test_unfaulted_runners_pass``
runs every runner at the same arguments without a fault, so a control
fails only through its fault. A check that no control FAILs is in
``UNCONTROLLED`` with the reason, measured, and
``test_every_check_is_in_one_ledger`` holds every check of the 11
runners to exactly one of the two, so a new check without either fails
Tier-1.

A grad sigma without its grad gamma term (the part that exists only
because the wells move) is failed by 03's moving-well closed form
alone: 01, 02 and 04-11 pass with it, and 01's grad sigma part that
would see it is ROADMAP item 25.

11 reads no sign of E_bulk: with theta's sign flipped every check of 11
still passes. The identical-data check bounds E_bulk from above only (it
is exactly 0 there), and no check reads the bulk fit. ROADMAP item 10
lists the weighted faults (grad sigma negated) that 10 and 11 do not see
either; its controls join this file with it.
"""

import dataclasses
import functools

import numpy as np
import pytest

from wmcflab import calib, flow, sharp, variations as var, wells
from wmcflab import experiments as ex

# small arguments of the runners that are slow at their defaults
FIRST_VARIATION = {"grid_n": 128, "eps_list": (0.08, 0.04), "radius": 0.25}
GIBBS_THOMSON = {"grid_n": 128, "eps_list": (0.08, 0.04)}
RADIAL = {"runs": ((0.04, 128, 0.25),)}  # the coarse run of criterion 07
SIZES = {"equipartition": {"grid_n": 128, "eps_list": (0.08, 0.04)},
         "first_variation": FIRST_VARIATION,
         "gibbs_thomson": GIBBS_THOMSON,
         "minimizing_movements": {"grid_n": 128, "n_steps": 20},
         "ac_to_mcf_radial": RADIAL}

_DEFECT_02 = (
    "with 1e-3 added to the defect it still shrinks 1.46, 1.41 and 1.50 "
    "times per halving at the acceptance sizes, against 1.53, 1.52 and "
    "1.72 for the true defect, so no rate bound separates the two with "
    "margin")
_BOX_05 = (
    "a no-op descent passes both (slack 0, box margin 0, ROADMAP item 3), "
    "and so does a step that ignores the clamp: the iterates never reach "
    "the box (max|u| - C0 = -2.9e-7 at the defaults)")

# check name -> why no control FAILs it (measured)
UNCONTROLLED = {
    "defect strictly decreasing": _DEFECT_02,
    **{f"pairing gap {pn} with {tn} strictly decreasing": _DEFECT_02
       for tn in ("one", "bump", "tilt")
       for pn in ("potential_gradient", "potential_geometric",
                  "gradient_geometric")},
    "homogeneous |diffuse - sharp| strictly decreasing": (
        "against the sharp value times 1.1 the gaps stay decreasing at the "
        "acceptance sizes (0.0650, 0.0450, 0.0445)"),
    "heterogeneous |diffuse - sharp| strictly decreasing": (
        "against the sharp value times 0.9 the gaps stay decreasing at the "
        "acceptance sizes (0.0316, 0.0188, 0.0179)"),
    "|lambda_eps - lambda_0| strictly decreasing": (
        "lambda_0 off by -5, -10 or -20 % stays decreasing; a rate part is "
        "ROADMAP item 4"),
    "per-step energy decrease (slack >= -1e-10 at all steps)": _BOX_05,
    "maximum principle box never violated": _BOX_05,
    "max checkpoint error decreases with eps": (
        "a wrong reference moves every run's error alike, so it stays "
        "decreasing (r0 off by 5 %: 0.1223 -> 0.1209 at eps 0.04 and 0.035 "
        "on 128^2)"),
    "error decreases with eps": (
        "a wrong reference moves every run's error alike, so it stays "
        "decreasing (kappa times 1.1: 0.1481 -> 0.1254)"),
    "residual ratios bounded and stable within 2x under refinement": (
        "it asks only that max r_k / dist^k over samples at dist >= 1e-4 be "
        "positive and stable within 2x under refinement; a velocity scaled "
        "by 1.1 rescales the ratios and leaves them positive and stable. "
        "The on-interface residual bounds of ROADMAP item 10 are the check "
        "that such a fault would fail"),
    "pointwise exponential bound E_rel(t) <= E_rel(0) exp(C t)": (
        "the bound uses the constant C that gronwall_verify fitted to the "
        "same E_rel samples, so a fault in E_rel moves C with it (E_rel "
        "scaled by e^{200 t} or by 1 + sin^2(300 t) passes). E_rel scaled by "
        "1 + 50 t does fail it (excess 5e-7), but through the fit, not the "
        "fault: the curve E_rel = 0.01 (1 + 50 t), which obeys "
        "E(t) <= E(0) e^{50 t}, fails it too, since C is fitted at the grid "
        "times only (48.8, below the supremum 50 at t -> 0). That failure "
        "is not a control"),
}

CONTROLLED = set()  # the checks that some control FAILs


def passed(res, name) -> bool:
    """The verdict of the one check of ``res`` named ``name``."""
    found = [c for c in res.checks if c.name == name]
    assert len(found) == 1, [c.name for c in res.checks]
    return found[0].passed


def fails(*checks):
    """Declare a control: the runner result that the decorated fault
    plant returns must FAIL each of ``checks``."""
    def declare(plant):
        CONTROLLED.update(checks)

        @functools.wraps(plant)
        def control(monkeypatch):
            res = plant(monkeypatch)
            for name in checks:
                assert not passed(res, name), name
        return control
    return declare


# ---------------------------------------------------------------------------
# 01: surface tension
# ---------------------------------------------------------------------------

@fails("sigma quadrature matches closed form")
def test_01_perturbed_quadrature_fails(monkeypatch):
    quadrature = wells.surface_tension
    monkeypatch.setattr(wells, "surface_tension", lambda *args, **kwargs:
                        (1.0 + 1e-6) * quadrature(*args, **kwargs))
    return ex.run_surface_tension()


# ---------------------------------------------------------------------------
# 03: first variations
# ---------------------------------------------------------------------------

@fails("sharp dilation value matches -2 pi R sigma",
       "heterogeneous sharp value matches the elliptic closed form")
def test_03_scaled_sharp_value_fails_both_sanity_checks(monkeypatch):
    exact = var.sharp_first_variation
    monkeypatch.setattr(var, "sharp_first_variation",
                        lambda *args: 1.1 * exact(*args))
    return ex.run_first_variation(**FIRST_VARIATION)


@fails("heterogeneous grad-sigma pairing is nonzero")
def test_03_dropped_grad_sigma_fails_nonzero_pairing(monkeypatch):
    # on the interface the translation field is constant, so the sharp
    # pairing is -int grad sigma . psi alone
    sigma_of = var.sigma_field_of
    monkeypatch.setattr(var, "sigma_field_of",
                        lambda spec: dataclasses.replace(
                            sigma_of(spec),
                            grad=lambda x: np.zeros(np.shape(x))))
    return ex.run_first_variation(**FIRST_VARIATION)


@fails("moving-well sharp value matches its closed form")
def test_03_dropped_grad_gamma_fails_moving_closed_form(monkeypatch):
    # the moving well's grad sigma without its grad gamma term: zero, as
    # the well's amplitude is constant (relative error 1.0)
    monkeypatch.setattr(sharp, "grad_gamma",
                        lambda spec, x: np.zeros(np.shape(x)))
    return ex.run_first_variation(**FIRST_VARIATION)


# ---------------------------------------------------------------------------
# 04: Gibbs-Thomson
# ---------------------------------------------------------------------------

@fails("stationarity residual below tolerance at every eps")
def test_04_early_stop_fails_stationarity(monkeypatch):
    minimize = flow.minimize_constrained
    monkeypatch.setattr(flow, "minimize_constrained",
                        lambda *args, tol_residual: minimize(
                            *args, tol_residual=25.0 * tol_residual))
    return ex.run_gibbs_thomson(**GIBBS_THOMSON)


# ---------------------------------------------------------------------------
# 06: dissipation
# ---------------------------------------------------------------------------

@fails("defect decreases by >= 1.8 at the finest dt-halving")
def test_06_perturbed_initial_energy_fails_finest_rate(monkeypatch):
    # the ledger's E(0), the one energy_face call of flow.run, off by one
    # part in 1e6: the defect stops halving (finest ratio 1.041, true 1.950)
    energy = flow.energy_face
    monkeypatch.setattr(flow, "energy_face",
                        lambda *args: (1.0 + 1e-6) * energy(*args))
    return ex.run_dissipation()


# ---------------------------------------------------------------------------
# 07, 08: convergence to the sharp flow
# ---------------------------------------------------------------------------

RADIUS_07 = "extracted radius within 5% of the ODE radius at finest eps"


@fails(RADIUS_07)
def test_07_offset_reference_fails_radius_error(monkeypatch):
    reference = ex._radial_reference
    monkeypatch.setattr(ex, "_radial_reference",
                        lambda r0, t_end: reference(1.05 * r0, t_end))
    return ex.run_ac_to_mcf_radial(**RADIAL)


@fails("position error <= 5% of traveled distance at finest eps")
def test_08_scaled_kappa_fails_position_error(monkeypatch):
    sigma = sharp.exponential_scalar_sigma
    monkeypatch.setattr(sharp, "exponential_scalar_sigma",
                        lambda kappa, scale: sigma(1.1 * kappa, scale=scale))
    return ex.run_ac_to_mcf_1d_drift()


# ---------------------------------------------------------------------------
# 09: BV-solution residuals
# ---------------------------------------------------------------------------

@fails("motion-law residuals below tolerance for 5 test fields",
       "transport residual (constant test function) below tolerance",
       "dissipation slack below tolerance")
def test_09_scaled_velocity_fails_motion_transport_dissipation(monkeypatch):
    velocity = sharp.SharpTrajectory.velocity
    monkeypatch.setattr(sharp.SharpTrajectory, "velocity",
                        lambda self, t: 1.1 * velocity(self, t))
    return ex.run_bv_residuals()


@fails("doubled velocity violates the dissipation inequality")
def test_09_ignored_velocity_scale_fails_doubled_velocity(monkeypatch):
    check = sharp.dissipation_check
    monkeypatch.setattr(sharp, "dissipation_check",
                        lambda traj, t_prime, n_t=1024, velocity_scale=1.0:
                        check(traj, t_prime, n_t=n_t))
    return ex.run_bv_residuals()


# ---------------------------------------------------------------------------
# 10: calibration
# ---------------------------------------------------------------------------

INVARIANTS = ("|xi| bound, boundary identities, and theta sign/coercivity "
              "hold at 10000 samples")


@fails(INVARIANTS)
def test_10_flipped_theta_fails_invariants(monkeypatch):
    truncation = calib._truncation
    monkeypatch.setattr(calib, "_truncation",
                        lambda s, r: -truncation(s, r))
    return ex.run_calibration()


@fails(INVARIANTS)
def test_10_widened_cutoff_fails_invariants(monkeypatch):
    build = calib.build_calibration

    def widened(traj):
        cal = build(traj)
        return dataclasses.replace(cal, r_g=1.2 * cal.r_g)

    monkeypatch.setattr(calib, "build_calibration", widened)
    return ex.run_calibration()


# ---------------------------------------------------------------------------
# 11: weak-strong stability
# ---------------------------------------------------------------------------

@fails("identical data keeps E_rel, E_bulk below 1e-8")
def test_11_shifted_identical_data_fails_first_check(monkeypatch):
    verify = calib.gronwall_verify

    def shifted(weak, cal, times, **kwargs):
        if weak is cal.traj:  # the identical-data case
            weak = ex._radial_reference(0.4 + 1e-3, cal.traj.t_end)
        return verify(weak, cal, times, **kwargs)

    monkeypatch.setattr(calib, "gronwall_verify", shifted)
    return ex.run_weak_strong()


@fails("tilt coercivity holds with constant 1 and nonnegative slack")
def test_11_scaled_tilt_fails_coercivity(monkeypatch):
    check = calib.coercivity_check

    def tilted(weak, cal, t):
        rep = check(weak, cal, t)
        tilt = 1.01 * rep.tilt
        return dataclasses.replace(
            rep, tilt=tilt, identity_error=abs(tilt + rep.slack - rep.e_rel))

    monkeypatch.setattr(calib, "coercivity_check", tilted)
    return ex.run_weak_strong()


@fails("fitted Gronwall constant stable within 2x under grid halving")
def test_11_tripled_fine_constant_fails_gronwall_stability(monkeypatch):
    verify = calib.gronwall_verify

    def tripled(*args, **kwargs):
        rep = verify(*args, **kwargs)
        return dataclasses.replace(rep, fitted_c_rel=3.0 * rep.fitted_c_rel)

    monkeypatch.setattr(calib, "gronwall_verify", tripled)
    return ex.run_weak_strong()


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def unfaulted():
    """Each registry runner's result without a fault, at ``SIZES``."""
    return {name: runner(**SIZES.get(name, {}))
            for name, (runner, _) in ex.REGISTRY.items()}


def test_unfaulted_runners_pass(unfaulted):
    # the controls above fail only through their fault; one run of 07
    # shows no decrease, and the check its control targets holds
    for name, res in unfaulted.items():
        if name == "ac_to_mcf_radial":
            assert passed(res, RADIUS_07)
        else:
            assert res.passed, [c.detail for c in res.checks if not c.passed]


def test_every_check_is_in_one_ledger(unfaulted):
    # a check is either FAILed by a control or says why none does; a
    # ledger entry that names no check is stale
    names = {c.name for res in unfaulted.values() for c in res.checks}
    assert not CONTROLLED & UNCONTROLLED.keys()
    assert CONTROLLED | UNCONTROLLED.keys() == names
