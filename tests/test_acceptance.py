"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test drives the corresponding desk-scale experiment and prints a
single pass/fail line (run with -s to see them live). Every runner is
called with its defaults, which are the acceptance arguments (the one
copy of them; ``test_arguments.py`` holds the benchmark's workloads and
the shipped configs equal to them). Geometry, grids, and eps sweeps
match the stated budgets (grids <= 512^2, 1-d <= 4096, eps >= 0.01).
"""

import numpy as np
import pytest

from wmcflab import experiments as ex


def report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} [{result.name}]")
    for c in result.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"  {mark}  {c.name}  {c.detail}")
    failed = [f"{c.name}: {c.detail}" for c in result.checks if not c.passed]
    assert result.passed, f"criterion {number} failed: " + "; ".join(failed)


def test_criterion_01_surface_tension_oracle():
    # sigma quadrature vs sqrt(2) gamma^3 / 6 at 50 random x, rel <= 1e-8
    result = ex.run_surface_tension()
    report(1, result)


def test_criterion_02_equipartition():
    # defect strictly decreasing over eps in {0.08, 0.04, 0.02, 0.01} and
    # all pairwise density gaps for three fixed test functions decreasing
    result = ex.run_equipartition()
    report(2, result)


def test_criterion_03_first_variation():
    # sharp dilation value -2 pi R sigma = -0.444288 +- 1e-6, strictly
    # decreasing diffuse-sharp gaps, homogeneous and heterogeneous, and the
    # heterogeneous sharp value within 1e-12 relative of its closed form
    # -R 4K(m) / (6 sqrt(2) sqrt(a + b)), a = 1.5, b = R, m = 2b / (a + b)
    result = ex.run_first_variation()
    report(3, result)


def test_criterion_04_gibbs_thomson():
    # lambda_0 = -sigma/R = -0.942809 at R = 0.25; |lambda_eps - lambda_0|
    # strictly decreasing over {0.08, 0.04, 0.02}; residual < 1e-3
    result = ex.run_gibbs_thomson()
    lam0 = -0.9428090415820635
    result.add("lambda target is -0.942809",
               ("|-sigma/R - target|", abs((-ex.SQRT2_OVER_6 / 0.25) - lam0),
                "<=", 1e-12))
    report(4, result)


def test_criterion_05_minimizing_movements():
    # 200 steps: exact minimality slack >= -1e-10, box never violated
    result = ex.run_minimizing_movements()
    report(5, result)


def test_criterion_06_dissipation():
    # discrete dissipation defect shrinks by >= 1.8 at the finest of three
    # dt halvings
    result = ex.run_dissipation()
    report(6, result)


def test_criterion_07_ac_to_mcf_radial():
    # R0 = 0.4 to t = 0.06 (ODE gives exactly 0.2); extracted radius
    # within 5% at 5 checkpoints at eps = 0.02, improving from eps = 0.04
    result = ex.run_ac_to_mcf_radial()
    result.add("ODE oracle hits R = 0.2 exactly",
               ("|R(0.06) - 0.2|", abs(np.sqrt(0.4 ** 2 - 2 * 0.06) - 0.2),
                "<=", 1e-12))
    report(7, result)


def test_criterion_08_ac_to_mcf_1d_drift():
    # sigma ~ exp(kappa x), kappa = 0.5: exact law p = p0 - kappa t;
    # error <= 5% of traveled distance at eps = 0.02, improving from 0.04
    result = ex.run_ac_to_mcf_1d_drift()
    report(8, result)


def test_criterion_09_bv_residuals():
    # transport (constant zeta), 5 motion-law fields, dissipation slack
    # all below 1e-6 along the exact radial trajectory
    result = ex.run_bv_residuals()
    report(9, result)


def test_criterion_10_calibration():
    # invariant suite at 1e4 space-time samples; residual ratios bounded
    # and stable within 2x under refinement
    result = ex.run_calibration()
    report(10, result)


def test_criterion_11_weak_strong():
    # coercivity with constant 1 and slack >= 0; identical data stay at
    # zero; perturbed radius delta = 0.02 gives a stable Gronwall constant
    # and the pointwise exponential bound
    result = ex.run_weak_strong()
    report(11, result)
