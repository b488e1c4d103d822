"""Relative-energy stability around a calibrated radial flow.

Builds the calibration tuple (extended normal, extended velocity,
transported mass) around the exact shrinking disk, checks its defining
inequalities at random space-time samples, and follows the relative and
bulk energies of a weak trajectory started at a perturbed radius: both
obey a Gronwall bound whose fitted constant is stable under time-grid
refinement, and identical initial data stay at zero error (weak-strong
uniqueness at desk scale).

Run:  python demos/weak_strong_stability.py
"""

import numpy as np

from wmcflab import calib, sharp

sig_scalar = sharp.constant_scalar_sigma(np.sqrt(2) / 6)
strong = sharp.evolve_radial(0.4, sig_scalar, 0.04, tol=1e-12,
                             center=(0.5, 0.5))
cal = calib.build_calibration(strong)
print(f"calibration tube: r = {cal.r:.4f}, c = {cal.c:.2f} "
      f"(cutoff support {cal.r_g:.4f})")

inv = calib.calibration_invariants(cal, np.linspace(0, 0.04, 8),
                                   n_per_time=500)
print(f"invariants at {inv.n_samples} samples: "
      f"|xi| bound excess {inv.max_xi_bound_violation:.1e}, "
      f"boundary errors {inv.max_boundary_xi_error:.1e} / "
      f"{inv.max_boundary_b_error:.1e}, "
      f"theta sign violations {inv.theta_sign_violations}")

rng = np.random.default_rng(0)
pts = np.array([0.5, 0.5]) + rng.uniform(-0.45, 0.45, size=(1500, 2))
res = calib.calibration_residuals(cal, pts, np.linspace(0.002, 0.038, 5))
print("residual ratios (bounded by the O(dist) structure):")
for name, val in res.ratios().items():
    print(f"  max |{name}| / dist^k = {val:.1f}")

print("\nweak trajectory from a perturbed radius (delta = 0.02):")
weak = sharp.evolve_radial(0.42, sig_scalar, 0.04, tol=1e-12,
                           center=(0.5, 0.5))
times = np.linspace(0.0, 0.039, 14)
rep = calib.gronwall_verify(weak, cal, times)
print(f"{'t':>7} {'E_rel':>10} {'E_bulk':>10} {'slack':>10}")
for k in range(0, len(times), 3):
    print(f"{times[k]:7.4f} {rep.e_rel[k]:10.6f} {rep.e_bulk[k]:10.6f} "
          f"{rep.coercivity_slack[k]:10.6f}")
print(f"fitted Gronwall constants: C_rel = {rep.fitted_c_rel:.3f} "
      f"(half grid {rep.fitted_c_rel_coarse:.3f}), "
      f"C_bulk = {rep.fitted_c_bulk:.3f}")
print(f"pointwise bound E_rel(t) <= E_rel(0) exp(C t): max excess "
      f"{rep.exp_bound_excess:.1e} (the bound holds when <= 1e-8)")

rep0 = calib.gronwall_verify(strong, cal, times)
print(f"identical initial data: max E_rel = {rep0.e_rel.max():.2e}, "
      f"max E_bulk = {rep0.e_bulk.max():.2e} (uniqueness)")
