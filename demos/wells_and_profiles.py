"""Tour of the heterogeneous double-well machinery.

Builds a quartic well whose upper branch moves across the domain, prints
every derived quantity against its closed form, and validates the
structural assumptions (quadratic growth, coercivity, derivative control)
on a sample lattice.

Run:  python demos/wells_and_profiles.py
"""

import numpy as np

from wmcflab import wells

spec = wells.linear_wells_quartic(a0=0.0, a_slope=0.0, b0=1.1, b_slope=-0.2)

print("quartic well with moving upper branch: a = 0, b = 1.1 - 0.2 x")
print(f"{'x':>6} {'gamma':>8} {'sigma (quad)':>14} {'sigma (exact)':>14} "
      f"{'sigma_n':>10}")
for x in (0.1, 0.35, 0.6, 0.85):
    g = wells.gamma(spec, x)
    s_quad = wells.surface_tension(spec, x)
    s_exact = float(spec.sigma_exact(np.array([x])))
    s_n = wells.geodesic_distance(spec, x, 1.0)
    print(f"{x:6.2f} {g:8.4f} {s_quad:14.10f} {s_exact:14.10f} {s_n:10.6f}")

print("\ngeodesic distance d_n(x, v) at x = 0.5 (d_n(1) = sigma_n):")
for v in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  v = {v:4.2f}: {wells.geodesic_distance(spec, 0.5, v):.8f}")

print("\ntransition profile at frozen x = 0.5 (logistic for quartics):")
x0 = 0.5
rate = float(spec.profile_rate(np.array([x0])))
for s in (-2.0, -0.5, 0.0, 0.5, 2.0):
    v = wells.optimal_profile(spec, x0, s)
    print(f"  s = {s:5.2f}: v = {v:.8f}   logistic({rate:.4f} s) = "
          f"{float(spec.profile_exact(np.array([x0]), s)):.8f}")

print("\nstructural assumptions on a lattice (report only):")
pts = np.linspace(0.05, 0.95, 13).reshape(-1, 1)
us = np.linspace(-0.5, 1.6, 43)
rep = wells.validate_assumptions(spec, pts, us)
print(f"  quadratic growth constants: C1 = {rep.c1_quadratic:.4f}, "
      f"C2 = {rep.c2_quadratic:.4f}")
print(f"  L2 coercivity constant:     C  = {rep.c_coercive:.4f}")
print(f"  derivative control:         C  = {rep.c_derivative_control:.4f}")
print(f"  violations: {rep.violations or 'none'}")
