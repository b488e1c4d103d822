"""Diffuse gradient flow against exact sharp-interface laws.

The first runs of criteria 07 and 08, through their helper
``experiments.track_flow``:

  * a shrinking disk with constant sigma, whose exact law is
    R(t) = sqrt(R0^2 - 2t) (curvature-driven);
  * a flat 1-d front in a well with sigma ~ exp(kappa x), which slides
    toward lower sigma with exact speed -kappa (heterogeneity-driven).

Each run tracks the extracted interface against the exact law at five
checkpoints, with the drift's error over the distance traveled, kappa t,
and reports its dissipation ledger defect.

Run:  python demos/flow_to_sharp_limit.py
"""

from wmcflab import sharp, wells
from wmcflab.experiments import SQRT2_OVER_6, track_flow
from wmcflab.grid import Grid


def show(columns, spec, front, traj, t_end, run, scale):
    (rec,) = track_flow(spec, front, traj, t_end, [run], scale)
    print(f"{'t':>6} {columns[0]:>10} {columns[1]:>14} {columns[2]:>10}")
    for t, exact, found, err in rec.checkpoints:
        print(f"{t:6.3f} {exact:10.5f} {found:14.5f} {err:10.4f}")
    print(f"dissipation ledger defect after {rec.steps} steps: "
          f"{rec.final_defect:.3e}")


print("shrinking disk, constant sigma, eps = 0.04 on a 128^2 grid")
sig = sharp.constant_scalar_sigma(SQRT2_OVER_6)
show(("R (ODE)", "R (extracted)", "rel err"), wells.constant_quartic(),
     sharp.Sphere((0.5, 0.5), 0.4),
     sharp.evolve_radial(0.4, sig, 0.06, tol=1e-12, center=(0.5, 0.5)), 0.06,
     (0.04, Grid.box((0.0, 0.0), (1.0, 1.0), (128, 128)), 0.25),
     scale=lambda t, r: r)

print("\n1-d drift, sigma ~ exp(0.5 x), eps = 0.04 on 1024 cells")
sig = sharp.exponential_scalar_sigma(0.5, scale=SQRT2_OVER_6)
show(("p (exact)", "p (extracted)", "err/travel"),
     wells.exp_scaled_quartic(0.5), sharp.Point1D(0.7),
     sharp.evolve_point1d(0.7, sig, 0.2, tol=1e-12), 0.2,
     (0.04, Grid.interval(0.0, 1.0, 1024), 0.5), scale=lambda t, p: 0.5 * t)
print("the front slides toward lower sigma at speed kappa, with no")
print("curvature contribution in one dimension.")
