"""Relative-energy stability around a calibrated radial flow.

Criteria 10 and 11 (``experiments.run_calibration``, ``run_weak_strong``)
at their defaults, exiting 1 on a FAIL: the calibration tuple (extended
normal, extended velocity, transported mass) around the exact shrinking
disk, checked at random space-time samples; then the relative and bulk
energies of a weak trajectory at 41 times (every tenth shown): zero from
identical data (weak-strong uniqueness), and from a radius 0.02 larger
under a Gronwall bound whose fitted constant is stable under halving.

Run:  python demos/weak_strong_stability.py
"""

from wmcflab.experiments import run_calibration, run_weak_strong

cal, ws = run_calibration(), run_weak_strong()
for quantity, value in cal.csv_rows:
    print(f"{quantity:<26} {value:10.4g}")
print("\n{:>10} {:>7} {:>10} {:>10} {:>16}".format(*ws.csv_header))
half = len(ws.csv_rows) // 2  # the identical case, then the perturbed one
for case, *row in ws.csv_rows[:half:10] + ws.csv_rows[half::10]:
    print("{:>10} {:7.4f} {:10.3e} {:10.3e} {:16.3e}".format(case, *row))
print(*cal.summary_lines(), *ws.summary_lines(), sep="\n")
raise SystemExit(0 if cal.passed and ws.passed else 1)
