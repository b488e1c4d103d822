"""Named desk-scale experiments.

Each experiment wires the library modules into one verifiable claim of
the sharp-interface theory (first-variation convergence, Gibbs-Thomson,
equipartition, flow convergence, BV residuals, calibration, weak-strong
stability) and returns a result object holding checks, stored as data
and judged by one evaluator (``holds``), plus a CSV table. The CLI and the
acceptance suite both drive these functions. A sharp reference that
would stop before its t_end raises GeometryError where it is solved,
before any recovery state, flow or calibration is built.
"""

import csv
from collections import namedtuple
from dataclasses import astuple, dataclass, field

import numpy as np

from . import calib, flow, sharp, testfields as tf, variations as var, wells
from .grid import Field, Grid, extract_levelset

SQRT2_OVER_6 = float(np.sqrt(2.0) / 6.0)


# elementwise relations; a decreasing part is judged on the whole sequence
_COMPARE = {"<=": np.less_equal, "<": np.less, ">=": np.greater_equal,
            ">": np.greater}


def holds(value, relation, bound) -> bool:
    """The one verdict rule: ``value`` (a scalar or an array) stands in
    ``relation`` to ``bound`` at every entry. An empty value, one that
    holds a NaN or an infinity (not computed) and a non-finite bound fail.
    ``decreasing`` ignores ``bound`` and needs at least two values, each
    below the one before."""
    vals = np.asarray(value, dtype=float).ravel()
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        return False
    if relation == "decreasing":
        return vals.size >= 2 and bool(np.all(np.diff(vals) < 0))
    compare = _COMPARE[relation]
    return bool(np.all(np.isfinite(bound)) and np.all(compare(vals, bound)))


def _describe(label, value, relation, bound) -> str:
    """``label worst relation bound``; the worst entry is the first
    non-finite one, else the largest under < and <=, the smallest under
    > and >=. A decreasing part shows its whole sequence."""
    vals = np.asarray(value, dtype=float).ravel()
    if relation == "decreasing":
        return f"{label} {' -> '.join(f'{v:.4g}' for v in vals)} decreasing"
    bad = vals[~np.isfinite(vals)]
    worst = ("empty" if vals.size == 0 else f"{bad[0]:.4g}" if bad.size
             else f"{vals.max() if relation[0] == '<' else vals.min():.4g}")
    return f"{label} {worst} {relation} {bound:.4g}"


def _sweep_part(label, errors, factor=None):
    """The check part of ``errors``, largest step (eps or dt) first: each
    below the one before, or each ratio errors[k] / errors[k+1] >= factor."""
    if factor is None:
        return (label, errors, "decreasing", None)
    with np.errstate(all="ignore"):  # a zero error: a non-finite ratio
        return (label, np.divide(errors[:-1], errors[1:]), ">=", factor)


@dataclass(frozen=True)
class Check:
    """A named verdict stored as data: it passes when it has parts and
    every part ``(label, value, relation, bound)`` holds."""

    name: str
    parts: tuple

    @property
    def passed(self) -> bool:
        return bool(self.parts) and all(holds(*p[1:]) for p in self.parts)

    @property
    def detail(self) -> str:
        return ", ".join(_describe(*p) for p in self.parts)


@dataclass
class ExperimentResult:
    name: str
    checks: list = field(default_factory=list)
    csv_header: list = field(default_factory=list)
    csv_rows: list = field(default_factory=list)

    def add(self, name, *parts):
        self.checks.append(Check(name, parts))

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.csv_header)
            for row in self.csv_rows:
                writer.writerow([v if isinstance(v, str) else repr(float(v))
                                 for v in row])

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield f"{status}  {self.name}: {c.name}  {c.detail}"


def _unit_box(n: int) -> Grid:
    return Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))


def _radial_reference(r0: float, t_end: float) -> sharp.SharpTrajectory:
    """Radial flow about the center of the unit box up to t_end, at the
    one sigma of the radial runners, which their oracles read off it. It
    is integrated (RK45 at tol 1e-12), not the closed form
    R(t)^2 = r0^2 - 2t: at the runners' starts R stays within 1e-9
    relative of that form at all 257 samples (at most 2.4e-10, at
    r0 = 0.4 and t_end = 0.06). GeometryError if the disk goes extinct
    before t_end."""
    sig = sharp.constant_scalar_sigma(SQRT2_OVER_6)
    return sharp.evolve_radial(r0, sig, t_end, tol=1e-12, center=(0.5, 0.5))


# ---------------------------------------------------------------------------
# surface tension oracle
# ---------------------------------------------------------------------------

def run_surface_tension(n_points: int = 50, seed: int = 0,
                        tol: float = 1e-8) -> ExperimentResult:
    """Quadrature sigma against the closed form sqrt(2 m) gamma^3 / 6 for
    quartic wells at random positions."""
    res = ExperimentResult("surface_tension",
                           csv_header=["x0", "x1", "sigma_quad",
                                       "sigma_exact", "rel_err"])
    rng = np.random.default_rng(seed)
    spec = wells.linear_wells_quartic(0.0, 0.2, 1.1, -0.1)
    pts = rng.uniform(0.0, 1.0, size=(n_points, 2))
    quad = wells.surface_tension(spec, pts, tol=1e-12)
    exact = spec.sigma_exact(pts)
    rel = np.abs(quad - exact) / np.abs(exact)
    res.csv_rows += map(list, zip(pts[:, 0], pts[:, 1], quad, exact, rel))
    res.add("sigma quadrature matches closed form",
            ("rel err", rel, "<=", tol))
    return res


# ---------------------------------------------------------------------------
# equipartition
# ---------------------------------------------------------------------------

def run_equipartition(grid_n: int = 512,
                      eps_list=(0.08, 0.04, 0.02, 0.01),
                      radius: float = 0.3) -> ExperimentResult:
    """Equipartition defect and localized-density pairings on disk
    recovery states. Moving wells keep the defect nonzero; over the
    acceptance sweep (512^2, eps 0.08 -> 0.01) it shrinks 1.53, 1.52 and
    1.72 times per halving of eps, an observed order of 0.6-0.8, not 1.
    Every eps builds its state from one ``bind_recovery`` and reads it
    once (W and |grad u|, by ``build_recovery``); the defect and the
    pairings with all three test samples come from that reading."""
    res = ExperimentResult("equipartition")
    grid = _unit_box(grid_n)
    spec = wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0)
    disk = sharp.Sphere((0.5, 0.5), radius)
    testers = {
        "one": Field.constant(grid, 1.0),
        "bump": Field.from_function(grid, lambda p: np.exp(
            -((p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2) / 0.08)),
        "tilt": Field.from_function(grid, lambda p: 1.0 + 0.5 * p[..., 0]),
    }
    pairs = [(pn, tn) for tn in testers for pn in (
        "potential_gradient", "potential_geometric", "gradient_geometric")]
    res.csv_header = ["eps", "defect"] + [f"gap_{p}_{t}" for p, t in pairs]
    bound = var.bind_recovery(disk, spec, grid)
    for eps in sorted(eps_list, reverse=True):
        reading = var.build_recovery(bound, eps).reading
        row = [eps, var.equipartition_defect(reading)]
        for pot, gra, geo in var.measure_pairing(reading, testers.values()):
            row += [abs(pot - gra), abs(pot - geo), abs(gra - geo)]
        del reading  # release the reading before the next build
        res.csv_rows.append(row)
    cols = [[r[j] for r in res.csv_rows] for j in range(1, 2 + len(pairs))]
    res.add("defect strictly decreasing", _sweep_part("defect", cols[0]))
    for (pn, tn), gaps in zip(pairs, cols[1:]):
        res.add(f"pairing gap {pn} with {tn} strictly decreasing",
                _sweep_part("gap", gaps))
    return res


# ---------------------------------------------------------------------------
# first variations
# ---------------------------------------------------------------------------

def run_first_variation(grid_n: int = 512, eps_list=(0.08, 0.04, 0.02),
                        radius: float = 0.3,
                        sharp_tol: float = 1e-6) -> ExperimentResult:
    """Diffuse-to-sharp convergence of the first variation.

    Homogeneous branch: constant sigma = sqrt(2)/6, dilation field, sharp
    value -2 pi R sigma. Heterogeneous branch: amplitude-scaled quartic
    with sigma = sqrt(1 + x1) sqrt(2)/6 and a localized translation field,
    isolating the grad-sigma pairing, also checked in closed form on
    criterion 02's moving well, where grad sigma is the wells' slope.
    """
    res = ExperimentResult("first_variation",
                           csv_header=["branch", "eps", "diffuse", "sharp",
                                       "gap", "defect", "energy",
                                       "energy_sharp", "reassembled",
                                       "route_gap"])
    grid = _unit_box(grid_n)
    disk = sharp.Sphere((0.5, 0.5), radius)
    shift = tf.translation_field((1, 0), (0.5, 0.5), radius + 0.08, 0.47)
    target = -2.0 * np.pi * radius * SQRT2_OVER_6
    sharp_value = {}
    for branch, spec, psi, sanity, part in (
            ("homogeneous", wells.constant_quartic(),
             tf.dilation_field((0.5, 0.5), radius + 0.08, 0.47),
             "sharp dilation value matches -2 pi R sigma",
             lambda s: ("|sharp + 2 pi R sigma|", abs(s - target), "<=",
                        sharp_tol)),
            ("heterogeneous", wells.affine_scaled_quartic(1.0, 1.0), shift,
             "heterogeneous grad-sigma pairing is nonzero",
             lambda s: ("|sharp|", abs(s), ">", 1e-3))):
        rows = var.first_variation_convergence(eps_list, disk, spec, psi, grid)
        res.csv_rows += [[branch, *astuple(r)] for r in rows]
        sharp_value[branch] = rows[0].sharp
        res.add(sanity, part(sharp_value[branch]))
        res.add(f"{branch} |diffuse - sharp| strictly decreasing",
                _sweep_part("gap", [r.gap for r in rows]))
    # on the circle 1 + x1 = a + b cos t and sigma = sqrt(2 (1 + x1)) / 6,
    # so the translation pairing -int d_1 sigma dH is an elliptic integral
    from scipy.special import ellipk
    a, b = 1.5, radius
    closed = -b * ellipk(2 * b / (a + b)) * np.sqrt(2 / (a + b)) / 3
    res.add("heterogeneous sharp value matches the elliptic closed form",
            ("rel err", abs(sharp_value["heterogeneous"] / closed - 1.0),
             "<=", 1e-12))
    # on 02's well gamma = 1 - 0.6 x0 (0.7 - 0.6 R cos t on the circle) and
    # sigma = sqrt(2) gamma^3 / 6: -int d_1 sigma dH = 0.3 sqrt(2) int gamma^2
    moving = sharp.sharp_first_variation(disk, sharp.sigma_field_of(
        wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0)), shift)
    closed = 0.6 * np.sqrt(2.0) * np.pi * radius * (0.49 + 0.18 * radius ** 2)
    res.add("moving-well sharp value matches its closed form",
            ("rel err", abs(moving / closed - 1.0), "<=", 1e-12))
    return res


# ---------------------------------------------------------------------------
# Gibbs-Thomson
# ---------------------------------------------------------------------------

def run_gibbs_thomson(grid_n: int = 256, eps_list=(0.08, 0.04, 0.02),
                      radius: float = 0.25,
                      residual_tol: float = 1e-3) -> ExperimentResult:
    """Mass-constrained minimization around a disk: the multiplier
    converges to -sigma/R (constant sigma, gamma = 1)."""
    res = ExperimentResult("gibbs_thomson",
                           csv_header=["eps", "lambda", "lambda_err",
                                       "residual", "fitted_radius",
                                       "iterations"])
    spec = wells.constant_quartic()
    grid = _unit_box(grid_n)
    disk = sharp.Sphere((0.5, 0.5), radius)
    lam0 = -SQRT2_OVER_6 / radius
    bound = var.bind_recovery(disk, spec, grid)
    for eps in sorted(eps_list, reverse=True):
        init = var.build_recovery(bound, eps).state.u
        out = flow.minimize_constrained(spec, grid, eps,
                                        float(np.mean(init.values)), init,
                                        tol_residual=residual_tol / 5.0)
        fitted = extract_levelset(out.state.u, 0.5).fitted_circle()[1]
        res.csv_rows.append([eps, out.lam, abs(out.lam - lam0), out.residual,
                             fitted, out.iterations])
    errs, resids = ([r[j] for r in res.csv_rows] for j in (2, 3))
    res.add("|lambda_eps - lambda_0| strictly decreasing",
            _sweep_part("|lambda_eps - lambda_0|", errs))
    res.add("stationarity residual below tolerance at every eps",
            ("residual", resids, "<=", residual_tol))
    return res


# ---------------------------------------------------------------------------
# minimizing movements
# ---------------------------------------------------------------------------

def run_minimizing_movements(grid_n: int = 512, eps: float = 0.05,
                             h_step: float = 2e-4,
                             n_steps: int = 200) -> ExperimentResult:
    """Per-step exact minimality and the clamp maximum principle, from the
    recovery state of the front x = 0.35 plus 0.05 sin(9 pi x), clipped to
    [-C0, C0], C0 = max(|a|, |b|) of the wells on the grid (the quartic is
    monotone outside it)."""
    res = ExperimentResult("minimizing_movements",
                           csv_header=["step", "time", "energy",
                                       "movement_sq", "slack", "max_abs_u"])
    spec = wells.constant_quartic()
    grid = Grid.interval(0.0, 1.0, grid_n)
    pts = grid.points()
    c0 = float(np.max(np.abs([spec.a(pts), spec.b(pts)])))
    start = var.build_recovery(
        var.bind_recovery(sharp.Point1D(0.35), spec, grid), eps).state
    state = start.replace(np.clip(
        start.u.values + 0.05 * np.sin(9 * np.pi * pts[..., 0]), -c0, c0))
    slacks, sups = [], []
    for k in range(1, n_steps + 1):
        state, rec = flow.step_minmov(state, spec, h_step, trunc=c0)
        slacks.append(rec.slack)
        sups.append(float(np.max(np.abs(state.u.values))))
        res.csv_rows.append([k, state.time, rec.energy, rec.movement_sq,
                             rec.slack, sups[-1]])
    res.add("per-step energy decrease (slack >= -1e-10 at all steps)",
            ("slack", slacks, ">=", -1e-10))
    res.add("maximum principle box never violated",
            ("max|u| - C0", np.array(sups) - c0, "<=", 1e-12))
    return res


# ---------------------------------------------------------------------------
# dissipation order
# ---------------------------------------------------------------------------

def run_dissipation(grid_n: int = 256, eps: float = 0.02,
                    dt_list=(3.5e-5, 1.75e-5, 8.75e-6, 4.375e-6),
                    t_end: float = 0.0196,
                    factor: float = 1.8) -> ExperimentResult:
    """Dissipation defect of the 1-d standing-profile run: first order in dt
    past the stiff initial layer, so the ratio per halving nears 2 (1.835,
    1.907, 1.950); the check judges the finest, the CSV keeps them all.
    ValueError, before any computation, unless each dt (largest first)
    halves the one before (relative 1e-9) and the rate ``factor`` > 1."""
    dts = sorted(dt_list, reverse=True)
    if not (factor > 1 and all(abs(b - a / 2) <= 1e-9 * a / 2
                               for a, b in zip(dts, dts[1:]))):
        raise ValueError(f"need halving dts and factor > 1: {dts}, {factor}")
    res = ExperimentResult("dissipation",
                           csv_header=["dt", "defect", "ratio_to_previous"])
    spec = wells.constant_quartic()
    state = var.build_recovery(var.bind_recovery(
        sharp.Point1D(0.5), spec, Grid.interval(0.0, 1.0, grid_n)), eps).state
    defects = [flow.run(state, spec, dt=dt, t_end=t_end).ledger.final_defect
               for dt in dts]
    ratios = _sweep_part("ratio", defects, factor)[1]
    res.csv_rows += map(list, zip(dts, defects, [np.nan, *ratios]))
    res.add(f"defect decreases by >= {factor} at the finest dt-halving",
            ("finest ratio", ratios[-1:], ">=", factor))
    return res


# ---------------------------------------------------------------------------
# convergence to the sharp flow
# ---------------------------------------------------------------------------

_FlowRun = namedtuple("_FlowRun", ["eps", "dt", "steps", "checkpoints",
                                   "final_defect", "max_residual"])


def _track_flow(spec, front, traj, t_end, runs, scale) -> list:
    """One ``_FlowRun`` of scalars per (eps, grid, frac) of ``runs``, largest
    eps first: from the checked recovery state of ``front``, dt = frac eps^2 /
    Lip(dW/du) rounded to divide ``t_end``, the step count, (t, exact, found,
    err) at the first step reaching each t_end k/5, and the ledger's final
    defect and largest solve residual. ``exact`` is ``traj``'s, ``found`` the
    1/2 level set's fitted radius (2-d) or position (1-d), err = |found -
    exact| / scale(t, exact). No state outlives its run."""
    def read(s):
        exact = float(traj.position(s.time))
        ls = extract_levelset(s.u, 0.5)
        found = ls.fitted_circle()[1] if ls.dim == 2 else ls.position()
        return s.time, exact, found, abs(found - exact) / scale(s.time, exact)

    def track(eps, grid, frac):
        state = var.build_recovery(var.bind_recovery(front, spec, grid),
                                   eps).state
        lw = flow.reaction_lipschitz(spec, grid, (-0.06, 1.06))
        steps = int(np.ceil(t_end / (frac * eps ** 2 / lw)))
        out = flow.run(state, spec, dt=t_end / steps, t_end=t_end,
                       snapshot_times=[t_end * k / 5.0 for k in range(1, 6)])
        return _FlowRun(eps, t_end / steps, steps,
                        tuple(map(read, out.snapshots)),
                        out.ledger.final_defect,
                        max(out.ledger.inner_residuals))

    return [track(*r) for r in sorted(runs, key=lambda r: r[0], reverse=True)]


def run_ac_to_mcf_radial(r0: float = 0.4, t_end: float = 0.06,
                         runs=((0.04, 128, 0.25), (0.02, 256, 0.125)),
                         rel_tol: float = 0.05) -> ExperimentResult:
    """Shrinking disk under the diffuse flow against the exact radial law
    R' = -1/R (constant sigma): the extracted radius tracks the ODE."""
    res = ExperimentResult("ac_to_mcf_radial", csv_header=[
        "eps", "t", "R_ode", "R_extracted", "rel_err"])
    flows = _track_flow(wells.constant_quartic(), sharp.Sphere((0.5, 0.5), r0),
                        _radial_reference(r0, t_end), t_end,
                        [(eps, _unit_box(n), frac) for eps, n, frac in runs],
                        scale=lambda t, r: r)
    res.csv_rows += [[f.eps, *c] for f in flows for c in f.checkpoints]
    max_errs = [max(c[3] for c in f.checkpoints) for f in flows]
    res.add(f"extracted radius within {100 * rel_tol:g}% of the ODE radius "
            "at finest eps", ("rel err", max_errs[-1], "<=", rel_tol))
    res.add("max checkpoint error decreases with eps",
            _sweep_part("max rel err", max_errs))
    return res


def run_ac_to_mcf_1d_drift(kappa: float = 0.5, p0: float = 0.7,
                           t_end: float = 0.2, grid_n: int = 1024,
                           runs=((0.04, 0.5), (0.02, 0.25)),
                           rel_tol: float = 0.05) -> ExperimentResult:
    """Flat interface in a well with sigma proportional to exp(kappa x):
    the exact law is p(t) = p0 - kappa t. Errors are relative to the
    distance traveled, |kappa| t, so kappa = 0 raises ValueError; a point
    that leaves [0, 1] before t_end raises GeometryError."""
    if kappa == 0:
        raise ValueError("kappa must be nonzero: errors are over |kappa| t")
    res = ExperimentResult("ac_to_mcf_1d_drift", csv_header=[
        "eps", "t", "p_exact", "p_extracted", "err_over_traveled"])
    sig = sharp.exponential_scalar_sigma(kappa, scale=SQRT2_OVER_6)
    traj = sharp.evolve_point1d(p0, sig, t_end, tol=1e-12)
    grid = Grid.interval(0.0, 1.0, grid_n)
    flows = _track_flow(wells.exp_scaled_quartic(kappa), sharp.Point1D(p0),
                        traj, t_end, [(eps, grid, frac) for eps, frac in runs],
                        scale=lambda t, p: abs(kappa) * t)
    res.csv_rows += [[f.eps, *c] for f in flows for c in f.checkpoints]
    max_errs = [max(c[3] for c in f.checkpoints) for f in flows]
    res.add(f"position error <= {100 * rel_tol:g}% of traveled distance at "
            "finest eps", ("rel err", max_errs[-1], "<=", rel_tol))
    res.add("error decreases with eps", _sweep_part("max rel err", max_errs))
    return res


# ---------------------------------------------------------------------------
# BV-solution residuals
# ---------------------------------------------------------------------------

def run_bv_residuals(r0: float = 0.4, t_end: float = 0.06,
                     tol: float = 1e-6) -> ExperimentResult:
    """Transport, motion-law, and dissipation residuals along the exact
    radial trajectory (all three vanish for true solutions)."""
    res = ExperimentResult("bv_residuals",
                           csv_header=["check", "time_or_Tprime", "field",
                                       "residual"])
    traj = _radial_reference(r0, t_end)
    center = (0.5, 0.5)
    fields = [("dilation", tf.dilation_field(center, 0.45, 0.49)),
              ("rotation", tf.rotation_field(center, 0.45, 0.49)),
              ("translation_x", tf.translation_field((1, 0), center, 0.45, 0.49)),
              ("translation_y", tf.translation_field((0, 1), center, 0.45, 0.49)),
              ("bump", tf.translation_bump((1, 1), center, 0.49))]
    motion = []
    for t in (0.0, t_end / 2, t_end):
        iface = traj.interface_at(t)
        v = float(traj.velocity(t))
        for name, psi in fields:
            motion.append(sharp.motion_law_residual(iface, v, traj.sigma, psi))
            res.csv_rows.append(["motion_law", t, name, motion[-1]])
    res.add("motion-law residuals below tolerance for 5 test fields",
            ("|residual|", np.abs(motion), "<=", tol))

    ones = sharp.SpaceTimeTest(
        value=lambda x, t: np.ones(np.shape(x)[:-1]),
        dt=lambda x, t: np.zeros(np.shape(x)[:-1]))
    tr = sharp.transport_residual(traj, ones, t_end)
    res.csv_rows.append(["transport", t_end, "constant", tr])
    res.add("transport residual (constant test function) below tolerance",
            ("|residual|", abs(tr), "<=", tol))

    slack = sharp.dissipation_check(traj, t_end, n_t=4096)
    res.csv_rows.append(["dissipation", t_end, "", slack])
    res.add("dissipation slack below tolerance",
            ("|slack|", abs(slack), "<=", tol))
    slack2 = sharp.dissipation_check(traj, t_end, velocity_scale=2.0)
    res.csv_rows.append(["dissipation_doubled_v", t_end, "", slack2])
    res.add("doubled velocity violates the dissipation inequality",
            ("slack", slack2, "<", -tol))
    return res


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def run_calibration(r0: float = 0.4, t_end: float = 0.04,
                    n_per_time: int = 1000, seed: int = 5) -> ExperimentResult:
    """Defining inequalities of the calibration at sampled space-time
    points, plus boundedness/stability of the residual ratios."""
    res = ExperimentResult("calibration",
                           csv_header=["quantity", "value"])
    cal = calib.build_calibration(_radial_reference(r0, t_end))
    inv = calib.calibration_invariants(cal, np.linspace(0, t_end, 10),
                                       n_per_time=n_per_time, seed=seed)
    parts = (("|xi| bound violation", inv.max_xi_bound_violation, "<=", 1e-10),
             ("boundary xi error", inv.max_boundary_xi_error, "<=", 1e-9),
             ("boundary B error", inv.max_boundary_b_error, "<=", 1e-9),
             ("theta sign violations", inv.theta_sign_violations, "<=", 0),
             ("theta coercivity constant", inv.c_theta_coercivity, ">", 0.0))
    res.csv_rows += [[key, float(part[1])] for key, part in zip(
        ("xi_bound_violation", "boundary_xi_error", "boundary_B_error",
         "theta_sign_violations", "theta_coercivity_constant"), parts)]
    res.add("|xi| bound, boundary identities, and theta sign/coercivity "
            f"hold at {inv.n_samples} samples", *parts)

    rng = np.random.default_rng(seed)
    times = np.linspace(0.002, t_end - 0.002, 7)

    def ratios(n, fd):
        pts = np.array([0.5, 0.5]) + rng.uniform(-0.45, 0.45, size=(n, 2))
        return calib.calibration_residuals(cal, pts, times, fd_dt=fd).ratios()

    base, refined, fd_half = (ratios(n, fd) for n, fd in (
        (2000, 1e-4), (4000, 1e-4), (2000, 5e-5)))
    res.csv_rows += [[f"ratio_{k}", v] for k, v in base.items()]
    b, r, f = (np.array(list(d.values())) for d in (base, refined, fd_half))
    spread = [np.maximum(o, b) / np.maximum(np.minimum(o, b), 1e-300)
              for o in (r, f)]
    res.add("residual ratios bounded and stable within 2x under refinement",
            ("ratio", b, ">", 0.0),
            ("spread under 2x samples", spread[0], "<=", 2.0),
            ("spread under fd_dt / 2", spread[1], "<=", 2.0))
    return res


# ---------------------------------------------------------------------------
# weak-strong stability
# ---------------------------------------------------------------------------

def run_weak_strong(r0: float = 0.4, delta: float = 0.02,
                    t_end: float = 0.04, n_times: int = 41,
                    zero_tol: float = 1e-8) -> ExperimentResult:
    """Relative-energy stability: coercivity with constant one, exact
    uniqueness for identical data, Gronwall fit for a perturbed radius."""
    res = ExperimentResult("weak_strong",
                           csv_header=["case", "t", "E_rel", "E_bulk",
                                       "coercivity_slack"])
    strong = _radial_reference(r0, t_end)
    cal = calib.build_calibration(strong)
    times = np.linspace(0.0, t_end * 0.975, n_times)
    # the calibrated flow itself, then the one started delta further out
    rep, rep2 = (calib.gronwall_verify(weak, cal, times, zero_tol=zero_tol)
                 for weak in (strong, _radial_reference(r0 + delta, t_end)))
    res.csv_rows += [[case, *r] for case, g in zip(
        ("identical", "perturbed"), (rep, rep2))
        for r in zip(times, g.e_rel, g.e_bulk, g.coercivity_slack)]
    bound = np.format_float_scientific(zero_tol, trim="-", exp_digits=1)
    res.add(f"identical data keeps E_rel, E_bulk below {bound}",
            ("E_rel", rep.e_rel, "<=", zero_tol),
            ("E_bulk", rep.e_bulk, "<=", zero_tol))
    res.add("tilt coercivity holds with constant 1 and nonnegative slack",
            ("identity error", rep2.coercivity_identity_error, "<=", 1e-12),
            ("slack", rep2.coercivity_slack, ">=", -1e-14))
    c_fine, c_coarse = rep2.fitted_c_rel, rep2.fitted_c_rel_coarse
    res.add("fitted Gronwall constant stable within 2x under grid halving",
            ("C_rel", c_fine, "<=", 2.0 * c_coarse),
            ("C_rel coarse", c_coarse, "<=", 2.0 * c_fine))
    res.add("pointwise exponential bound E_rel(t) <= E_rel(0) exp(C t)",
            ("excess", rep2.exp_bound_excess, "<=", zero_tol))
    return res


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# experiment name -> (runner, claim it validates)
REGISTRY = {
    "surface_tension": (run_surface_tension,
                        "sigma quadrature vs closed form (acceptance 1)"),
    "equipartition": (run_equipartition,
                      "equipartition of energy, Lemma 3.4"),
    "first_variation": (run_first_variation,
                        "convergence of first variations, Theorem 3.1"),
    "gibbs_thomson": (run_gibbs_thomson,
                      "Gibbs-Thomson relation, Corollary 3.2"),
    "minimizing_movements": (run_minimizing_movements,
                             "minimizing movements scheme, Theorem A"),
    "dissipation": (run_dissipation,
                    "optimal dissipation identity, Definition 4.1"),
    "ac_to_mcf_radial": (run_ac_to_mcf_radial,
                         "conditional convergence of the flows, Theorem 4.3"),
    "ac_to_mcf_1d_drift": (run_ac_to_mcf_1d_drift,
                           "conditional convergence of the flows, Theorem 4.3"),
    "bv_residuals": (run_bv_residuals,
                     "BV solution residuals, Definition 4.2"),
    "calibration": (run_calibration,
                    "gradient-flow calibration, Definition 5.1"),
    "weak_strong": (run_weak_strong,
                    "weak-strong uniqueness, Theorem 5.2"),
}
