"""The benchmark's workloads and its correctness gate.

A workload is a list of ``experiments.REGISTRY`` runners, each called with
the arguments ``tests/test_acceptance.py`` uses. One pass calls every
runner of the workload once, in order.

The gate: every check of every runner must PASS. At the reference seed the
CSV rows and verdicts must also match ``reference.json``, recorded on the
commit that introduced the benchmark: verdicts identically, numbers within
``REL_TOL`` relative or ``ABS_FLOOR`` absolute. Runners that take no seed
are deterministic, so they are held to the reference at every seed.
"""

import inspect
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
REL_TOL = 1e-12
# Entries that are themselves roundoff carry no relative digits, so below
# this magnitude they are compared absolutely. On the reference commit they
# are at most 2.6e-15 (sigma rel_err 2.5e-15, BV residuals 2.2e-16, the
# identical-data E_rel and slacks 2e-17, converged movement_sq 3.6e-18).
ABS_FLOOR = 1e-14

# workload -> ((registry name, acceptance arguments), ...)
WORKLOADS = {
    "recovery": (
        ("equipartition", {"grid_n": 512,
                           "eps_list": (0.08, 0.04, 0.02, 0.01)}),
    ),
    "flow_2d": (
        ("ac_to_mcf_radial", {"r0": 0.4, "t_end": 0.06, "rel_tol": 0.05}),
    ),
    "flow_1d": (
        ("ac_to_mcf_1d_drift", {"kappa": 0.5, "rel_tol": 0.05}),
    ),
    "descent": (
        ("gibbs_thomson", {"grid_n": 256, "eps_list": (0.08, 0.04, 0.02),
                           "radius": 0.25, "residual_tol": 1e-3}),
        ("minimizing_movements", {"grid_n": 512, "n_steps": 200}),
    ),
    "oracles": (
        ("surface_tension", {"n_points": 50, "tol": 1e-8}),
        ("bv_residuals", {"tol": 1e-6}),
        ("calibration", {"n_per_time": 1000}),
        ("weak_strong", {"delta": 0.02, "zero_tol": 1e-8}),
    ),
}


class Call:
    """One runner call of a pass, bound to its arguments."""

    def __init__(self, name, runner, kwargs, seeded):
        self.name = name
        self.runner = runner
        self.kwargs = kwargs
        self.seeded = seeded

    def __call__(self):
        return self.runner(**self.kwargs)


def build(workload, seed, registry):
    """Bind the workload's runners; the seed goes to runners taking one."""
    calls = []
    for name, kwargs in WORKLOADS[workload]:
        runner = registry[name][0]
        seeded = "seed" in inspect.signature(runner).parameters
        if seeded:
            kwargs = dict(kwargs, seed=seed)
        calls.append(Call(name, runner, kwargs, seeded))
    return calls


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def record(result):
    """A runner's result in reference form: verdicts and CSV rows."""
    return {
        "verdicts": [[c.name, c.passed] for c in result.checks],
        "header": list(result.csv_header),
        "rows": [[v if isinstance(v, str) else float(v) for v in row]
                 for row in result.csv_rows],
    }


def _close(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def problems(call, result, seed, reference):
    """Why this runner call fails the gate; empty when it passes."""
    found = [f"check FAIL: {c.name} {c.detail}"
             for c in result.checks if not c.passed]
    if call.seeded and seed != REFERENCE_SEED:
        return found
    ref = reference[call.name]
    got = record(result)
    if got["verdicts"] != ref["verdicts"]:
        found.append("verdicts differ from the reference")
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        found.append("CSV shape differs from the reference")
        return found
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        if len(row) != len(ref_row):
            found.append(f"CSV row {i} has {len(row)} cells, "
                         f"reference {len(ref_row)}")
            continue
        for j, (a, b) in enumerate(zip(row, ref_row)):
            if not _close(a, b):
                found.append(f"CSV row {i} column {ref['header'][j]}: "
                             f"{a!r} vs reference {b!r}")
    return found


# Spans that must record calls on a workload: the layers the workload is
# chosen to exercise. Zero calls means a wrapper missed a binding.
EXERCISED = {
    "recovery": ("wells.optimal_profile_grid", "wells.W", "grid.points",
                 "variations.build_recovery", "variations.measure_pairing",
                 "variations.equipartition_defect"),
    "flow_2d": ("wells.optimal_profile_grid", "wells.W", "wells.dW_du",
                "grid.laplacian_neumann", "grid.extract_levelset",
                "grid.points", "flow.run", "flow.dct", "flow.energy_face",
                "flow.ledger_append", "flow.reaction_lipschitz",
                "sharp.evolve_radial"),
    "flow_1d": ("wells.dW_du", "grid.laplacian_neumann",
                "grid.extract_levelset", "grid.points", "flow.run",
                "flow.dct", "flow.energy_face", "flow.ledger_append",
                "flow.reaction_lipschitz", "sharp.evolve_point1d"),
    "descent": ("wells.optimal_profile_grid", "wells.W", "wells.dW_du",
                "grid.laplacian_neumann", "grid.extract_levelset",
                "grid.points", "flow.energy_face", "flow.reaction_lipschitz",
                "flow.minimize_constrained", "flow.step_minmov"),
    "oracles": ("wells.surface_tension", "sharp.evolve_radial",
                "sharp.motion_law_residual", "sharp.transport_residual",
                "sharp.dissipation_check", "calib.calibration_residuals",
                "calib.calibration_invariants", "calib.gronwall_verify",
                "calib.coercivity_check",
                "quadrature.adaptive_gauss_legendre"),
}

# Counts a traced pass must reproduce exactly (values in reference.json).
EXACT_COUNTS = {
    "recovery": ("wells.optimal_profile_grid.points",),
    "flow_2d": ("flow.steps",),
    "flow_1d": ("flow.steps",),
    "descent": ("flow.minimize_constrained.iterations",
                "flow.step_minmov.iterations"),
}
