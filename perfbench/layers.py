"""Per-layer tracing, installed from outside the package.

The benchmark wraps the public functions of each wmcflab module in spans.
A span counts calls and measures inclusive time and self time (its
duration minus the part covered by child spans). Counts and times are
aggregated per name in memory; nothing inside ``src/`` changes.

Modules bind many of these functions by name (``flow`` binds
``laplacian_neumann``, ``variations`` binds ``optimal_profile_grid``,
``wells`` and ``sharp`` bind ``adaptive_gauss_legendre``), so a wrapper
replaces every module-level binding of the original object in every
wmcflab module, not only the defining one.
"""

import dataclasses
import functools
import statistics
import sys
import time

_clock = time.perf_counter

# (span name, defining module, attribute path) for every wrapped function.
# A dotted attribute path names a method on a class.
SPANS = (
    ("wells.optimal_profile_grid", "wmcflab.wells", "optimal_profile_grid"),
    ("wells.surface_tension", "wmcflab.wells", "surface_tension"),
    ("grid.laplacian_neumann", "wmcflab.grid", "laplacian_neumann"),
    ("grid.extract_levelset", "wmcflab.grid", "extract_levelset"),
    ("grid.points", "wmcflab.grid", "Grid.points"),
    ("flow.run", "wmcflab.flow", "run"),
    ("flow.energy_face", "wmcflab.flow", "energy_face"),
    ("flow.ledger_append", "wmcflab.flow", "DissipationLedger.append"),
    ("flow.reaction_lipschitz", "wmcflab.flow", "reaction_lipschitz"),
    ("flow.minimize_constrained", "wmcflab.flow", "minimize_constrained"),
    ("flow.step_minmov", "wmcflab.flow", "step_minmov"),
    ("variations.build_recovery", "wmcflab.variations", "build_recovery"),
    ("variations.measure_pairing", "wmcflab.variations", "measure_pairing"),
    ("variations.equipartition_defect", "wmcflab.variations",
     "equipartition_defect"),
    ("sharp.evolve_radial", "wmcflab.sharp", "evolve_radial"),
    ("sharp.evolve_point1d", "wmcflab.sharp", "evolve_point1d"),
    ("sharp.motion_law_residual", "wmcflab.sharp", "motion_law_residual"),
    ("sharp.transport_residual", "wmcflab.sharp", "transport_residual"),
    ("sharp.dissipation_check", "wmcflab.sharp", "dissipation_check"),
    ("calib.calibration_residuals", "wmcflab.calib", "calibration_residuals"),
    ("calib.calibration_invariants", "wmcflab.calib",
     "calibration_invariants"),
    ("calib.gronwall_verify", "wmcflab.calib", "gronwall_verify"),
    ("calib.coercivity_check", "wmcflab.calib", "coercivity_check"),
    ("quadrature.adaptive_gauss_legendre", "wmcflab.quadrature",
     "adaptive_gauss_legendre"),
)
# Spans that are not module functions: the DCT pair, imported by
# ``flow._spectral_solve`` from scipy.fft at call time, and the W/dW_du
# callables on every spec that ``wells.canonical_quartic`` builds (all
# quartic factories go through it).
EXTRA_SPANS = ("flow.dct", "wells.W", "wells.dW_du")
DESCENT_SPANS = ("flow.minimize_constrained", "flow.step_minmov")

# Every per-layer metric of a traced run, with its unit.
METRICS = {
    "wells.optimal_profile_grid.calls": "count",
    "wells.optimal_profile_grid.self_s": "s",
    "wells.optimal_profile_grid.points": "count",
    "wells.W.calls": "count",
    "wells.W.self_s": "s",
    "wells.dW_du.calls": "count",
    "wells.dW_du.self_s": "s",
    "wells.surface_tension.calls": "count",
    "wells.surface_tension.self_s": "s",
    "grid.laplacian_neumann.calls": "count",
    "grid.laplacian_neumann.self_s": "s",
    "grid.extract_levelset.calls": "count",
    "grid.extract_levelset.self_s": "s",
    "grid.points.calls": "count",
    "grid.points.self_s": "s",
    "flow.run.calls": "count",
    "flow.run.self_s": "s",
    "flow.steps": "count",
    "flow.step_us": "us",
    "flow.dct.calls": "count",
    "flow.dct.self_s": "s",
    "flow.energy_face.calls": "count",
    "flow.energy_face.self_s": "s",
    "flow.ledger_append.calls": "count",
    "flow.ledger_append.self_s": "s",
    "flow.reaction_lipschitz.calls": "count",
    "flow.reaction_lipschitz.self_s": "s",
    "flow.minimize_constrained.calls": "count",
    "flow.minimize_constrained.self_s": "s",
    "flow.minimize_constrained.iterations": "count",
    "flow.step_minmov.calls": "count",
    "flow.step_minmov.self_s": "s",
    "flow.step_minmov.iterations": "count",
    "flow.descent.evals_per_iter": "evals/iter",
    "variations.build_recovery.calls": "count",
    "variations.build_recovery.self_s": "s",
    "variations.measure_pairing.calls": "count",
    "variations.measure_pairing.self_s": "s",
    "variations.equipartition_defect.self_s": "s",
    "sharp.evolve_radial.calls": "count",
    "sharp.evolve_radial.self_s": "s",
    "sharp.evolve_point1d.calls": "count",
    "sharp.evolve_point1d.self_s": "s",
    "sharp.motion_law_residual.self_s": "s",
    "sharp.transport_residual.self_s": "s",
    "sharp.dissipation_check.self_s": "s",
    "calib.calibration_residuals.self_s": "s",
    "calib.calibration_invariants.self_s": "s",
    "calib.gronwall_verify.self_s": "s",
    "calib.coercivity_check.calls": "count",
    "calib.coercivity_check.self_s": "s",
    "quadrature.adaptive_gauss_legendre.calls": "count",
    "quadrature.adaptive_gauss_legendre.self_s": "s",
    "experiments.self_s": "s",
    "proc.cpu_s": "s",
    "proc.os_threads": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Aggregated spans and counters of the current pass."""

    def __init__(self):
        self.stats = {}       # span name -> [calls, self_s, inclusive_s]
        self.counters = {}    # counter name -> value
        self._stack = []      # child time of every open span
        self._descent = 0     # open descent spans

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, args)`` runs
        once the span has closed."""
        stack, stats, clock = self._stack, self.stats, _clock
        descent = name in DESCENT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if descent:
                self._descent += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if descent:
                    self._descent -= 1
                if stack:
                    stack[-1][0] += dt
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt - child[0]
                st[2] += dt
            if after is not None:
                after(out, args)
            return out

        return traced

    def install(self):
        """Wrap every span target in every wmcflab namespace binding it."""
        import scipy.fft

        import wmcflab  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items()
                   if n == "wmcflab" or n.startswith("wmcflab.")]
        after = {
            "wells.optimal_profile_grid": lambda out, args: self.count(
                "wells.optimal_profile_grid.points", out.size),
            "flow.run": lambda out, args: self.count(
                "flow.steps", len(out[1].steps)),
            "flow.energy_face": self._energy_face_done,
            "flow.minimize_constrained": lambda out, args: self.count(
                "flow.minimize_constrained.iterations", out.iterations),
            "flow.step_minmov": lambda out, args: self.count(
                "flow.step_minmov.iterations", out[1].iterations),
        }
        for name, modname, path in SPANS:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                setattr(owner, attr,
                        self.wrap(name, getattr(owner, attr), after.get(name)))
                continue
            original = getattr(owner, attr)
            _rebind(modules, original,
                    self.wrap(name, original, after.get(name)))
        for attr in ("dctn", "idctn"):
            setattr(scipy.fft, attr,
                    self.wrap("flow.dct", getattr(scipy.fft, attr)))

        wells = sys.modules["wmcflab.wells"]
        factory = wells.canonical_quartic

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec, W=self.wrap("wells.W", spec.W),
                dW_du=self.wrap("wells.dW_du", spec.dW_du))

        _rebind(modules, factory, traced_factory)

    def _energy_face_done(self, out, args):
        if self._descent:
            self.count("flow.descent.energy_evals")

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def metrics(self, pass_wall_s, cpu_s, os_threads, overhead_s):
        """Per-layer metrics of one pass, keyed as in ``METRICS``."""
        out = {}
        for name in [s[0] for s in SPANS] + list(EXTRA_SPANS):
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        steps = self.counters.get("flow.steps", 0)
        run_total = self.stats.get("flow.run", (0, 0.0, 0.0))[2]
        iters = 0
        for name in DESCENT_SPANS:
            key = f"{name}.iterations"
            out[key] = self.counters.get(key, 0)
            iters += out[key]
        evals = self.counters.get("flow.descent.energy_evals", 0)
        out["wells.optimal_profile_grid.points"] = self.counters.get(
            "wells.optimal_profile_grid.points", 0)
        out["flow.steps"] = steps
        out["flow.step_us"] = 1e6 * run_total / steps if steps else 0.0
        out["flow.descent.evals_per_iter"] = evals / iters if iters else 0.0
        covered = sum(st[1] for st in self.stats.values())
        out["experiments.self_s"] = pass_wall_s - covered
        out["proc.cpu_s"] = cpu_s
        out["proc.os_threads"] = os_threads
        out["trace.overhead_ratio"] = overhead_s / pass_wall_s
        return {k: out[k] for k in METRICS}

    def span_calls(self):
        return sum(st[0] for st in self.stats.values())


def _rebind(modules, original, traced):
    """Replace every module-level binding of ``original``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def span_cost_s(n=20000, repeats=5):
    """Median cost of one span around a trivial call, in seconds.

    Multiplied by the number of spans of a pass, this estimates the time
    tracing added to that pass.
    """
    tracer = Tracer()

    def noop(x):
        return x

    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = _clock()
        for i in range(n):
            noop(i)
        t1 = _clock()
        for i in range(n):
            traced(i)
        t2 = _clock()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return max(statistics.median(costs), 0.0)
