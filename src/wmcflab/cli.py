"""Experiment orchestration: config parsing and the wmcf command.

Configs are flat UTF-8 key=value files with '#' comments and dotted
namespaces, e.g.

    experiment=equipartition
    grid.n=512
    eps=0.08,0.04,0.02,0.01
    well.name=quartic_moving
    well.a0=0.0
    well.a_slope=0.6
    out_dir=results

Every key other than ``experiment`` and ``out_dir`` reaches one parameter
of the experiment's runner:

    grid.n              -> grid_n    (positive int)
    eps                 -> eps_list  (comma-separated positive finite floats)
    t_end               -> t_end     (positive finite float)
    tol.<name>          -> <name>    (a float parameter of the runner;
                                      finite: inf and nan are rejected)
    well.name, well.<p> -> well      (WELL_REGISTRY factory called with <p>;
                                      finite: inf and nan are rejected)

A key the experiment does not take is rejected with exit 2, by both
``validate`` and ``run``, and so is an ``eps``, ``t_end``, ``tol.<name>``
or ``well.<p>`` value that is not finite (``float`` parses inf and nan;
no interface fits in the box at an infinite eps, no sharp reference
reaches an infinite t_end, an infinite tolerance can stop a solve at
once and pass the check it bounds, a nan one compares false, and a
non-finite well parameter gives wells that the run rejects only once it
builds them).
``validate`` checks keys, types, names, that an eps sweep has two or
more values, all distinct (each experiment that takes one checks a
strict decrease over it) and that every eps a run starts from, set or
by default, spans >= 4 spacings of grid.n (or of the default grid_n):
the resolution rule of ``variations.build_recovery``. It does not check
geometry (boundary margins, the recovery energy, extinction before
t_end): the experiment checks that when it starts, and ``run`` exits 2.
Every sweep runs its largest step (eps, or dt) first, whatever order it
is given in, and is judged in that order. A per-halving rate (the
``tol.factor`` of ``dissipation``) needs each step half the one before
(relative 1e-9) and a factor > 1; otherwise ``validate`` reports it and
``run`` exits 2 before the runner computes anything (one rule,
``experiments._halving_rate``, for both).

Commands: ``wmcf run <config>``, ``wmcf list``, ``wmcf validate <config>``.
``run`` appends one line per check to ``summary.txt``: PASS or FAIL, the
experiment and check names, then each part of the check as its label,
worst entry, relation and bound.
Exit codes for run: 0 all checks pass, 1 a check failed, 2 invalid config
or parameters (parse and validation errors, an out_dir that cannot be
made a directory, checked before the experiment starts, and any
ValueError the experiment raises, among them the ValueError subclasses
of ``errors``: DomainError, ResolutionError, GeometryError,
GridMismatchError), 3 numeric failure (NumericError, ExtractionError).
Orchestration is single-threaded, so outputs are deterministic; to cap the
BLAS thread pools, set OMP_NUM_THREADS / OPENBLAS_NUM_THREADS in the
environment before the process starts.
"""

import argparse
import inspect
import os
import sys
import time

import numpy as np

from . import wells
from .errors import ExtractionError, NumericError
from .experiments import REGISTRY, _halving_rate
from .variations import _CELLS_PER_EPS


def _make_quartic_constant(a0=0.0, b0=1.0, amplitude=1.0):
    return wells.constant_quartic(a0=a0, b0=b0, amplitude=amplitude)


def _make_quartic_moving(a0=0.0, a_slope=0.6, b0=1.0, b_slope=0.0):
    return wells.linear_wells_quartic(
        a0, a_slope, b0, b_slope,
        axis=0, bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))


def _make_quartic_affine(offset=1.0, slope=1.0):
    # m(x) = offset + slope x_0 is extreme at x_0 = 0 and 1 of the unit box
    if not min(offset, offset + slope) > 0:
        raise ValueError(f"amplitude offset + slope x = {offset} + {slope} x "
                         "must be positive on the unit box")
    return wells.affine_scaled_quartic(offset=offset, slope=slope)


def _make_quartic_exp(kappa=0.5):
    return wells.exp_scaled_quartic(kappa)


WELL_REGISTRY = {
    "quartic_constant": _make_quartic_constant,
    "quartic_moving": _make_quartic_moving,
    "quartic_affine": _make_quartic_affine,
    "quartic_exp": _make_quartic_exp,
}


def parse_config(path) -> dict:
    """Flat key=value with '#' comments; raises ValueError on bad lines."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line!r}")
            key, val = line.split("=", 1)
            entries[key.strip()] = val.strip()
    return entries


def _positive(convert):
    def read(text):
        value = convert(text)
        if not value > 0:
            raise ValueError(f"must be positive, got {text!r}")
        return value
    return read


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _eps_list(text):
    values = tuple(_positive(_finite)(tok) for tok in text.split(","))
    if len(set(values)) < max(len(values), 2):
        raise ValueError(f"needs two or more distinct values, got {text!r}")
    return values


def resolve(entries: dict):
    """Resolve parsed entries to ``(runner, kwargs, out_dir, problems)``.

    Every key other than ``experiment`` and ``out_dir`` must reach a
    parameter of the runner, or it is a problem; ``runner(**kwargs)`` may be
    called only when ``problems`` is empty."""
    out_dir = entries.get("out_dir", ".")
    name = entries.get("experiment")
    if name is None:
        return None, {}, out_dir, ["missing required key: experiment"]
    if name not in REGISTRY:
        return None, {}, out_dir, [f"unknown experiment {name!r}; registry: "
                                   + ", ".join(sorted(REGISTRY))]
    runner = REGISTRY[name][0]
    params = inspect.signature(runner).parameters
    well_name = entries.get("well.name")
    factory = WELL_REGISTRY.get(well_name)
    floats = [p for p, v in params.items() if isinstance(v.default, float)]
    kwargs, well_kwargs, problems = {}, {}, []

    def forward(key, param, read, accepted=params, into=kwargs,
                takes_no=f"experiment {name!r} takes no"):
        if param not in accepted:
            problems.append(f"{key}: {takes_no} parameter {param!r}")
        elif param in into:
            problems.append(f"{key}: parameter {param!r} is set twice")
        else:
            try:
                into[param] = read(entries[key])
            except ValueError as exc:
                problems.append(f"{key}: {exc}")

    for key in entries:
        if key in ("experiment", "out_dir", "well.name"):
            continue
        if key == "grid.n":
            forward(key, "grid_n", _positive(int))
        elif key == "eps":
            forward(key, "eps_list", _eps_list)
        elif key == "t_end":
            forward(key, "t_end", _positive(_finite))
        elif key.startswith("tol."):
            forward(key, key[4:], _finite, accepted=floats,
                    takes_no=f"experiment {name!r} takes no float")
        elif key.startswith("well."):
            if factory is None:
                problems.append(f"{key}: needs a known well.name")
            else:
                forward(key, key[5:], _finite, into=well_kwargs,
                        accepted=inspect.signature(factory).parameters,
                        takes_no=f"well {well_name!r} takes no")
        else:
            problems.append(f"{key}: unknown key")
    if well_name is not None and "well" not in params:
        problems.append(f"well.name: experiment {name!r} uses a pinned "
                        "well; remove well.* from the config")
    elif well_name is not None and factory is None:
        problems.append(f"well.name: unknown well {well_name!r}; registry: "
                        + ", ".join(sorted(WELL_REGISTRY)))
    elif factory is not None:
        try:
            kwargs["well"] = factory(**well_kwargs)
        except ValueError as exc:
            problems.append(f"well.name: {exc}")
    if "grid_n" in params:
        used = {p: kwargs.get(p, v.default) for p, v in params.items()}
        floor = _CELLS_PER_EPS * (1.0 / used["grid_n"])
        for eps in (*used.get("eps_list", ()), used.get("eps", np.inf),
                    *(run[0] for run in used.get("runs", ()))):
            if eps < floor:
                problems.append(f"eps={eps} below {_CELLS_PER_EPS:g}*spacing="
                                f"{floor} for grid.n={used['grid_n']}")
    if "factor" in kwargs and "dt_list" in params:
        try:
            _halving_rate(params["dt_list"].default, kwargs["factor"])
        except ValueError as exc:
            problems.append(f"tol.factor: {exc}")
            del kwargs["factor"]
    return runner, kwargs, out_dir, problems


def validate_config(path) -> list:
    """Problems that keep ``wmcf run`` from starting the experiment; no
    computation."""
    try:
        return resolve(parse_config(path))[3]
    except (OSError, ValueError) as exc:
        return [str(exc)]


def run_experiment(name, runner, kwargs, out_dir) -> int:
    """Run one resolved experiment; writes <name>_<timestamp>.csv (with
    _1, _2, ... appended if that name is taken) under out_dir and appends
    the run's PASS/FAIL lines, closed by a ``table: <csv name>`` line, to
    out_dir/summary.txt. Returns the exit status."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file at out_dir or on its path
        sys.stderr.write(f"config error: out_dir {out_dir!r}: {exc}\n")
        return 2
    try:
        result = runner(**kwargs)
    except ValueError as exc:
        sys.stderr.write(f"parameter error: {type(exc).__name__}: {exc}\n")
        return 2
    except (NumericError, ExtractionError) as exc:
        sys.stderr.write(f"numeric failure: {type(exc).__name__}: {exc}\n")
        return 3
    stem = os.path.join(out_dir, f"{name}_{time.strftime('%Y%m%d-%H%M%S')}")
    csv_path, k = stem + ".csv", 0
    while os.path.exists(csv_path):
        k += 1
        csv_path = f"{stem}_{k}.csv"
    result.write_csv(csv_path)
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "a", encoding="utf-8") as fh:
        for line in result.summary_lines():
            fh.write(line + "\n")
            print(line)
        fh.write(f"table: {os.path.basename(csv_path)}\n")
    print(f"table: {csv_path}")
    print(f"summary: {summary_path}")
    return 0 if result.passed else 1


def list_experiments() -> str:
    lines = [f"{name:22s} -> {claim}"
             for name, (_, claim) in REGISTRY.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wmcf",
        description="desk-scale experiments for the heterogeneous "
                    "diffuse-interface flow and its sharp limit")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    sub.add_parser("list", help="list the experiment registry")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "validate":
        problems = validate_config(args.config)
        for p in problems:
            print(p)
        return 0 if not problems else 2
    # run
    try:
        entries = parse_config(args.config)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    runner, kwargs, out_dir, problems = resolve(entries)
    for p in problems:
        sys.stderr.write(p + "\n")
    if problems:
        return 2
    return run_experiment(entries["experiment"], runner, kwargs, out_dir)


if __name__ == "__main__":
    sys.exit(main())
