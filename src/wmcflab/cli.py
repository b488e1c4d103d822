"""Experiment orchestration: config parsing and the wmcf command.

Configs are flat UTF-8 key=value files with '#' comments and dotted
namespaces, each key set at most once, e.g.

    experiment=equipartition
    grid.n=512
    eps=0.08,0.04,0.02,0.01
    out_dir=results

Every key other than ``experiment`` and ``out_dir`` reaches one parameter
of the experiment's runner:

    grid.n              -> grid_n    (positive int)
    eps                 -> eps_list  (comma-separated positive finite floats)
    t_end               -> t_end     (positive finite float)
    tol.<name>          -> <name>    (a float parameter of the runner;
                                      finite: inf and nan are rejected)

Each runner builds the potential its claim is stated for, so no key
selects a well.
A key the experiment does not take is rejected with exit 2, by both
``validate`` and ``run``, and so is a key set twice, and an ``eps``,
``t_end`` or ``tol.<name>`` value that is not finite (``float`` parses inf
and nan; no interface fits in the box at an infinite eps, no sharp
reference reaches an infinite t_end, an infinite tolerance can stop a
solve at once and pass the check it bounds, and a nan one compares
false).
``validate`` checks keys, types, the experiment name, that an eps sweep
has two or more values, all distinct (each experiment that takes one
checks a strict decrease over it) and that every eps a run starts from,
set or by default, spans >= 4 spacings of grid.n (or of the default
grid_n): the resolution rule of ``variations.build_recovery``, judged
only when none of grid.n, eps and tol.eps that the config sets is
rejected, so it never judges a default in place of a value the config
set. It does not check geometry (boundary margins, the recovery energy,
extinction before t_end): the experiment checks that when it starts,
and ``run`` exits 2.
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

from .errors import ExtractionError, NumericError
from .experiments import REGISTRY, _halving_rate
from .variations import _CELLS_PER_EPS


def parse_config(path) -> dict:
    """Flat key=value with '#' comments; raises ValueError on bad lines
    and on a key set twice."""
    entries, first = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in first:
                raise ValueError(f"{path}:{lineno}: key {key!r} set twice, "
                                 f"first at line {first[key]}")
            first[key] = lineno
            entries[key] = val
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


# config key -> (runner parameter, reader); tol.<name> reaches <name>
_KEYS = {"grid.n": ("grid_n", _positive(int)),
         "eps": ("eps_list", _eps_list),
         "t_end": ("t_end", _positive(_finite))}


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
    floats = {p for p, v in params.items() if isinstance(v.default, float)}
    kwargs, problems = {}, []
    for key, text in entries.items():
        if key in ("experiment", "out_dir"):
            continue
        if key in _KEYS:
            (param, read), accepted, kind = _KEYS[key], params, ""
        elif key.startswith("tol."):
            param, read, accepted, kind = key[4:], _finite, floats, "float "
        else:
            problems.append(f"{key}: unknown key")
            continue
        if param not in accepted:
            problems.append(f"{key}: experiment {name!r} takes no {kind}"
                            f"parameter {param!r}")
        elif param in kwargs:
            problems.append(f"{key}: parameter {param!r} is set twice")
        else:
            try:
                kwargs[param] = read(text)
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
    # past a rejected key, the rule would judge the default in its place
    rejected = {p.split(":", 1)[0] for p in problems}
    if "grid_n" in params and not rejected & {"grid.n", "eps", "tol.eps"}:
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
