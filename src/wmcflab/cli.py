"""Experiment orchestration: config parsing and the wmcf command.

A config names one claim: a flat UTF-8 key=value file with '#' comments
that sets ``experiment`` and, optionally, ``out_dir`` (default ``.``;
it must not be empty), each at most once, e.g.

    experiment=equipartition
    out_dir=results

``run`` calls the experiment's runner with no arguments, so every run is
the acceptance run: the runner's defaults are its one set of arguments
(the Python API still takes keywords, for tests and exploration). Any
other key, a key set twice and an empty ``out_dir`` are rejected with
exit 2, by both ``validate`` and ``run``, one line per problem.

Commands: ``wmcf run <config>``, ``wmcf list``, ``wmcf validate <config>``.
``run`` appends one line per check to ``summary.txt``: PASS or FAIL, the
experiment and check names, then each part of the check as its label,
worst entry, relation and bound.
Exit codes for run: 0 all checks pass, 1 a check failed, 2 invalid config
(parse and validation errors, an out_dir that cannot be made a directory,
checked before the experiment starts) or any ValueError the experiment
raises, among them the ValueError subclasses of ``errors``:
ResolutionError, GeometryError, GridMismatchError; 3 numeric failure
(NumericError, ExtractionError).
Orchestration is single-threaded, so outputs are deterministic; to cap the
BLAS thread pools, set OMP_NUM_THREADS / OPENBLAS_NUM_THREADS in the
environment before the process starts.
"""

import argparse
import os
import sys
import time

from .errors import ExtractionError, NumericError
from .experiments import REGISTRY


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


def resolve(entries: dict):
    """Resolve parsed entries to ``(runner, out_dir, problems)``.

    A config names its experiment and, optionally, its ``out_dir``; any
    other key is a problem. ``runner()`` may be called only when
    ``problems`` is empty."""
    out_dir = entries.get("out_dir", ".")
    name = entries.get("experiment")
    if name is None:
        return None, out_dir, ["missing required key: experiment"]
    if name not in REGISTRY:
        return None, out_dir, [f"unknown experiment {name!r}; registry: "
                               + ", ".join(sorted(REGISTRY))]
    problems = []
    for key, text in entries.items():
        if key == "out_dir" and not text:
            problems.append("out_dir: must not be empty")
        elif key not in ("experiment", "out_dir"):
            problems.append(f"{key}: unknown key")
    return REGISTRY[name][0], out_dir, problems


def validate_config(path) -> list:
    """Problems that keep ``wmcf run`` from starting the experiment; no
    computation."""
    try:
        return resolve(parse_config(path))[2]
    except (OSError, ValueError) as exc:
        return [str(exc)]


def run_experiment(name, runner, out_dir) -> int:
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
        result = runner()
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
    runner, out_dir, problems = resolve(entries)
    for p in problems:
        sys.stderr.write(p + "\n")
    if problems:
        return 2
    return run_experiment(entries["experiment"], runner, out_dir)


if __name__ == "__main__":
    sys.exit(main())
