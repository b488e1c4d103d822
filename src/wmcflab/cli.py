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

Commands: ``wmcf run <config>``, ``wmcf list``, ``wmcf validate <config>``.
Exit codes for run: 0 all checks pass, 1 a check failed, 2 invalid config
or parameters (parse and validation errors, and the ValueError subclasses
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
from dataclasses import dataclass, field

import numpy as np

from . import wells
from .errors import (DomainError, ExtractionError, GeometryError,
                     GridMismatchError, NumericError, ResolutionError)
from .experiments import REGISTRY


def _make_quartic_constant(p):
    return wells.constant_quartic(a0=float(p.get("a0", 0.0)),
                                  b0=float(p.get("b0", 1.0)),
                                  amplitude=float(p.get("amplitude", 1.0)))


def _make_quartic_moving(p):
    return wells.linear_wells_quartic(
        float(p.get("a0", 0.0)), float(p.get("a_slope", 0.6)),
        float(p.get("b0", 1.0)), float(p.get("b_slope", 0.0)),
        axis=0, bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))


def _make_quartic_affine(p):
    return wells.affine_scaled_quartic(offset=float(p.get("offset", 1.0)),
                                       slope=float(p.get("slope", 1.0)))


def _make_quartic_exp(p):
    return wells.exp_scaled_quartic(float(p.get("kappa", 0.5)))


WELL_REGISTRY = {
    "quartic_constant": _make_quartic_constant,
    "quartic_moving": _make_quartic_moving,
    "quartic_affine": _make_quartic_affine,
    "quartic_exp": _make_quartic_exp,
}

_KNOWN_NAMESPACES = ("experiment", "well", "grid", "eps", "dt", "t_end",
                     "out_dir", "tol", "seed")


@dataclass
class ExperimentConfig:
    experiment: str
    well_name: str = ""
    well_params: dict = field(default_factory=dict)
    grid_n: int = 0                    # 0: use the experiment default
    eps_list: tuple = ()
    dt: float = 0.0
    t_end: float = 0.0
    out_dir: str = "."
    tols: dict = field(default_factory=dict)


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


def config_from_entries(entries: dict) -> ExperimentConfig:
    if "experiment" not in entries:
        raise ValueError("missing required key: experiment")
    cfg = ExperimentConfig(experiment=entries["experiment"])
    cfg.well_name = entries.get("well.name", "")
    cfg.well_params = {k.split(".", 1)[1]: v for k, v in entries.items()
                       if k.startswith("well.") and k != "well.name"}
    if "grid.n" in entries:
        cfg.grid_n = int(entries["grid.n"])
    if "eps" in entries:
        cfg.eps_list = tuple(float(tok) for tok in
                             entries["eps"].split(",") if tok.strip())
    if "dt" in entries:
        cfg.dt = float(entries["dt"])
    if "t_end" in entries:
        cfg.t_end = float(entries["t_end"])
    cfg.out_dir = entries.get("out_dir", ".")
    cfg.tols = {k.split(".", 1)[1]: float(v) for k, v in entries.items()
                if k.startswith("tol.")}
    return cfg


def validate_config(path) -> list:
    """Schema and invariant checks; returns a list of problems (no
    computation)."""
    problems = []
    try:
        entries = parse_config(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    for key in entries:
        ns = key.split(".", 1)[0]
        if ns not in _KNOWN_NAMESPACES:
            problems.append(f"unknown key namespace: {key}")
    if "experiment" not in entries:
        problems.append("missing required key: experiment")
    else:
        if entries["experiment"] not in REGISTRY:
            problems.append(
                f"unknown experiment {entries['experiment']!r}; registry: "
                + ", ".join(sorted(REGISTRY)))
    if "well.name" in entries:
        if entries["well.name"] not in WELL_REGISTRY:
            problems.append(
                f"unknown well {entries['well.name']!r}; registry: "
                + ", ".join(sorted(WELL_REGISTRY)))
        exp = entries.get("experiment")
        if exp in REGISTRY:
            runner, _ = REGISTRY[exp]
            if "well" not in inspect.signature(runner).parameters:
                problems.append(f"experiment {exp!r} uses a pinned well; "
                                "remove well.* from the config")
    try:
        cfg = config_from_entries(entries)
    except (KeyError, ValueError) as exc:
        problems.append(str(exc))
        return problems
    if cfg.eps_list and cfg.grid_n:
        h = 1.0 / cfg.grid_n
        for eps in cfg.eps_list:
            if eps < 4.0 * h:
                problems.append(f"eps={eps} below 4*spacing={4 * h} for "
                                f"grid.n={cfg.grid_n}")
    if "t_end" in entries and cfg.t_end <= 0:
        problems.append("t_end must be positive")
    return problems


def _runner_kwargs(runner, cfg: ExperimentConfig) -> dict:
    """Map the generic config onto the parameters the runner accepts."""
    sig = inspect.signature(runner)
    kwargs = {}
    if cfg.grid_n and "grid_n" in sig.parameters:
        kwargs["grid_n"] = cfg.grid_n
    if cfg.eps_list and "eps_list" in sig.parameters:
        kwargs["eps_list"] = cfg.eps_list
    if cfg.t_end and "t_end" in sig.parameters:
        kwargs["t_end"] = cfg.t_end
    if cfg.well_name:
        if "well" not in sig.parameters:
            raise ValueError(
                f"experiment {cfg.experiment!r} uses a pinned well; remove "
                f"well.* from the config")
        kwargs["well"] = WELL_REGISTRY[cfg.well_name](cfg.well_params)
    for name, val in cfg.tols.items():
        if name in sig.parameters:
            kwargs[name] = val
    return kwargs


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment; writes <experiment>_<timestamp>.csv and
    summary.txt under out_dir. Returns the exit status."""
    runner, _ = REGISTRY[cfg.experiment]
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        kwargs = _runner_kwargs(runner, cfg)
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        result = runner(**kwargs)
    except (DomainError, ResolutionError, GeometryError,
            GridMismatchError) as exc:
        sys.stderr.write(f"parameter error: {type(exc).__name__}: {exc}\n")
        return 2
    except (NumericError, ExtractionError) as exc:
        sys.stderr.write(f"numeric failure: {type(exc).__name__}: {exc}\n")
        return 3
    stamp = time.strftime("%Y%m%d-%H%M%S")
    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}_{stamp}.csv")
    result.write_csv(csv_path)
    summary_path = os.path.join(cfg.out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        for line in result.summary_lines():
            fh.write(line + "\n")
            print(line)
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
        problems = validate_config(args.config)
        if problems:
            for p in problems:
                sys.stderr.write(p + "\n")
            return 2
        cfg = config_from_entries(entries)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
