"""The acceptance arguments are the runners' defaults.

The defaults are the one copy: ``test_acceptance.py`` calls every runner
with them, and ``wmcf run`` calls the runner of a config with no
arguments (a config names an experiment and an ``out_dir``, and can carry
no argument); a test here runs every shipped config and sees its runner
called with none. The benchmark's workloads (``perfbench/workloads.py``)
write some of them out by keyword; a test holds those equal to the
defaults, so a changed default cannot leave the benchmark measuring a
different run. ``perfbench/`` is only read.
"""

import glob
import inspect
import os

import pytest

from wmcflab import cli
from wmcflab.experiments import REGISTRY, ExperimentResult

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


def load_workloads():
    """``WORKLOADS`` of the benchmark, executed from its source (nothing
    is imported from or written under ``perfbench/``)."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    namespace = {"__file__": path, "__name__": "perfbench_workloads"}
    exec(code, namespace)
    return namespace["WORKLOADS"]


def defaults(name):
    params = inspect.signature(REGISTRY[name][0]).parameters
    return {p: v.default for p, v in params.items()}


WORKLOAD_CALLS = [(workload, name, kwargs)
                  for workload, calls in load_workloads().items()
                  for name, kwargs in calls]


@pytest.mark.parametrize(
    "workload, name, kwargs", WORKLOAD_CALLS,
    ids=[f"{w}-{n}" for w, n, _ in WORKLOAD_CALLS])
def test_workload_arguments_are_runner_defaults(workload, name, kwargs):
    # the benchmark adds the seed itself, to the runners that take one
    assert "seed" not in kwargs
    expected = defaults(name)
    assert set(kwargs) <= set(expected)
    assert {k: expected[k] for k in kwargs} == kwargs


# a config carries no argument: run calls the runner of every shipped
# config with none, so each runs at the defaults
@pytest.mark.parametrize("path", CONFIGS,
                         ids=[os.path.basename(p) for p in CONFIGS])
def test_config_arguments_are_runner_defaults(path, tmp_path, monkeypatch):
    name = cli.parse_config(path)["experiment"]
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        res = ExperimentResult(name, csv_header=["a"])
        res.add("synthetic check", ("value", 0.0, "<", 1.0))
        return res
    monkeypatch.setitem(cli.REGISTRY, name, (recording, "synthetic"))
    monkeypatch.chdir(tmp_path)   # the configs' out_dir is relative
    assert cli.main(["run", path]) == 0
    assert calls == [((), {})]
