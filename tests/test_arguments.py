"""The acceptance arguments are the runners' defaults.

The defaults are the one copy: ``test_acceptance.py`` calls every runner
with them. They are also written out in the benchmark's workloads
(``perfbench/workloads.py``) and in the shipped configs
(``configs/*.cfg``). These tests hold both copies equal to the defaults,
so a changed default cannot leave the benchmark or a config measuring a
different run. ``perfbench/`` is only read.
"""

import glob
import inspect
import os

import pytest

from wmcflab import cli
from wmcflab.experiments import REGISTRY

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
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


@pytest.mark.parametrize("path", CONFIGS,
                         ids=[os.path.basename(p) for p in CONFIGS])
def test_config_arguments_are_runner_defaults(path):
    entries = cli.parse_config(path)
    _, kwargs, _, problems = cli.resolve(entries)
    assert problems == []
    expected = defaults(entries["experiment"])
    assert {k: expected[k] for k in kwargs} == kwargs
