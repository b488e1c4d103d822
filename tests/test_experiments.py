"""The check evaluator: verdicts from (label, value, relation, bound)."""

import operator

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from wmcflab.experiments import (Check, ExperimentResult, holds,
                                 run_ac_to_mcf_1d_drift, run_weak_strong)

ELEMENTWISE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
               ">": operator.gt}
RELATIONS = sorted(ELEMENTWISE) + ["decreasing"]

finite = hst.floats(-1e6, 1e6)
finite_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2,
                                                        max_side=6),
                           elements=finite)


@given(hst.sampled_from(RELATIONS), finite,
       hst.sampled_from([(0,), (0, 3), (2, 0)]))
def test_empty_value_fails(relation, bound, shape):
    assert not holds(np.empty(shape), relation, bound)


@given(hst.sampled_from(RELATIONS), finite, finite_arrays,
       hst.sampled_from([np.nan, np.inf, -np.inf]), hst.data())
def test_nonfinite_entry_fails(relation, bound, vals, bad, data):
    # -inf would satisfy < and <=, +inf > and >=: it still fails
    vals = vals.copy()
    vals.flat[data.draw(hst.integers(0, vals.size - 1))] = bad
    assert not holds(vals, relation, bound)
    assert not holds(float(bad), relation, bound)


@given(finite)
def test_decreasing_fails_on_a_single_value(x):
    assert not holds(x, "decreasing", None)
    assert not holds([x], "decreasing", None)


@given(hst.sampled_from(sorted(ELEMENTWISE)), finite_arrays, finite)
def test_elementwise_matches_numpy(relation, vals, bound):
    assert holds(vals, relation, bound) == bool(
        np.all(ELEMENTWISE[relation](vals, bound)))
    for x in vals.flat:
        assert holds(x, relation, bound) == ELEMENTWISE[relation](x, bound)


@given(hnp.arrays(np.float64, hst.integers(2, 8), elements=finite))
def test_decreasing_matches_numpy(vals):
    assert holds(vals, "decreasing", None) == bool(np.all(np.diff(vals) < 0))


def test_nan_bound_fails():
    assert not holds(1.0, "<=", np.nan)
    assert not holds(1.0, ">", np.nan)


def test_unknown_relation_raises():
    with pytest.raises(KeyError):
        holds(1.0, "==", 1.0)


class TestCheck:
    def test_passes_when_every_part_holds(self):
        ok = ("a", [1.0, 2.0], "<=", 2.0)
        assert Check("c", (ok,)).passed
        assert not Check("c", (ok, ("b", 3.0, "<", 3.0))).passed

    def test_no_parts_fails(self):
        assert not Check("c", ()).passed
        assert not ExperimentResult("no checks").passed

    def test_detail_shows_worst_entry_relation_and_bound(self):
        check = Check("c", (("err", [1e-3, 5e-3, 2e-3], "<=", 1e-2),
                            ("slack", [0.5, -2.0], ">=", -1.0),
                            ("gap", [0.3, 0.2, 0.1], "decreasing", None),
                            ("none", [], "<", 1.0),
                            ("bad", [1.0, np.nan], "<", 1.0)))
        assert check.detail == ("err 0.005 <= 0.01, slack -2 >= -1, "
                                "gap 0.3 -> 0.2 -> 0.1 decreasing, "
                                "none empty < 1, bad nan < 1")

    def test_result_add_and_summary_line(self):
        res = ExperimentResult("demo")
        res.add("bounded", ("x", 0.5, "<=", 1.0))
        res.add("decreasing", ("y", [2.0], "decreasing", None))
        assert [c.passed for c in res.checks] == [True, False]
        assert not res.passed
        assert list(res.summary_lines()) == [
            "PASS  demo: bounded  x 0.5 <= 1",
            "FAIL  demo: decreasing  y 2 decreasing"]


@pytest.mark.parametrize("n_times", [1, 2])
def test_weak_strong_without_a_coarse_fit_fails(n_times):
    # one time fits no Gronwall constant; two leave the coarse grid with
    # one time. Neither may pass the stability or the exponential bound
    res = run_weak_strong(n_times=n_times)
    verdicts = {c.name: c.passed for c in res.checks}
    assert not res.passed
    assert not verdicts["fitted Gronwall constant stable within 2x under "
                        "grid halving"]
    assert not verdicts["pointwise exponential bound E_rel(t) <= "
                        "E_rel(0) exp(C t)"]


def test_weak_strong_name_states_zero_tol():
    res = run_weak_strong(n_times=5, zero_tol=1e-6)
    first = res.checks[0]
    assert first.name == "identical data keeps E_rel, E_bulk below 1e-6"
    assert [bound for *_, bound in first.parts] == [1e-6, 1e-6]


def test_flow_runner_name_states_rel_tol():
    res = run_ac_to_mcf_1d_drift(t_end=0.02, grid_n=256,
                                 runs=((0.04, 0.5), (0.02, 0.5)), rel_tol=0.1)
    first = res.checks[0]
    assert first.name == ("position error <= 10% of traveled distance at "
                          "finest eps")
    assert first.parts[0][3] == 0.1
