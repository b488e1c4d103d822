"""Config parsing, validation, registry, and exit-code contract."""

import builtins
import glob
import inspect
import os
import re
import subprocess
import sys

import pytest

import wmcflab

from wmcflab import cli, errors
from wmcflab.experiments import run_dissipation


def write(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_key_value_with_comments(self, tmp_path):
        path = write(tmp_path, """
# comment line
experiment=equipartition
out_dir = results   # trailing comment
""")
        entries = cli.parse_config(path)
        assert entries == {"experiment": "equipartition", "out_dir": "results"}
        assert cli.resolve(entries) == (
            cli.REGISTRY["equipartition"][0], "results", [])

    def test_malformed_line_raises(self, tmp_path):
        path = write(tmp_path, "this is not a key value pair\n")
        with pytest.raises(ValueError):
            cli.parse_config(path)

    # a key set twice used to take its last value: validate passed both
    # configs, and the second one ran the weak-strong experiment. A repeat
    # is rejected when parsed, before any key is judged: also when it
    # restates the value with other spacing, and for a key no config may
    # carry.
    @pytest.mark.parametrize("text, key, lines", [
        ("experiment=gibbs_thomson\ngrid.n=64\ngrid.n=256\n"
         "tol.radius=0.25\ntol.radius=0.45\n", "grid.n", (2, 3)),
        ("experiment=calibration\n# comment\n\nexperiment=weak_strong\n",
         "experiment", (1, 4)),
        ("experiment=surface_tension\n  tol.tol = 1e-6\ntol.tol=1e-6\n",
         "tol.tol", (2, 3)),
        ("experiment=surface_tension\nout_dir=elsewhere\n", "out_dir", (2, 3)),
    ])
    def test_key_set_twice_raises(self, tmp_path, capsys, text, key, lines):
        path = write(tmp_path, text + f"out_dir={tmp_path}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{lines[1]}: key '{key}' set twice, first at line "
                f"{lines[0]}")):
            cli.parse_config(path)
        assert cli.main(["validate", path]) == 2
        assert cli.main(["run", path]) == 2
        assert "set twice" in capsys.readouterr().err
        assert glob.glob(os.path.join(tmp_path, "*.csv")) == []

    def test_missing_experiment_reported(self, tmp_path):
        path = write(tmp_path, "grid.n=64\n")
        runner, _, problems = cli.resolve(cli.parse_config(path))
        assert runner is None
        assert problems == ["missing required key: experiment"]


class TestValidateConfig:
    def test_valid_file_gives_empty_report(self, tmp_path):
        path = write(tmp_path, "experiment=equipartition\nout_dir=results\n")
        assert cli.validate_config(path) == []

    def test_unknown_experiment_names_registry(self, tmp_path):
        path = write(tmp_path, "experiment=bogus\n")
        problems = cli.validate_config(path)
        assert any("bogus" in p and "equipartition" in p for p in problems)

    def test_unknown_namespace_flagged(self, tmp_path):
        path = write(tmp_path, "experiment=equipartition\nfoo.bar=1\n")
        assert cli.validate_config(path) == ["foo.bar: unknown key"]

    # A config names a claim and runs it at the runner's defaults, so every
    # key other than experiment and out_dir is unknown, whatever its value
    # and whether or not the runner has a parameter of that name. Both
    # commands report each, in order, and run starts nothing.
    @pytest.mark.parametrize("text, keys", [
        ("experiment=bv_residuals\ngrid.n=64\neps=0.3\n", ["grid.n", "eps"]),
        ("experiment=calibration\nseed=3\n", ["seed"]),
        ("experiment=dissipation\ndt=1e-5\n", ["dt"]),
        ("experiment=surface_tension\ntol.bogus=1\nwell.a_slope=5\n",
         ["tol.bogus", "well.a_slope"]),
        ("experiment=surface_tension\nwell.name=quartic_moving\n"
         "well.a_slope=notanumber\n", ["well.name", "well.a_slope"]),
        ("experiment=surface_tension\nwell.name=quartic_moving\n"
         "well.foo=1\n", ["well.name", "well.foo"]),
        ("experiment=calibration\ntol.n_per_time=10\n", ["tol.n_per_time"]),
        ("experiment=first_variation\nwell.name=quartic_exp\n",
         ["well.name"]),
        ("experiment=equipartition\nwell.name=sextic\n", ["well.name"]),
        ("experiment=equipartition\ngrid.n=64\neps=0.1,0.08\n"
         "well.name=quartic_moving\nwell.a0=0.0\nwell.a_slope=0.6\n"
         "well.b0=1.0\nwell.b_slope=0.0\n",
         ["grid.n", "eps", "well.name", "well.a0", "well.a_slope", "well.b0",
          "well.b_slope"]),
        ("experiment=equipartition\ngrid.n=64\neps=0.1,0.08\n"
         "well.name=quartic_moving\nwell.a_slope=nan\n",
         ["grid.n", "eps", "well.name", "well.a_slope"]),
        ("experiment=minimizing_movements\nwell.name=quartic_constant\n"
         "well.amplitude=-1\n", ["well.name", "well.amplitude"]),
        ("experiment=surface_tension\nwell.name=quartic_affine\n"
         "well.offset=0.5\nwell.slope=-1\n",
         ["well.name", "well.offset", "well.slope"]),
        ("experiment=gibbs_thomson\ntol.radius=0.45\ngrid.n=64\n",
         ["tol.radius", "grid.n"]),
        ("experiment=gibbs_thomson\ngrid.n=256\neps=0.08,0.04,0.02\n"
         "tol.residual_tol=1e-3\n", ["grid.n", "eps", "tol.residual_tol"]),
        ("experiment=weak_strong\nt_end=0.5\n", ["t_end"]),
        ("experiment=dissipation\ntol.factor=0.5\nt_end=inf\n",
         ["tol.factor", "t_end"]),
    ])
    def test_key_not_taken_is_rejected(self, tmp_path, monkeypatch, capsys,
                                       text, keys):
        name = text.split("\n", 1)[0].split("=", 1)[1]

        def never():
            raise AssertionError("the runner started")
        monkeypatch.setitem(cli.REGISTRY, name, (never, "synthetic"))
        lines = [f"{k}: unknown key" for k in keys]
        path = write(tmp_path, text + f"out_dir={tmp_path / 'out'}\n")
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().out.splitlines() == lines
        assert cli.main(["run", path]) == 2
        assert capsys.readouterr().err.splitlines() == lines
        assert not (tmp_path / "out").exists()

    # The format used to take grid.n, eps, t_end and tol.<p> for the float
    # parameters p of a runner. None of them, and no bare parameter name,
    # reaches a runner now: each is one problem, in the order written.
    @pytest.mark.parametrize("name", sorted(cli.REGISTRY))
    def test_no_key_reaches_a_runner_parameter(self, name):
        runner = cli.REGISTRY[name][0]
        params = list(inspect.signature(runner).parameters)
        keys = list(dict.fromkeys(["grid.n", "eps", "t_end", *params,
                                   *(f"tol.{p}" for p in params)]))
        entries = {"experiment": name, **dict.fromkeys(keys, "1"),
                   "out_dir": "results"}
        assert cli.resolve(entries) == (
            runner, "results", [f"{k}: unknown key" for k in keys])


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "configs", "*.cfg")))


@pytest.mark.parametrize("path", CONFIGS,
                         ids=[os.path.basename(p) for p in CONFIGS])
def test_shipped_config_validates(path, capsys):
    assert cli.main(["validate", path]) == 0, capsys.readouterr().out


# Runs in a fresh interpreter: list and validate must leave SciPy unloaded
# and build no Gauss-Legendre rule, and the two ODE callers must still load
# scipy.integrate when first called.
COLD_START = """
import contextlib, io, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import wmcflab
from wmcflab import cli, quadrature, sharp, wells
assert scipy_modules() == [], scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["list"]) == 0
    for path in sys.argv[1:]:
        assert cli.main(["validate", path]) == 0, path
assert scipy_modules() == [], scipy_modules()
assert quadrature.gauss_legendre.cache_info().currsize == 0

v = wells.optimal_profile(wells.constant_quartic(), 0.5, [-1.0, 0.0, 1.0])
assert v[1] == 0.5 and 0.0 < v[0] < 0.5 < v[2] < 1.0, v
assert "scipy.integrate" in sys.modules
traj = sharp.evolve_radial(0.4, sharp.constant_scalar_sigma(1.0), 0.01)
assert abs(traj.positions[-1] - (0.4 ** 2 - 2 * 0.01) ** 0.5) < 1e-8
print("ok")
"""


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this wmcflab, and
    require that it prints ok."""
    src = os.path.dirname(os.path.dirname(wmcflab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cold_start_loads_no_scipy_until_an_ode_is_solved():
    run_fresh(COLD_START, *CONFIGS)


# The drift's sharp reference is the exact line p0 - kappa t: a whole
# criterion 08 run (small sizes here) solves no ODE, so it never imports
# scipy.integrate, which adds about 23 MB to the process.
DRIFT_RUN = """
import sys
from wmcflab.experiments import run_ac_to_mcf_1d_drift
res = run_ac_to_mcf_1d_drift(grid_n=256, runs=((0.08, 0.5), (0.04, 0.25)))
assert len(res.csv_rows) == 10, res.csv_rows
assert "scipy.fft" in sys.modules
assert "scipy.integrate" not in sys.modules, "drift run loaded scipy.integrate"
print("ok")
"""


def test_drift_run_loads_no_ode_solver():
    run_fresh(DRIFT_RUN)


class TestListExperiments:
    def test_registry_contents(self):
        text = cli.list_experiments()
        lines = text.splitlines()
        assert len(lines) >= 6
        assert any("first_variation" in ln and "Theorem 3.1" in ln
                   for ln in lines)
        assert any("weak_strong" in ln and "Theorem 5.2" in ln
                   for ln in lines)

    def test_main_list_exits_zero(self, capsys):
        assert cli.main(["list"]) == 0
        assert "gibbs_thomson" in capsys.readouterr().out


class TestRun:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "no equals sign here\n")
        assert cli.main(["run", path]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        path = write(tmp_path, "experiment=nope\n")
        assert cli.main(["run", path]) == 2

    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "results"
        path = write(tmp_path, f"experiment=surface_tension\n"
                               f"out_dir={out}\n")
        assert cli.main(["run", path]) == 0
        files = glob.glob(str(out / "surface_tension_*.csv"))
        assert len(files) == 1
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("PASS")

    @pytest.mark.parametrize("name, code", [
        ("ResolutionError", 2), ("GeometryError", 2), ("GridMismatchError", 2),
        ("NumericError", 3), ("ExtractionError", 3), ("ValueError", 2)])
    def test_library_error_exit_code(self, tmp_path, monkeypatch, capsys,
                                     name, code):
        def raising():
            raise (getattr(errors, name, None)
                   or getattr(builtins, name))("synthetic")
        monkeypatch.setitem(cli.REGISTRY, "surface_tension",
                            (raising, "synthetic"))
        out = tmp_path / "out"
        path = write(tmp_path, f"experiment=surface_tension\n"
                               f"out_dir={out}\n")
        assert cli.main(["run", path]) == code
        assert name in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_single_dt_dissipation_fails(self):
        # one dt gives no halving ratio to check
        res = run_dissipation(dt_list=(3.5e-5,))
        assert not res.passed

    def test_failed_check_exits_nonzero(self, tmp_path, monkeypatch):
        from wmcflab.experiments import ExperimentResult

        def failing():
            res = ExperimentResult("surface_tension", csv_header=["a"])
            res.add("synthetic check", ("value", 1.0, "<", 0.0))
            return res
        monkeypatch.setitem(cli.REGISTRY, "surface_tension",
                            (failing, "synthetic"))
        path = write(tmp_path, f"experiment=surface_tension\n"
                               f"out_dir={tmp_path}\n")
        assert cli.main(["run", path]) == 1

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        p1 = write(tmp_path, f"experiment=surface_tension\nout_dir={out1}\n",
                   "c1.txt")
        p2 = write(tmp_path, f"experiment=surface_tension\nout_dir={out2}\n",
                   "c2.txt")
        assert cli.main(["run", p1]) == 0
        assert cli.main(["run", p2]) == 0
        f1 = next(out1.glob("*.csv"))
        f2 = next(out2.glob("*.csv"))
        assert f1.read_bytes() == f2.read_bytes()

    def test_same_second_runs_keep_both_tables(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.time, "strftime",
                            lambda fmt: "20260101-000000")
        path = write(tmp_path, f"experiment=surface_tension\n"
                               f"out_dir={tmp_path / 'out'}\n")
        assert cli.main(["run", path]) == 0
        assert cli.main(["run", path]) == 0
        assert sorted(os.listdir(tmp_path / "out")) == [
            "summary.txt", "surface_tension_20260101-000000.csv",
            "surface_tension_20260101-000000_1.csv"]
        # one block per run: its one verdict, then the name of its table
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "PASS", "table:", "PASS", "table:"]
        assert lines[1] == "table: surface_tension_20260101-000000.csv"
        # PASS/FAIL, experiment: check, then label worst relation bound
        assert lines[0].startswith("PASS  surface_tension: sigma quadrature "
                                   "matches closed form  rel err ")
        assert lines[0].endswith(" <= 1e-08")
        assert lines[3] == "table: surface_tension_20260101-000000_1.csv"

    # os.makedirs used to raise FileExistsError (a file at out_dir) or
    # NotADirectoryError (a file on its path) with a traceback and exit 1,
    # the code for a failed check, after validate had passed
    @pytest.mark.parametrize("below", [(), ("results",)])
    def test_unusable_out_dir_exits_2(self, tmp_path, monkeypatch, capsys,
                                      below):
        def never():
            raise AssertionError("the runner started")
        monkeypatch.setitem(cli.REGISTRY, "surface_tension",
                            (never, "synthetic"))
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out = os.path.join(blocker, *below)
        path = write(tmp_path, f"experiment=surface_tension\nout_dir={out}\n")
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out_dir {out!r}: ")
        assert "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    # an empty out_dir used to pass validate, and run then exited 2 with
    # "config error: out_dir '': [Errno 2] No such file or directory: ''"
    @pytest.mark.parametrize("line", ["out_dir=", "out_dir =  "])
    def test_empty_out_dir_exits_2(self, tmp_path, monkeypatch, capsys,
                                   line):
        def never():
            raise AssertionError("the runner started")
        monkeypatch.setitem(cli.REGISTRY, "surface_tension",
                            (never, "synthetic"))
        path = write(tmp_path, f"experiment=surface_tension\n{line}\n")
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().out == "out_dir: must not be empty\n"
        assert cli.main(["run", path]) == 2
        assert capsys.readouterr() == ("", "out_dir: must not be empty\n")


def test_validate_command_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "experiment=calibration\n", "good.txt")
    bad = write(tmp_path, "experiment=calibration\nfoo=1\n", "bad.txt")
    assert cli.main(["validate", good]) == 0
    assert cli.main(["validate", bad]) == 2
