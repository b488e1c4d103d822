"""Quick self-test of the benchmark (about 15 s).

    python3 perfbench/selftest.py

Checks that
  * ``BENCHMARK.json`` names exactly the metrics the code emits, with the
    same units;
  * the gate rejects a CSV value moved by more than the tolerance, a
    flipped verdict and a runner check that FAILs, and accepts roundoff;
  * one untraced and one traced run of the ``oracles`` workload print
    every end-to-end, respectively per-layer, metric with its unit in a
    last-line JSON object of the agreed shape, and exit 0;
  * a copy holding only ``BENCHMARK.json`` and the benchmark's files
    exits nonzero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class FakeCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class FakeResult:
    checks: list
    csv_header: list
    csv_rows: list = field(default_factory=list)


def fake_from(ref):
    return FakeResult([FakeCheck(n, p) for n, p in ref["verdicts"]],
                      list(ref["header"]), [list(r) for r in ref["rows"]])


def check_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.METRICS, "per_layer differs from layers.METRICS"
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, "end_to_end differs from the run output"
    names = {w["name"] for w in spec["workloads"]}
    assert names <= set(workloads.WORKLOADS), "unknown workload"
    assert set(workloads.EXERCISED) == set(workloads.WORKLOADS)


def check_gate():
    ref = workloads.load_reference()["runners"]
    call = workloads.Call("minimizing_movements", None, {}, seeded=False)
    good = fake_from(ref[call.name])
    assert not workloads.problems(call, good, 0, ref)
    # roundoff below the absolute floor passes
    good.csv_rows[-1][3] += 1e-16
    assert not workloads.problems(call, good, 0, ref)
    moved = fake_from(ref[call.name])
    moved.csv_rows[10][2] *= 1 + 1e-9
    assert workloads.problems(call, moved, 0, ref), "moved value accepted"
    flipped = fake_from(ref[call.name])
    flipped.checks[0].passed = not flipped.checks[0].passed
    assert workloads.problems(call, flipped, 0, ref), "flipped verdict"
    # a seeded runner off the reference seed is gated by its own checks
    seeded = workloads.Call("calibration", None, {}, seeded=True)
    other = fake_from(ref[seeded.name])
    other.csv_rows[0][1] = 123.0
    assert not workloads.problems(seeded, other, 7, ref)
    other.checks[0].passed = False
    assert workloads.problems(seeded, other, 7, ref), "FAIL check accepted"


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracles",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 4
    want = layers.METRICS if trace else END_TO_END
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, f"emitted {sorted(got)}"
    for name, m in out["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())
        assert "failed_ratio 0 ratio" in proc.stdout


def check_stripped():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracles",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "stripped copy exited 0"
    assert '"metrics"' not in proc.stdout, "stripped copy printed a result"


def main():
    for check in (check_declared, check_gate, lambda: check_run(0),
                  lambda: check_run(1), check_stripped):
        check()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
