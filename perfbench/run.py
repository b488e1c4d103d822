"""Time-to-verdict benchmark of the wmcflab registry experiments.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR]

Runs from the root of a source checkout and imports ``wmcflab`` from its
``src/`` directory, in this process: one client, closed loop, passes back
to back until the next pass would overrun ``--seconds`` (at least one).
BLAS/OpenMP pools are capped at one thread before NumPy is imported.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``) and ``failed_ratio``; times are in reference seconds
(see ``speed.py``), with the raw ones printed alongside. ``--trace 1``
wraps the public functions of every layer in spans and reports the
per-layer metrics of ``layers.METRICS`` instead. Either way every runner
call goes through the gate in ``workloads.py``. The last line of standard
output is one JSON object; the exit code is 0 only if no runner call
failed and, traced, every layer was reached with its exact counts.

``--record-reference`` rewrites ``reference.json`` from one traced pass of
every workload at the reference seed. Do that only on purpose, on a commit
whose outputs are the ones later commits must reproduce.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
SPEED_SAMPLES = 10     # speed samples a set-up probe takes once ready


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="keep runner CSVs and the trace here "
                   "(default: a temporary directory, removed at exit)")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


def cap_threads():
    for name in THREAD_CAPS:
        os.environ[name] = "1"


def import_experiments():
    """Import ``wmcflab.experiments`` from this checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wmcflab
    from wmcflab import experiments
    where = Path(wmcflab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"wmcflab imported from {where}, not from {src}")
    return experiments


def setup(workload, seed):
    """Import the library and bind the workload: what every run pays."""
    import workloads
    calls = workloads.build(workload, seed, import_experiments().REGISTRY)
    return calls, workloads.load_reference()


def setup_seconds(workload, seed):
    """Process start to ready-to-run, measured in fresh processes.

    Returns (raw, reference) seconds per sample. Once ready, each probe
    samples the machine's speed and reports the slowdown it found.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            report = proc.communicate()[0].split()
        if proc.returncode != 0 or ready != "ready" or len(report) != 2:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append((t1 - t0, (t1 - t0) / float(report[1])))
    return samples


def os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "os_threads": os_threads(),
        "commit": git_commit(),
    }


def run_pass(calls, meter):
    """Call every runner once, timed by ``meter``.

    Returns (cpu_s, outcomes), an outcome being (call, result, traceback
    or None, raw seconds of the call).
    """
    outcomes = []
    cpu0 = time.process_time()
    with meter:
        for call in calls:
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception:  # a raising runner is a failed call, not a crash
                result, error = None, traceback.format_exc(limit=3)
            outcomes.append((call, result, error, time.perf_counter() - t0))
    return time.process_time() - cpu0, outcomes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args, calls, reference, out_dir):
    """Run passes for ``args.seconds``.

    Writes each traced pass's spans (calls, self and inclusive time) and
    runner times to ``trace.json`` in ``out_dir``. Returns the (raw,
    reference) wall times of the passes, the per-layer rows of a traced
    run, the failed runner calls as (pass, runner, reason), the
    benchmark's own gate failures (coverage, exact counts) and the number
    of calls attempted.
    """
    import layers
    import speed
    import workloads

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        span_cost = layers.span_cost_s()

    walls, traces, failed_calls, gate = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        if tracer is None:
            meter = speed.Speedometer()
        else:
            tracer.reset()
            meter = speed.Stopwatch()
        cpu, outcomes = run_pass(calls, meter)
        wall = meter.raw_s
        walls.append((wall, meter.reference_s if tracer is None else wall))
        k = len(walls)
        for call, result, error, _ in outcomes:
            attempted += 1
            if error is not None:
                found = ["raised: " + error]
            else:
                found = workloads.problems(call, result, args.seed,
                                           reference["runners"])
                result.write_csv(out_dir / f"{call.name}_pass{k}.csv")
            failed_calls += [(k, call.name, msg) for msg in found]
        if tracer is not None:
            row = tracer.metrics(wall, cpu, os_threads(),
                                 span_cost * tracer.span_calls())
            traces.append({
                "metrics": row,
                "runners_s": {o[0].name: o[3] for o in outcomes},
                "spans": {name: dict(zip(("calls", "self_s", "total_s"), st))
                          for name, st in tracer.stats.items()}})
            gate += coverage(args.workload, tracer, row, reference, k)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w[0] for w in walls) > args.seconds:
            break
    if traces:
        (out_dir / "trace.json").write_text(json.dumps(traces, indent=1))
    return (walls, [t["metrics"] for t in traces], failed_calls, gate,
            attempted)


def coverage(workload, tracer, row, reference, k):
    """Name-binding coverage and exact counts of one traced pass."""
    import workloads
    found = [f"pass {k} coverage: {name} recorded no calls"
             for name in workloads.EXERCISED[workload]
             if tracer.calls(name) == 0]
    expected = reference["exact_counts"].get(workload, {})
    for name in workloads.EXACT_COUNTS.get(workload, ()):
        if row[name] != expected.get(name):
            found.append(f"pass {k} count: {name} = {row[name]}, "
                         f"reference {expected.get(name)}")
    return found


def main(argv=None):
    cap_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    # exit through the finally blocks (temporary directory) when stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        import speed
        meter = speed.Speedometer()
        for _ in range(SPEED_SAMPLES):
            meter.sample()
        print(f"slowdown {meter.slowdown!r}")
        return 0
    if args.record_reference:
        return record_reference()

    try:
        setup_samples = [] if args.trace else setup_seconds(args.workload,
                                                            args.seed)
        calls, reference = setup(args.workload, args.seed)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"perfbench: cannot set up {args.workload!r}: {exc}",
              file=sys.stderr)
        return 2

    info = machine()
    out_dir = Path(args.out) if args.out else Path(
        tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        walls, layer_rows, failed_calls, gate, attempted = measure(
            args, calls, reference, out_dir)
        info["os_threads"] = os_threads()
        (out_dir / "machine.json").write_text(json.dumps(info, indent=1))
    finally:
        if not args.out:
            shutil.rmtree(out_dir, ignore_errors=True)

    failed = len({(k, name) for k, name, _ in failed_calls})
    for k, name, msg in failed_calls:
        print(f"FAIL pass {k} {name}: {msg}")
    for msg in gate:
        print(f"FAIL {msg}")
    caps = ",".join(f"{k}={v}" for k, v in info["thread_caps"].items())
    print(f"machine nproc={info['nproc']} cpu={info['cpu']!r} "
          f"python={info['python']} numpy={info['numpy']} "
          f"scipy={info['scipy']} caps={caps} "
          f"os_threads={info['os_threads']} commit={info['commit']}")
    print(f"workload {args.workload} seed={args.seed} passes={len(walls)} "
          f"trace={args.trace}")
    print(f"failed_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} runner calls failed)")

    import layers
    if args.trace:
        metrics = {name: {"value": statistics.median(row[name]
                                                     for row in layer_rows),
                          "unit": unit}
                   for name, unit in layers.METRICS.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {}
        for name, samples, what in (("wall_s", walls, "passes"),
                                    ("setup_s", setup_samples, "set-ups")):
            raw = [s[0] for s in samples]
            ref = [s[1] for s in samples]
            q1, q3 = quartiles(ref)
            metrics[name] = {"value": statistics.median(ref), "unit": "s"}
            print(f"{name} {statistics.median(ref):.4f} s at reference speed "
                  f"(median of {len(ref)} {what}, q1 {q1:.4f}, q3 {q3:.4f}; "
                  f"raw median {statistics.median(raw):.4f} s)")
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        print(f"peak_rss_mb {rss:.1f} MB")
    correct = failed == 0 and not gate
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference():
    """Rewrite reference.json from one traced pass of every workload."""
    import layers
    import speed
    import workloads

    experiments = import_experiments()
    tracer = layers.Tracer()
    tracer.install()
    runners, counts = {}, {}
    for workload in workloads.WORKLOADS:
        calls = workloads.build(workload, workloads.REFERENCE_SEED,
                                experiments.REGISTRY)
        tracer.reset()
        meter = speed.Stopwatch()
        cpu, outcomes = run_pass(calls, meter)
        wall = meter.raw_s
        for call, result, error, _ in outcomes:
            if error is not None:
                print(error, file=sys.stderr)
                return 1
            runners[call.name] = workloads.record(result)
        row = tracer.metrics(wall, cpu, os_threads(), 0.0)
        counts[workload] = {name: row[name] for name in
                            workloads.EXACT_COUNTS.get(workload, ())}
        print(f"recorded {workload} in {wall:.2f} s", flush=True)
    reference = {"seed": workloads.REFERENCE_SEED, "commit": git_commit(),
                 "runners": runners, "exact_counts": counts}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
