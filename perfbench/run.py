"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid7 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports occulimits
from ``src/`` next to this directory and refuses to run without it.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md for what each metric means.
"""

import os

# Pin every thread pool before numpy or scipy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OCCULIMITS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter

import numpy as np
import scipy

from calibration import REF_S, Reference

REF_WARMUP = 3      # untimed passes of the reference kernel before its first timing
REF_SPAN = 1        # reference timings beyond the two around an op that calibrate it

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 6  # half of them before the timed ops, half after
SETUP_TIMEOUT_S = 120
P90_TAIL = 10       # samples that must lie beyond a reported p90


def import_library():
    """Put this checkout's src/ first on sys.path and import occulimits."""
    if not os.path.isfile(os.path.join(SRC, "occulimits", "__init__.py")):
        raise SystemExit(f"perfbench: no occulimits sources under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import occulimits
    if os.path.dirname(os.path.dirname(os.path.abspath(occulimits.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported occulimits from {occulimits.__file__}, "
                         f"not from {SRC}")


class Phase:
    """Outcome of one timed stretch of ops."""

    def __init__(self):
        self.times = {}            # op index -> seconds, successful ops only
        self.calibrated = {}       # op index -> calibrated seconds (untraced runs)
        self.ref_s = []            # reference kernel times around the ops
        self.untraced = {}         # op index -> seconds of its untraced twin
        self.failures = Counter()  # failure class -> count
        self.incorrect = 0         # ops whose output broke an exact check
        self.attempted = 0
        self.wall = 0.0
        self.cpu = 0.0

    @property
    def samples(self):
        return list(self.times.values())

    @property
    def failed(self):
        return sum(self.failures.values())


def _timed(workload, state, inp):
    start = time.perf_counter()
    out = workload.op(state, inp)
    return time.perf_counter() - start, out


def measure(workload, state, seed, seconds, max_ops=None, tracer=None):
    """Run ops from the seeded input sequence for about ``seconds`` (or until
    ``max_ops`` ops ran).  The next op starts only while the run would end
    closer to ``seconds`` than one mean op time past it, so runs of slow ops
    do not overshoot.  An op fails when it raises, or when its output fails
    the workload's check; failures are counted and the run goes on.

    Without a tracer, the reference kernel runs before the first op and after
    every op, and each successful op also gets a calibrated time (see
    calibration.py).  With a tracer, each input runs twice: untraced, as the
    baseline for trace_overhead, and then with the tracer's wrappers
    installed."""
    from workloads import CheckFailed

    phase = Phase()
    inputs = workload.inputs(np.random.default_rng(seed))
    reference = None
    if tracer is None:
        reference = Reference()
        for _ in range(REF_WARMUP):
            reference.run()
        phase.ref_s.append(reference.seconds())
    t0, c0 = time.perf_counter(), time.process_time()
    while max_ops is None or phase.attempted < max_ops:
        elapsed = time.perf_counter() - t0
        if phase.attempted and elapsed * (1 + 0.5 / phase.attempted) >= seconds:
            break
        inp = next(inputs)
        index = phase.attempted
        phase.attempted += 1
        try:
            if tracer is None:
                elapsed, out = _timed(workload, state, inp)
            else:
                phase.untraced[index], _ = _timed(workload, state, inp)
                tracer.op_id = index
                with tracer.installed():
                    elapsed, out = _timed(workload, state, inp)
            workload.check(inp, out)
        except CheckFailed as exc:
            phase.failures["CheckFailed" if exc.exact else "CheckFailed.limit"] += 1
            phase.incorrect += exc.exact
            print(f"op {index} input {inp!r}: check failed: {exc}", file=sys.stderr)
        except Exception as exc:
            phase.failures[type(exc).__name__] += 1
            print(f"op {index} input {inp!r}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        else:
            phase.times[index] = elapsed
        if reference is not None:
            phase.ref_s.append(reference.seconds())
    phase.wall = time.perf_counter() - t0
    phase.cpu = time.process_time() - c0
    if reference is not None:
        # ref_s[i] ran right before op i and ref_s[i + 1] right after it.
        for index, elapsed in phase.times.items():
            window = phase.ref_s[max(0, index - REF_SPAN):index + 2 + REF_SPAN]
            phase.calibrated[index] = elapsed * REF_S / statistics.median(window)
    return phase


def _run_child(cmd):
    """Run ``cmd`` to its end with a blocking wait.  (A wait with a timeout
    polls, which rounds the measured time up to its 50 ms polling step.)  A
    timer kills a child that outlives SETUP_TIMEOUT_S."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
        timer.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)


def setup_seconds(workload_name, seed, repeats):
    """Wall times of ``repeats`` fresh interpreters that import the library
    and build what the ops reuse: process start until the first op could
    start.  They are not calibrated: set-up is mostly imports, whose time
    does not follow the reference kernel's."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _run_child(cmd)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(phase, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50_cal": (statistics.median(phase.calibrated.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def p90(samples):
    """(p90, samples beyond it), or None when fewer than P90_TAIL lie beyond."""
    value = float(np.percentile(samples, 90))
    beyond = sum(s > value for s in samples)
    return (value, beyond) if beyond >= P90_TAIL else None


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run(workload_name, seed, seconds, trace, max_ops=None, save=True):
    """One run; returns (result line dict, report dict).  With ``save`` the
    report (and the spans of a traced run) are written under OUT_DIR."""
    from workloads import WORKLOADS
    import tracing

    workload = WORKLOADS[workload_name]
    report = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment()}
    if not trace:
        setup_runs = setup_seconds(workload_name, seed, SETUP_REPEATS // 2)
    state = workload.setup(OUT_DIR)
    tracer = tracing.Tracer() if trace else None
    phase = measure(workload, state, seed, seconds, max_ops, tracer)
    if not phase.samples:
        raise SystemExit(f"perfbench: no op of {workload_name} succeeded "
                         f"({dict(phase.failures)})")
    if not trace:
        # More set-ups after the ops, so that the median samples the
        # machine's speed at both ends of the run.
        setup_runs += setup_seconds(workload_name, seed, SETUP_REPEATS - len(setup_runs))
        report["setup_runs_s"] = setup_runs
        metrics = end_to_end(phase, statistics.median(setup_runs))
        shown = dict(metrics)
        shown["op_s_p50"] = (statistics.median(phase.samples), "s")
        shown["ops_per_s"] = (len(phase.samples) / phase.wall, "1/s")
        shown["ref_s_p50"] = (statistics.median(phase.ref_s), "s")
        shown["failed_ops_ratio"] = (phase.failed / phase.attempted, "ratio")
        tail = p90(phase.samples)
        if tail:
            shown["op_s_p90"] = (tail[0], "s")
            report["op_s_p90_beyond"] = tail[1]
    else:
        layer = tracer.layer_metrics(phase.attempted)
        layer["trace_overhead"] = statistics.median(
            [t / phase.untraced[i] for i, t in phase.times.items()])
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        shown = dict(metrics)
        report["untraced_op_s"] = list(phase.untraced.values())
        report["layer_shares"] = _shares(layer, tracer.inclusive_s(phase.attempted), phase)
        if save:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.save(os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.npz"))

    report.update({
        "attempted": phase.attempted, "failed": phase.failed,
        "failures": dict(phase.failures), "op_samples": len(phase.samples),
        "op_s": phase.samples, "op_s_cal": list(phase.calibrated.values()),
        "ref_s": phase.ref_s, "cpu_wall_ratio": phase.cpu / phase.wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    })
    line = {"correct": phase.incorrect == 0, "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if save:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"result-{workload_name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return line, report


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s/op"
    if name in ("programs.dense_share", "trace_overhead"):
        return "ratio"
    return "1/op"


def _shares(layer, inclusive, phase):
    """Each span's self time and inclusive time as shares of the mean time of
    a successful traced op, largest self share first."""
    per_op = statistics.mean(phase.samples)
    shares = {span: {"self": layer[f"{span}.self_s"] / per_op, "total": total / per_op}
              for span, total in inclusive.items() if total > 0}
    outside = 1.0 - sum(v["self"] for v in shares.values())
    shares["(outside spans)"] = {"self": outside, "total": outside}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]["self"]))


def _print_report(line, report):
    env = report["environment"]
    print(f"# workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# ops: attempted={report['attempted']} failed={report['failed']} "
          f"successful_samples={report['op_samples']} failures={report['failures']} "
          f"cpu/wall={report['cpu_wall_ratio']:.3f} correct={line['correct']}")
    for name, m in report["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for name, share in report.get("layer_shares", {}).items():
        print(f"share {name:38s} self {share['self']:.3f}  total {share['total']:.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an exception, so a set-up child is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        workload.setup(OUT_DIR)
        next(workload.inputs(np.random.default_rng(args.seed)))
        return 0
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.SubprocessError:
        traceback.print_exc()
        return 1
    _print_report(line, report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
