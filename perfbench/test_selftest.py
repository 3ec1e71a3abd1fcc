"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that op failures are counted and never end a run, that the
untraced run leaves the library unwrapped, that calibrated times scale with
the reference kernel, that a traced run's work counts repeat exactly for one
seed, that every op check rejects a perturbed result, and that the benchmark
refuses to run without the library's sources.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run  # pins the thread pools before numpy is imported

run.import_library()

import pytest
import scipy.optimize

import calibration
import tracing
from workloads import WORKLOADS, CheckFailed, grid_k_star

from occulimits import model as model_mod, programs

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _with(monkeypatch, name, **changes):
    monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(WORKLOADS[name], **changes))


def test_suite_failures_are_counted_not_fatal(monkeypatch):
    # At this revision the dense simplex reports model 1124 unbounded
    # (SolverError) and fails its own certificate on model 1328 (LpError);
    # HiGHS solves both with a zero gap.
    _with(monkeypatch, "suite", inputs=lambda rng: iter([1124, 0, 1328]))
    phase = run.measure(WORKLOADS["suite"], {}, seed=0, seconds=600, max_ops=3)
    assert phase.attempted == 3
    assert len(phase.samples) == 1
    assert dict(phase.failures) == {"SolverError": 1, "LpError": 1}
    assert phase.incorrect == 0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    clean = []
    base = WORKLOADS["suite"]

    def op(state, inp):
        clean.append(programs.linprog is scipy.optimize.linprog
                     and not hasattr(model_mod.TransitionTensor.expect, "__wrapped__")
                     and tracing.is_clean())
        return base.op(state, inp)

    _with(monkeypatch, "suite", op=op)
    line, _ = run.run("suite", 3, seconds=600, trace=False, max_ops=2, save=False)
    assert clean == [True, True]
    assert line["attempted"] == 2
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}

    clean.clear()
    line, _ = run.run("suite", 3, seconds=600, trace=True, max_ops=2, save=False)
    assert clean == [True, False, True, False]
    assert tracing.is_clean()
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_calibrated_time_scales_with_the_reference_kernel(monkeypatch):
    # A machine at half speed: the kernel takes twice REF_S, so each op's
    # calibrated time is half its wall time.
    monkeypatch.setattr(calibration.Reference, "seconds",
                        lambda self: 2 * calibration.REF_S)
    phase = run.measure(WORKLOADS["suite"], {}, seed=0, seconds=600, max_ops=2)
    assert phase.ref_s == [2 * calibration.REF_S] * 3
    assert phase.calibrated.keys() == phase.times.keys()
    for index, wall in phase.times.items():
        assert phase.calibrated[index] == pytest.approx(wall / 2)


def test_reference_kernel_repeats_its_result():
    reference = calibration.Reference()
    assert reference.run() == reference.expected
    assert reference.seconds() > 0


COUNTED = (".calls", ".stages", ".sweeps", ".steps", ".nit", "programs.dense_share")


@pytest.mark.parametrize("name, ops", [("suite", 5), ("discount", 1), ("grid7", 2),
                                       ("midgrid", 1)])
def test_traced_counts_repeat_for_one_seed(name, ops):
    first, _ = run.run(name, 11, seconds=600, trace=True, max_ops=ops, save=False)
    again, _ = run.run(name, 11, seconds=600, trace=True, max_ops=ops, save=False)
    counts = [k for k in first["metrics"] if k.endswith(COUNTED)]
    assert len(counts) == len(tracing.SPANS) + 5
    assert {k: first["metrics"][k] for k in counts} == \
        {k: again["metrics"][k] for k in counts}


def _assert_rejects(check, inp, good, *mutations):
    check(inp, good)
    for mutate in mutations:
        bad = copy.deepcopy(good)
        mutate(bad)
        with pytest.raises(CheckFailed):
            check(inp, bad)


def _shift(key, by):
    def mutate(r):
        r[key] = r[key] + by
    return mutate


def _doc_set(key, value):
    def mutate(r):
        r["doc"][key] = value(r["doc"][key])
    return mutate


GRID_MUTATIONS = (
    _doc_set("k_star_y0", lambda v: v + 1e-6),
    _doc_set("sandwich_ok", lambda v: not v),
    _doc_set("strong_duality", lambda v: not v),
    _doc_set("y0", lambda v: v + 1),
    lambda r: r.update(rc=4),
)


def test_midgrid_check_rejects_perturbed_results():
    w = WORKLOADS["midgrid"]
    inp = (8, -0.75)    # state 8 of the 2^-5 grid
    out = w.op(w.setup(run.OUT_DIR), inp)
    _assert_rejects(w.check, inp, out, *GRID_MUTATIONS)


def test_grid_check_rejects_perturbed_results():
    inp = (300, (300 - 256) / 256)
    good = {"rc": 0, "doc": {"y0": 300, "sandwich_ok": True, "strong_duality": True,
                             "k_star_y0": grid_k_star(8, inp[1])}}
    _assert_rejects(WORKLOADS["grid"].check, inp, good, *GRID_MUTATIONS)


def test_suite_check_rejects_perturbed_results():
    w = WORKLOADS["suite"]
    out = w.op({}, 0)
    _assert_rejects(w.check, 0, out, _shift("d_y0", 2e-6), _shift("v", 6e-3),
                    _shift("h", -6e-3), _shift("k_star", 6e-3))


def test_discount_check_rejects_perturbed_results():
    w = WORKLOADS["discount"]
    inp = (100, 0.03)
    out = w.op(w.setup(run.OUT_DIR), inp)
    _assert_rejects(w.check, inp, out, _shift("residual", 1e-7),
                    _shift("integral", 1e-7))


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
