"""Checks on what other code relies on by name or by seed.

The benchmark harness (perfbench/) wraps library attributes by name, and
pytest.ini collects only tests/, so a rename that drops one of those names
must fail here rather than only in a traced benchmark run.  Tests and notes
name seeded suite models by their seed, so the suite's models are pinned by
digest."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from occulimits import cli, dp, programs
from occulimits.model import FiniteModel, example2_model, transition
from occulimits.suite import random_model

from _oracles import no_policy_iteration

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _load_tracing()
    missing = [span for owner, attr, span in tracing.TARGETS if attr not in vars(owner)]
    assert missing == [], f"perfbench/tracing.py wraps names the library lacks: {missing}"
    assert tracing.is_clean()


def test_lp_size_reads_the_model():
    # perfbench sizes each traced LP from n_pairs and len(model.noise)
    tracing = _load_tracing()
    m = example2_model(3)
    assert len(m.noise) == 2
    assert tracing._lp_size("augmented_lp", m) == (2 * m.n_pairs,
                                                   4 * m.n_pairs + 2 * 2 * m.n_pairs)
    kernel = FiniteModel(states=[0.0], controls=[[0.0]], noise=[], pair_cost=[1.0],
                         kernel=[[1.0]])
    assert len(kernel.noise) == 0


def test_every_measure_lp_calls_programs_linprog(monkeypatch):
    # perfbench wraps programs.linprog as its HiGHS span and the CLI tests
    # patch it, so every HiGHS solve of a measure LP must go through that
    # name: none when the solution is constructed from policy iteration, one
    # for the discounted LP, for a theta and for a forced fallback
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(programs, "linprog", counted)
    m = random_model(3)
    solves = {"stationary_lp": lambda: programs.stationary_lp(m),
              "discounted_stationary_lp": lambda: programs.discounted_stationary_lp(m, 0.1, 0),
              "augmented_lp": lambda: programs.augmented_lp(m, 0),
              "augmented_lp_theta": lambda: programs.augmented_lp(
                  m, 0, theta=np.zeros(m.n_pairs))}

    def counts():
        out = {}
        for name, solve in solves.items():
            calls.clear()
            solve()
            out[name] = len(calls)
        return out

    assert counts() == {"stationary_lp": 0, "discounted_stationary_lp": 1,
                        "augmented_lp": 0, "augmented_lp_theta": 1}
    monkeypatch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
    assert counts() == dict.fromkeys(solves, 1)


def test_bounds_at_m7_makes_no_lp_call(tmp_path, monkeypatch):
    # the README's heaviest command answers both LPs by construction; a
    # regression to HiGHS on this path shows up here as a linprog call
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(programs, "linprog", counted)
    out = tmp_path / "bounds.json"
    code = cli.main(["bounds", "--builtin", "example2", "--m", "7", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(out)])
    assert code == 0 and calls == []


def test_bounds_solves_policy_iteration_once(tmp_path, monkeypatch):
    # bounds needs k*(y0) and k*; both LPs are built from one solve
    calls = []
    solve = dp.average_cost_policy_iteration

    def counted(model):
        calls.append(1)
        return solve(model)

    monkeypatch.setattr(dp, "average_cost_policy_iteration", counted)
    code = cli.main(["bounds", "--builtin", "example2", "--m", "5", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(tmp_path / "bounds.json")])
    assert code == 0 and len(calls) == 1


# sha256 of the arrays below over suite seeds 0..1999
SUITE_DIGEST = "b52f1cadc352239db855ad287a536c76ad8eab8cb7bda9be7d46f352e4b0eed3"


def test_suite_models_are_pinned():
    digest = hashlib.sha256()
    for seed in range(2000):
        m = random_model(seed)
        tensor = transition(m)
        for part in (m.pair_cost, tensor.next_idx, tensor.P.indptr, tensor.P.indices,
                     tensor.P.data, m.states, m.state_pair_start, m.pair_control, m.noise):
            digest.update(part.dtype.str.encode())
            digest.update(part.tobytes())
    assert digest.hexdigest() == SUITE_DIGEST
