"""Checks on what other code relies on by name or by seed.

The benchmark harness (perfbench/) wraps library attributes by name, and
pytest.ini collects only tests/, so a rename that drops one of those names
must fail here rather than only in a traced benchmark run.  Tests and notes
name seeded suite models by their seed, so the suite's models are pinned by
digest."""

import hashlib
import importlib.util
from pathlib import Path

from occulimits import programs
from occulimits.model import transition
from occulimits.suite import random_model

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


def test_every_measure_lp_calls_programs_linprog(monkeypatch):
    # perfbench wraps programs.linprog as its HiGHS span and the CLI tests
    # patch it, so every measure LP must reach HiGHS through that name
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(programs, "linprog", counted)
    m = random_model(3)
    solves = {"stationary_lp": lambda: programs.stationary_lp(m),
              "discounted_stationary_lp": lambda: programs.discounted_stationary_lp(m, 0.1, 0),
              "augmented_lp": lambda: programs.augmented_lp(m, 0)}
    counts = {}
    for name, solve in solves.items():
        calls.clear()
        solve()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(solves, 1)


# sha256 of the arrays and reprs below over suite seeds 0..1999
SUITE_DIGEST = "e9c76aa98688ecb39e294dd288f38321d19764608ffcfecd2eb828984fd04df6"


def test_suite_models_are_pinned():
    digest = hashlib.sha256()
    for seed in range(2000):
        m = random_model(seed)
        tensor = transition(m)
        for part in (m.pair_cost, tensor.next_idx, tensor.P.indptr, tensor.P.indices,
                     tensor.P.data):
            digest.update(part.dtype.str.encode())
            digest.update(part.tobytes())
        digest.update(repr((m.controls, m.noise)).encode())
    assert digest.hexdigest() == SUITE_DIGEST
