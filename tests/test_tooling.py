"""Checks on what other code relies on by name or by seed.

The benchmark harness (perfbench/) wraps library attributes by name, and
pytest.ini collects only tests/, so a rename that drops one of those names
must fail here rather than only in a traced benchmark run.  Tests and notes
name seeded suite models by their seed, so the suite's models are pinned by
digest."""

import hashlib
import importlib.util
from pathlib import Path

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
