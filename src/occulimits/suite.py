"""Seeded random models and plans for the regression and acceptance suites.

Models are small (at most 8 states, 4 controls per state, 3 noise atoms),
every noise atom carries probability at least 0.05 so each realized
transition-row entry is at least 0.05 on its support, and |k| <= 1.
"""

import numpy as np

from .dp import Plan
from .model import FiniteModel

ATOM_FLOOR = 0.05


def random_model(seed, max_states=8, max_controls=4, max_atoms=3):
    """Deterministic random FiniteModel for a given seed."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, max_states + 1))
    n_atoms = int(rng.integers(2, max_atoms + 1))
    raw = rng.dirichlet(np.ones(n_atoms))
    probs = ATOM_FLOOR + (1.0 - n_atoms * ATOM_FLOOR) * raw
    pair_state, pair_control, pair_cost, next_idx = [], [], [], []
    for i in range(n_states):
        n_c = int(rng.integers(1, max_controls + 1))
        pair_state += [i] * n_c
        pair_control += range(n_c)
        for _ in range(n_c):
            pair_cost.append(float(rng.uniform(-1.0, 1.0)))
            next_idx.append([int(rng.integers(0, n_states)) for _ in range(n_atoms)])
    return FiniteModel(np.arange(n_states), pair_state, pair_control, probs, pair_cost, next_idx)


def random_stationary_plan(model, seed, randomized=False):
    """Deterministic random stationary plan for a model: a pair per state,
    or with randomized its pair weights, one Dirichlet draw per state."""
    rng = np.random.default_rng(seed)
    starts = model.state_pair_start.tolist()
    if not randomized:
        sel = np.array([int(rng.integers(a, b)) for a, b in zip(starts, starts[1:])])
        return Plan(kind="stationary_deterministic", selector=sel)
    rows = [rng.dirichlet(np.ones(b - a)) for a, b in zip(starts, starts[1:])]
    return Plan(kind="stationary_randomized",
                selector=np.concatenate([row / row.sum() for row in rows]))
