"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's solution paths: basic-feasible-point
enumeration for LPs, deterministic-policy enumeration with per-class
stationary distributions for the stationary LP value, exhaustive
noise-sequence expansion for short-horizon plan values, value iteration for
h_eps, and the truncated geometric series for discounted occupations.
The reference models rebuild the two examples pair by pair with Python
scalars, as the vectorized builders must reproduce bit for bit.
"""

import math
from itertools import combinations, product

import numpy as np

from occulimits.model import FiniteModel, NoiseAtom, StatePoint, transition


def with_cost(model, pair_cost):
    """The dynamics model with its per-pair cost replaced."""
    return FiniteModel(model.states, model.controls, model.noise, pair_cost,
                       transition(model).next_idx, initial_index=model.initial_index)


def _reference_sign_flip_model(values, initial_index=None):
    states = [StatePoint((v,), i) for i, v in enumerate(values)]
    controls = [[(-1.0,), (1.0,)] for _ in values]
    noise = [NoiseAtom(0, 0.75), NoiseAtom(1, 0.25)]  # s=+1, s=-1
    s_vals = {0: 1.0, 1: -1.0}
    pair_cost, next_idx = [], []
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            pair_cost.append(y)
            next_idx.append([values.index(y * u * s_vals[atom.id]) for atom in noise])
    return FiniteModel(states, controls, noise, pair_cost, next_idx,
                       initial_index=initial_index)


def reference_example1_model(y0):
    values = [-abs(y0), abs(y0)]
    return _reference_sign_flip_model(values, initial_index=values.index(y0))


def reference_example1_family_model(y0s):
    mags = sorted({abs(y) for y in y0s})
    return _reference_sign_flip_model(sorted({v for m in mags for v in (-m, m)}))


def _snap_dyadic(value, step):
    """Nearest multiple of step, ties toward 0, never onto or across 0."""
    if value == 0.0:
        return 0.0
    mag = abs(value) / step
    k = math.floor(mag + 0.5)
    if k - mag == 0.5:  # exact tie, round toward 0
        k -= 1
    if k == 0:
        k = 1
    return math.copysign(k * step, value)


def reference_example2_model(m, control_step=None):
    step = 2.0 ** (-m)
    if control_step is None:
        control_step = step
    n_half = 2 ** m
    values = [i * step for i in range(-n_half, n_half + 1)]
    index_of = {v: i for i, v in enumerate(values)}
    states = [StatePoint((v,), i) for i, v in enumerate(values)]

    def control_list(y):
        if y < 0:
            lo, hi = -1.0, y
        elif y > 0:
            lo, hi = y, 1.0
        else:
            lo, hi = -1.0, 1.0
        k_lo = math.ceil(lo / control_step - 1e-12)
        k_hi = math.floor(hi / control_step + 1e-12)
        us = {k * control_step for k in range(k_lo, k_hi + 1)}
        us.update((lo, hi, y))
        return [(u,) for u in sorted(us)]

    controls = [control_list(v) for v in values]
    noise = [NoiseAtom(0, 0.5), NoiseAtom(1, 0.5)]  # s=1, s=1/4
    s_vals = {0: 1.0, 1: 0.25}
    pair_cost, next_idx = [], []
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            pair_cost.append(y)
            next_idx.append([index_of[_snap_dyadic(u * s_vals[atom.id], step)]
                             for atom in noise])
    return FiniteModel(states, controls, noise, pair_cost, next_idx)


def bfs_enumeration_optimum(c, A, b, feas_tol=1e-9):
    """Optimal value of min c'x, Ax=b, x>=0 by enumerating basic solutions."""
    m, n = A.shape
    cols_list = list(combinations(range(n), m))
    bases = np.stack([A[:, cols] for cols in cols_list])
    dets = np.linalg.det(bases)
    col_norms = np.maximum(np.linalg.norm(bases, axis=1), 1e-30)  # (K, m)
    scale = np.prod(col_norms, axis=1)
    keep = np.abs(dets) > 1e-9 * scale
    best = np.inf
    if keep.any():
        rhs = np.broadcast_to(np.asarray(b)[:, None], (int(keep.sum()), m, 1))
        sols = np.linalg.solve(bases[keep], rhs)[:, :, 0]
        feas = np.all(sols >= -feas_tol, axis=1)
        kept_cols = [cols for cols, k in zip(cols_list, keep) if k]
        for cols, x_b, ok in zip(kept_cols, sols, feas):
            if ok:
                best = min(best, float(c[list(cols)] @ x_b))
    return best


def _recurrent_classes(P):
    """Recurrent classes of a stochastic matrix via reachability closure."""
    n = P.shape[0]
    closure = ((P > 1e-15) | np.eye(n, dtype=bool)).astype(int)
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        closure = ((closure @ closure) > 0).astype(int)
    classes = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        members = set(np.nonzero(closure[i] & closure[:, i])[0].tolist())
        # a communicating class is recurrent iff it cannot reach outside itself
        if all(set(np.nonzero(closure[j])[0].tolist()) <= members for j in members):
            classes.append(sorted(members))
        seen |= members
    return classes


def _class_average(P, costs, members):
    sub = P[np.ix_(members, members)]
    n = len(members)
    lhs = np.vstack([sub.T - np.eye(n), np.ones(n)])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    nu, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return float(nu @ costs[members])


def stationary_average_oracle(model):
    """min over deterministic stationary policies and their recurrent classes
    of the long-run average cost; equals the stationary LP value."""
    tensor = transition(model)
    rows = np.stack([tensor.row(p) for p in range(model.n_pairs)])
    best = np.inf
    for choice in product(*[range(len(cs)) for cs in model.controls]):
        pairs = [model.pair_index(i, l) for i, l in enumerate(choice)]
        P = rows[pairs]
        costs = model.pair_cost[pairs]
        for members in _recurrent_classes(P):
            best = min(best, _class_average(P, costs, members))
    return best


def brute_force_finite_horizon(model, y0, T):
    """min over all staged deterministic plans of the exact T-stage average,
    by expanding every noise sequence."""
    tensor = transition(model)
    n_atoms = len(model.noise)
    probs = [a.prob for a in model.noise]
    sels = list(product(*[range(len(cs)) for cs in model.controls]))
    best = np.inf
    for stages in product(sels, repeat=T):
        total = 0.0
        for seq in product(range(n_atoms), repeat=T):
            p_seq = 1.0
            y = y0
            cost = 0.0
            for t in range(T):
                local = stages[t][y]
                pair = model.pair_index(y, local)
                cost += model.pair_cost[pair]
                p_seq *= probs[seq[t]]
                y = int(tensor.next_idx[pair, seq[t]])
            total += p_seq * cost
        best = min(best, total / T)
    return best


def value_iteration(model, eps, tol=1e-10, max_sweeps=5_000_000):
    """Reference h_eps by value iteration from h = 0, stopped once the
    successive sup-norm change is <= tol*eps (fixed-point error <= tol by
    the (1-eps) contraction); returns (h, lowest-index greedy selector)."""
    tensor = transition(model)
    k_eps = eps * model.pair_cost
    starts = model.state_pair_start[:-1]
    h = np.zeros(model.n_states)
    for _ in range(max_sweeps):
        h_new = np.minimum.reduceat(k_eps + (1.0 - eps) * tensor.expect(h), starts)
        delta = np.max(np.abs(h_new - h))
        h = h_new
        if delta <= tol * eps:
            break
    else:
        raise RuntimeError("value iteration failed to converge within the sweep cap")
    q = k_eps + (1.0 - eps) * tensor.expect(h)
    vmin = np.minimum.reduceat(q, starts)
    cand = np.where(q <= vmin[model.pair_state], model.pair_local, model.n_pairs + 1)
    return h, np.minimum.reduceat(cand, starts)


def truncated_discounted_occupation(model, plan, y0, eps, tail_tol):
    """Reference discounted occupation of a stationary plan: the geometric
    series eps sum_t (1-eps)^t L_t of its pair laws, truncated once the
    remaining tail mass (1-eps)^(t+1) drops below tail_tol, renormalized."""
    tensor = transition(model)
    w = plan.pair_weights(model)
    mu = np.zeros(model.n_states)
    mu[y0] = 1.0
    weights = np.zeros(model.n_pairs)
    coeff = eps
    t = 0
    while True:
        pair_mass = mu[model.pair_state] * w
        weights += coeff * pair_mass
        if (1.0 - eps) ** (t + 1) < tail_tol:
            return weights / weights.sum()
        mu = tensor.push(pair_mass)
        coeff *= 1.0 - eps
        t += 1
