"""Occupational measures by exact distribution propagation, the measure
metric rho with its finite-set Hausdorff distance, and detection of plans
whose joint state-control law becomes periodic.

No sampling anywhere: state laws are propagated through the transition
tensor, so every measure identity holds to float precision.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .model import transition
from .programs import GMeasure


@dataclass
class DistributionPath:
    """State laws mu[t], t = 0..T, under a plan started from a point mass."""

    mu: np.ndarray  # (T+1, n_states)


@dataclass
class TestFamily:
    """Ordered value tables over admissible pairs, each with sup-norm <= 1."""

    tables: list

    def __len__(self):
        return len(self.tables)


@dataclass
class PrgReport:
    is_prg: bool
    T0: int | None = None
    period: int | None = None


def pair_laws(model, plan, y0, T):
    """Yield (mu_t, L_t), t = 0..T-1: the exact state law from the point mass at
    y0 and the pair law L_t(y,u) = mu_t(y) pi_t(u|y), with mu_{t+1} = push(L_t)."""
    plan.check_against(model)
    model.check_y0(y0)
    tensor = transition(model)
    mu = np.zeros(model.n_states)
    mu[y0] = 1.0
    for t in range(T):
        if t:  # pushed on demand, so no law past the last is pushed
            mu = tensor.push(law)
        law = mu[model.pair_state] * plan.pair_weights(model, t)
        yield mu, law


def propagate(model, plan, y0, T):
    """Exact state laws mu_0..mu_T from the point mass at state y0."""
    model.check_y0(y0)
    mu = np.zeros((T + 1, model.n_states))
    mu[0, y0] = 1.0
    for t, (mu_t, law) in enumerate(pair_laws(model, plan, y0, T)):
        mu[t] = mu_t
    if T:
        mu[T] = transition(model).push(law)
    return DistributionPath(mu=mu)


def occupation_measure(model, plan, y0, T):
    """Expected empirical pair distribution over horizon T (total mass 1)."""
    weights = np.zeros(model.n_pairs)
    for _, law in pair_laws(model, plan, y0, T):
        weights += law
    return GMeasure(weights=weights / T)


def discounted_occupation(model, plan, y0, eps, tail_tol):
    """(1-eps)-geometrically weighted pair distribution, eps-normalized.

    For a stationary plan the discounted state law nu solves
    (I - (1-eps) P_pi^T) nu = eps delta_y0 (one sparse solve) and the pair
    weights are nu(y) pi(u|y); a staged plan is summed exactly over its
    stages.  The weights are renormalized to total mass 1.  tail_tol must be
    positive but is not read otherwise: neither branch truncates a series.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps={eps!r} outside (0, 1)")
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    model.check_y0(y0)
    if plan.kind == "staged":
        weights = np.zeros(model.n_pairs)
        coeff = eps
        for _, law in pair_laws(model, plan, y0, plan.n_stages):
            weights += coeff * law
            coeff *= 1.0 - eps
    else:
        plan.check_against(model)
        w = plan.pair_weights(model)
        rhs = np.zeros(model.n_states)
        rhs[y0] = eps
        nu = spsolve((sparse.identity(model.n_states, format="csr")
                      - (1.0 - eps) * transition(model).plan_matrix(w)).T, rhs)
        weights = nu[model.pair_state] * w
    return GMeasure(weights=weights / weights.sum())


def canonical_test_family(model, max_degree=3, max_size=32):
    """Tensor-product monomials in (y, u) of total degree <= max_degree.

    Enumerated in graded lexicographic order, each table normalized by its
    sup-norm over the admissible pairs; identically-zero monomials are
    skipped.  Truncated at max_size functions.
    """
    d_y = len(model.states[0].coords)
    d_u = len(model.controls[0][0])
    y_table = np.array([model.states[int(s)].coords for s in model.pair_state])
    u_table = np.array([model.control_value(int(model.pair_state[p]), int(model.pair_local[p]))
                        for p in range(model.n_pairs)])
    coords = np.hstack([y_table, u_table])  # (n_pairs, d_y + d_u)
    d = d_y + d_u
    tables = []
    for total in range(max_degree + 1):
        for expo in sorted((e for e in product(range(total + 1), repeat=d)
                            if sum(e) == total), reverse=True):
            vals = np.prod(coords ** np.array(expo), axis=1)
            sup = np.max(np.abs(vals))
            if sup < 1e-300:
                continue
            tables.append(vals / sup)
            if len(tables) == max_size:
                return TestFamily(tables=tables)
    return TestFamily(tables=tables)


def rho(g1, g2, fam):
    """Weighted sum of test-function moment gaps, sum_j 2^-j |int q_j d(g1-g2)|."""
    if len(fam) == 0:
        raise ValueError("empty test family")
    diff = np.asarray(g1.weights) - np.asarray(g2.weights)
    return float(sum(abs(float(q @ diff)) / 2.0 ** (j + 1)
                     for j, q in enumerate(fam.tables)))


def hausdorff(set_a, set_b, fam):
    """max of the two directed sup-inf rho distances between finite sets."""
    if not set_a or not set_b:
        raise ValueError("hausdorff needs nonempty sets")
    d_ab = max(min(rho(a, b, fam) for b in set_b) for a in set_a)
    d_ba = max(min(rho(b, a, fam) for a in set_a) for b in set_b)
    return max(d_ab, d_ba)


def check_prg_horizon(t_max):
    """Refuse a periodicity scan horizon below 2 with ValueError."""
    if t_max < 2:
        raise ValueError(f"t_max={t_max} must be at least 2")


def prg_detect(model, plan, y0, t_max, tol=1e-10):
    """Find the smallest (T0, period) making the joint pair law periodic.

    Scans the exact laws L_t(y,u) = mu_t(y) pi_t(u|y) for the lexicographically
    smallest (T0, period) with T0 + 2*period <= t_max such that
    ||L_{t+period} - L_t||_inf <= tol for every T0 <= t <= t_max - period.
    On a finite grid the indicator test functions span every q, so this is
    sufficient for periodic-regime generation.  Staged plans are cycled.
    """
    check_prg_horizon(t_max)
    plan.check_against(model)  # before the cycling divides by the stage count
    if plan.kind == "staged":
        plan = replace(plan, selector=[plan.selector[t % plan.n_stages]
                                       for t in range(t_max + 1)])
    laws = np.zeros((t_max + 1, model.n_pairs))
    for t, (_, law) in enumerate(pair_laws(model, plan, y0, t_max + 1)):
        laws[t] = law
    # earliest valid start per period, via suffix maxima of the lag-diffs
    best = None
    for period in range(1, t_max // 2 + 1):
        diffs = np.max(np.abs(laws[period:] - laws[:-period]), axis=1)
        ok = diffs <= tol
        suffix_ok = np.flip(np.logical_and.accumulate(np.flip(ok)))
        starts = np.nonzero(suffix_ok)[0]
        if len(starts) and starts[0] + 2 * period <= t_max:
            cand = (int(starts[0]), period)
            if best is None or cand < best:
                best = cand
    if best is None:
        return PrgReport(is_prg=False)
    return PrgReport(is_prg=True, T0=best[0], period=best[1])
