"""Occupational measures by exact distribution propagation, the measure
metric rho with its finite-set Hausdorff distance, and detection of plans
whose joint state-control law becomes periodic.

No sampling anywhere: state laws are propagated through the transition
tensor, so every measure identity holds to float precision.
"""

import math
import numbers
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .model import eye_minus_law, numeric_array, transition


def check_number(name, value):
    """Refuse with ValueError a value that is not a real number, such as a
    string or None, before an order or range check compares it."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} is not a number")


def check_eps(eps):
    """Refuse with ValueError a discount eps that is not a number, is
    outside (0, 1), or is so small that 1 - eps rounds to 1 and the
    discounted problem loses its discount."""
    check_number("eps", eps)
    if not 0.0 < 1.0 - eps < 1.0:
        raise ValueError(f"eps={eps!r} outside (0, 1), or 1 - eps rounds to 1")


def check_horizon(T, least=1, name="T"):
    """Refuse with ValueError a horizon that is not an integer >= least."""
    if not np.issubdtype(type(T), np.integer):
        raise ValueError(f"{name}={T!r} is not an integer horizon")
    if T < least:
        raise ValueError(f"{name}={T} must be >= {least}")


def check_positive(name, value):
    """Refuse with ValueError a bool or a value that is not a finite positive number."""
    check_number(name, value)
    if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name}={value!r} must be finite and positive")


def check_nonnegative(name, value):
    """Refuse with ValueError a bool or a value that is not a finite number >= 0."""
    check_number(name, value)
    if isinstance(value, bool) or not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name}={value!r} must be finite and nonnegative")


@dataclass
class GMeasure:
    """Nonnegative measure on the graph G, one weight per admissible pair."""

    weights: np.ndarray

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    def integrate(self, table):
        return float(np.asarray(table) @ self.weights)

    def support(self, tol=1e-12):
        return np.nonzero(self.weights > tol)[0]

    def to_json_entries(self, model, tol=1e-12):
        p = self.support(tol)
        return [{"state": y, "control": u, "weight": w}
                for y, u, w in zip(model.states[model.pair_state[p]].tolist(),
                                   model.pair_control[p].tolist(), self.weights[p].tolist())]


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
    weights = None if plan.kind == "staged" else plan.pair_weights(model)  # same at every t
    for t in range(T):
        if t:  # pushed on demand, so no law past the last is pushed
            mu = tensor.push(law)
        law = model.at_pairs(mu) * (plan.pair_weights(model, t) if weights is None else weights)
        yield mu, law


def propagate(model, plan, y0, T):
    """Exact state laws mu_0..mu_T from the point mass at state y0, as the
    rows of a (T+1, n_states) array."""
    check_horizon(T, 0)
    model.check_y0(y0)
    mu = np.zeros((T + 1, model.n_states))
    mu[0, y0] = 1.0
    for t, (mu_t, law) in enumerate(pair_laws(model, plan, y0, T)):
        mu[t] = mu_t
    if T:
        mu[T] = transition(model).push(law)
    return mu


def occupation_measure(model, plan, y0, T):
    """Expected empirical pair distribution over horizon T (total mass 1)."""
    check_horizon(T)
    weights = np.zeros(model.n_pairs)
    for _, law in pair_laws(model, plan, y0, T):
        weights += law
    return GMeasure(weights=weights / T)


def discounted_occupation(model, plan, y0, eps, tail_tol):
    """(1-eps)-geometrically weighted pair distribution, eps-normalized.

    For a stationary plan the discounted state law nu solves
    (I - (1-eps) P_pi^T) nu = eps delta_y0 (one sparse solve) and the pair
    weights are nu(y) pi(u|y), with P_pi the plan's law rows, or for a
    randomized plan W rows: W holds each pair's weight at its state and its
    distinct row, so no row is copied per pair.  A staged plan is summed
    exactly over its stages.  The weights are renormalized to total mass 1.
    tail_tol must be finite and positive but is not read otherwise: neither
    branch truncates a series.
    """
    check_eps(eps)
    check_positive("tail_tol", tail_tol)
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
        tensor = transition(model)
        if plan.kind == "stationary_deterministic":
            p_pi = tensor.law_at(plan.selector)
        else:
            p_pi = sparse.csr_matrix((w, tensor.pair_row, model.state_pair_start),
                                     shape=(model.n_states, tensor.rows.shape[0])) @ tensor.rows
        rhs = np.zeros(model.n_states)
        rhs[y0] = eps
        nu = spsolve(eye_minus_law(p_pi, 1.0 - eps, sparse.csc_matrix), rhs)
        weights = model.at_pairs(nu) * w
    return GMeasure(weights=weights / weights.sum())


def canonical_test_family(model, max_degree=3, max_size=32):
    """Tensor-product monomials in (y, u) of total degree <= max_degree.

    Returns the ordered list of value tables over the admissible pairs,
    enumerated in graded lexicographic order, each normalized to sup-norm 1
    over the pairs; identically-zero monomials are skipped.  Truncated at
    max_size functions.  max_degree must be an integer >= 0 and max_size an
    integer >= 1.
    """
    check_horizon(max_degree, 0, "max_degree")
    check_horizon(max_size, 1, "max_size")
    coords = np.hstack([model.at_pairs(model.states), model.pair_control])
    tables = []
    for total in range(max_degree + 1):
        for expo in sorted((e for e in product(range(total + 1), repeat=coords.shape[1])
                            if sum(e) == total), reverse=True):
            vals = np.prod(coords ** np.array(expo), axis=1)
            sup = np.max(np.abs(vals))
            if sup < 1e-300:
                continue
            tables.append(vals / sup)
            if len(tables) == max_size:
                return tables
    return tables


def rho(g1, g2, fam):
    """Weighted sum of test-function moment gaps, sum_j 2^-j |int q_j d(g1-g2)|;
    numeric_array checks both measures' weights against the tables' shape."""
    if len(fam) == 0:
        raise ValueError("empty test family")
    shape = np.shape(fam[0])
    diff = numeric_array("g1", g1.weights, shape) - numeric_array("g2", g2.weights, shape)
    return float(sum(abs(float(q @ diff)) / 2.0 ** (j + 1)
                     for j, q in enumerate(fam)))


def hausdorff(set_a, set_b, fam):
    """max of the two directed sup-inf rho distances between finite sets."""
    if not set_a or not set_b:
        raise ValueError("hausdorff needs nonempty sets")
    d_ab = max(min(rho(a, b, fam) for b in set_b) for a in set_a)
    d_ba = max(min(rho(b, a, fam) for a in set_a) for b in set_b)
    return max(d_ab, d_ba)


def prg_detect(model, plan, y0, t_max, tol=1e-10):
    """Find the smallest (T0, period) making the joint pair law periodic.

    Scans the exact laws L_t(y,u) = mu_t(y) pi_t(u|y) for the lexicographically
    smallest (T0, period) with T0 + 2*period <= t_max such that
    ||L_{t+period} - L_t||_inf <= tol for every T0 <= t <= t_max - period.
    On a finite grid the indicator test functions span every q, so this is
    sufficient for periodic-regime generation.  Staged plans are cycled.  The
    scan horizon t_max must be an integer >= 2 and tol finite and positive.
    """
    check_horizon(t_max, 2, "t_max")
    check_positive("tol", tol)
    plan.check_against(model)  # before the cycling divides by the stage count
    if plan.kind == "staged":
        plan = replace(plan, selector=[plan.selector[t % plan.n_stages]
                                       for t in range(t_max + 1)])
    laws = np.zeros((t_max + 1, model.n_pairs))
    for t, (_, law) in enumerate(pair_laws(model, plan, y0, t_max + 1)):
        laws[t] = law
    # earliest valid start per period, via suffix maxima of the lag-diffs
    found = []
    for period in range(1, t_max // 2 + 1):
        ok = np.max(np.abs(laws[period:] - laws[:-period]), axis=1) <= tol
        starts = np.flatnonzero(np.flip(np.logical_and.accumulate(np.flip(ok))))
        if len(starts) and starts[0] + 2 * period <= t_max:
            found.append((int(starts[0]), period))
    if not found:
        return PrgReport(is_prg=False)
    T0, period = min(found)
    return PrgReport(is_prg=True, T0=T0, period=period)
