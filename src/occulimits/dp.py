"""Dynamic-programming oracles: finite-horizon average values v_T, discounted
values h_eps, greedy plan extraction from a potential, and exact plan
evaluation.

All argmins break ties by lowest control index, so every run is
deterministic.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from . import measures
from .model import transition
from .programs import SolverError

DEFAULT_TOL = 1e-10
PI_ITERATION_CAP = 1000
# a control is replaced only when the new one is better by more than this
# relative margin, so float noise in the solve cannot make plans cycle
IMPROVEMENT_TOL = 1e-13


@dataclass
class ValueFunction:
    """A value per state, in cost units."""

    values: np.ndarray


@dataclass
class Plan:
    """A control plan.

    kind 'stationary_deterministic': selector is an int array with the chosen
    local control index per state.  kind 'stationary_randomized': selector is
    a per-state list of probability rows over that state's control list.
    kind 'staged': selector is a list of per-stage deterministic selectors,
    indexed by stage t = 0..T-1.
    """

    kind: str
    selector: object

    def check_against(self, model):
        sizes = [len(cs) for cs in model.controls]
        if self.kind == "stationary_deterministic":
            sel = np.asarray(self.selector)
            if sel.shape != (model.n_states,) or np.any(sel < 0) or np.any(sel >= sizes):
                raise ValueError("plan/model mismatch: bad deterministic selector")
        elif self.kind == "stationary_randomized":
            if len(self.selector) != model.n_states:
                raise ValueError("plan/model mismatch: one probability row per state required")
            for i, row in enumerate(self.selector):
                row = np.asarray(row)
                if row.shape != (sizes[i],) or not np.all(np.isfinite(row)) or np.any(row < 0):
                    raise ValueError(f"plan/model mismatch: bad probability row at state {i}")
                if abs(row.sum() - 1.0) > 1e-12:
                    raise ValueError(f"plan/model mismatch: row at state {i} sums to {row.sum()!r}")
        elif self.kind == "staged":
            if len(self.selector) == 0:
                raise ValueError("plan/model mismatch: a staged plan needs at least one stage")
            for sel in self.selector:
                sel = np.asarray(sel)
                if sel.shape != (model.n_states,) or np.any(sel < 0) or np.any(sel >= sizes):
                    raise ValueError("plan/model mismatch: bad staged selector")
        else:
            raise ValueError(f"unknown plan kind {self.kind!r}")

    @property
    def n_stages(self):
        """Number of distinct stages: the selector length of a staged plan, 1
        for a stationary one."""
        return len(self.selector) if self.kind == "staged" else 1

    def pair_weights(self, model, t=0):
        """Conditional probability pi_t(u|y) laid out per admissible pair; a
        stationary plan has the same weights at every stage t."""
        if self.kind == "stationary_randomized":
            return np.concatenate([np.asarray(row, dtype=float) for row in self.selector])
        if self.kind == "stationary_deterministic":
            sel = np.asarray(self.selector)
        elif t < self.n_stages:
            sel = np.asarray(self.selector[t])
        else:
            raise ValueError(f"staged plan of length {self.n_stages} is shorter "
                             f"than the {t + 1} stages asked for")
        w = np.zeros(model.n_pairs)
        w[model.state_pair_start[:-1] + sel] = 1.0
        return w


def _group_min(model, q):
    starts = model.state_pair_start[:-1]
    vmin = np.minimum.reduceat(q, starts)
    # lowest admissible control index among the minimizers
    cand = np.where(q <= vmin[model.pair_state], model.pair_local, model.n_pairs + 1)
    sel = np.minimum.reduceat(cand, starts)
    return vmin, sel.astype(np.int64)


def finite_horizon_values(model, T):
    """Backward recursion T v_T(y) = min_u {k(y,u) + (T-1) E[v_{T-1}(f(y,u,s))]}.

    Returns the whole curve v_1..v_T (one ValueFunction per horizon) and the
    staged argmin plan, whose forward evaluation reproduces v_T exactly.
    """
    if T < 1:
        raise ValueError(f"T={T} must be >= 1")
    tensor = transition(model)
    k = model.pair_cost
    v_prev = np.zeros(model.n_states)
    curve = []
    argmins = []
    for tau in range(1, T + 1):
        q = k + (tau - 1) * tensor.expect(v_prev)
        vmin, sel = _group_min(model, q)
        v_prev = vmin / tau
        curve.append(ValueFunction(values=v_prev))
        argmins.append(sel)
    plan = Plan(kind="staged", selector=list(reversed(argmins)))
    return curve, plan


def discounted_values(model, eps, tol=DEFAULT_TOL):
    """Howard policy iteration for h(y) = min_u {eps k(y,u) + (1-eps) E[h(f(y,u,s))]}.

    Starts from the greedy plan for eps*k and evaluates each plan pi with one
    sparse solve of (I - (1-eps) P_pi) h = eps k_pi; a state switches control
    only on strict improvement.  Returns h and the greedy stationary plan of
    the final h, after certifying the Bellman residual
    max_y |min_u q(y,u) - h(y)| <= tol*eps, which bounds the fixed-point error
    by tol through the (1-eps) contraction.  Raises SolverError when the
    certificate fails or the iteration cap is hit.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps={eps!r} outside (0, 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    tensor = transition(model)
    k_eps = eps * model.pair_cost
    decay = 1.0 - eps
    starts = model.state_pair_start[:-1]
    eye = sparse.identity(model.n_states, format="csr")
    _, sel = _group_min(model, k_eps)
    for _ in range(PI_ITERATION_CAP):
        pairs = starts + sel
        p_pi = tensor.plan_matrix(Plan("stationary_deterministic", sel).pair_weights(model))
        h = spsolve(eye - decay * p_pi, k_eps[pairs])
        q = k_eps + decay * tensor.expect(h)
        vmin, best = _group_min(model, q)
        improve = vmin < q[pairs] - IMPROVEMENT_TOL * (1.0 + np.abs(h))
        if not improve.any():
            break
        sel = np.where(improve, best, sel)
    else:
        raise SolverError(f"policy iteration (eps={eps}) hit its cap of "
                          f"{PI_ITERATION_CAP} improvement rounds")
    residual = float(np.max(np.abs(vmin - h)))
    if not residual <= tol * eps:
        raise SolverError(f"policy iteration (eps={eps}): Bellman residual "
                          f"{residual:.3e} exceeds tol*eps={tol * eps:.3e}")
    return ValueFunction(values=h), Plan(kind="stationary_deterministic", selector=best)


def greedy_feedback_from_eta(model, eta):
    """u^f(y) = argmin_u {k(y,u) + E[eta(f(y,u,s))]}, lowest-index ties."""
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    tensor = transition(model)
    _, sel = _group_min(model, model.pair_cost + tensor.expect(eta))
    return Plan(kind="stationary_deterministic", selector=sel)


def evaluate_plan_average(model, plan, y0, T):
    """Exact T-stage expected average cost of a plan from state y0.

    Computed by distribution propagation: (1/T) sum_t sum_(y,u)
    mu_t(y) pi_t(u|y) k(y,u).
    """
    return sum(float(law @ model.pair_cost)
               for _, law in measures.pair_laws(model, plan, y0, T)) / T


def value_curve_csv_rows(model, curve, parameters=None):
    """Flatten value functions into (parameter, state label, value) rows.

    parameters defaults to the horizon index 1..T; pass the eps list when
    exporting a discounted sweep.
    """
    if parameters is None:
        parameters = range(1, len(curve) + 1)
    rows = []
    for param, vf in zip(parameters, curve):
        for i, sp in enumerate(model.states):
            label = ",".join(repr(c) for c in sp.coords)
            rows.append((param, label, float(vf.values[i])))
    return rows


def evaluate_plan_discounted(model, plan, y0, eps, tail_tol=1e-12):
    """Normalized expected discounted cost of a plan, via its discounted
    occupational measure (identity between the cost series and the measure
    integral).  Exact for both plan kinds; tail_tol is only validated, see
    measures.discounted_occupation."""
    gamma_d = measures.discounted_occupation(model, plan, y0, eps, tail_tol)
    return float(gamma_d.weights @ model.pair_cost)
