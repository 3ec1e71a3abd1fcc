"""Measure linear programs over a finite model: the stationary LP (k*), the
eps-discounted stationary LP (k*(eps, y0)), and the augmented two-layer LP
(k*(y0), optionally perturbed by a nonnegative xi-cost theta), together with
the dual certificate (mu, psi, eta).

Constraints use the per-state indicator basis, which is complete on a finite
grid, so the balance equations are exact:

    stationary      gamma_1(y') = sum P(y'|y,u) gamma(y,u),  sum gamma = 1
    discounted      gamma_1(y') = (1-eps) sum P(y'|y,u) gamma(y,u) + eps 1{y'=y0}
    augmented       stationary block for gamma, plus
                    xi_1(y') - sum P(y'|y,u) xi(y,u) + gamma_1(y') = 1{y'=y0}

With E the pair-to-state marginal block and B = E - decay P^T the balance
block, the matrices are [B; 1'] (decay 1), B (decay 1-eps) and
[[B, 0], [1', 0], [E, B]] (decay 1).

Every program is solved by scipy's HiGHS on a sparse matrix, and its primal
and dual are accepted only after lp_core's five optimality conditions hold.
Dual sign conventions are fixed so the certificate satisfies the inequality
families

    k(y,u) + (psi(y0) - psi(y)) + E[eta(f(y,u,s))] - eta(y) - mu >= 0
    E[psi(f(y,u,s))] - psi(y) >= -theta(y,u)

literally; the certificate is re-checked post-solve rather than trusted.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import lp_core
from .model import transition

CERT_TOL = 1e-7


class SolverError(RuntimeError):
    """LP backend failure or an infeasible/unbounded measure program."""


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
class DualCertificate:
    """Triplet (mu, psi, eta) feasible for the augmented dual."""

    mu: float
    psi: np.ndarray
    eta: np.ndarray

    def slacks(self, model, y0, theta=None):
        """Per-pair slack of each certificate inequality family:
        k + (psi(y0) - psi(y)) + E[eta(f)] - eta(y) - mu and
        E[psi(f)] - psi(y) + theta(y,u)."""
        model.check_y0(y0)
        if np.shape(self.psi) != (model.n_states,) or np.shape(self.eta) != (model.n_states,):
            raise ValueError(f"psi and eta need shape ({model.n_states},), have "
                             f"{np.shape(self.psi)} and {np.shape(self.eta)}")
        tensor, s = transition(model), model.pair_state
        theta_pair = np.zeros(model.n_pairs) if theta is None else np.asarray(theta, dtype=float)
        return (model.pair_cost + (self.psi[y0] - self.psi[s])
                + tensor.expect(self.eta) - self.eta[s] - self.mu,
                tensor.expect(self.psi) - self.psi[s] + theta_pair)

    def violations(self, model, y0, theta=None):
        """Worst violation of each certificate inequality family."""
        return tuple(worst_violation(slack) for slack in self.slacks(model, y0, theta))


def worst_violation(slack):
    """How far the least slack falls below 0 (0 when none does)."""
    return float(max(0.0, -slack.min(initial=0.0)))


@dataclass
class ProgramResult:
    """Solved measure program: value, optimizers and dual objects."""

    optimal_value: float
    gamma: GMeasure
    xi: GMeasure | None
    dual: DualCertificate | None
    status: str = "optimal"

    def to_json_dict(self, model):
        doc = {
            "value": self.optimal_value,
            "status": self.status,
            "gamma": self.gamma.to_json_entries(model),
        }
        if self.xi is not None:
            doc["xi"] = self.xi.to_json_entries(model)
            doc["xi_mass"] = self.xi.total_mass
        if self.dual is not None:
            doc["dual"] = {"mu": self.dual.mu,
                           "psi": list(map(float, self.dual.psi)),
                           "eta": list(map(float, self.dual.eta))}
        return doc


def _balance_blocks(model, decay):
    """The pair-to-state marginal block E (n_states x n_pairs, a 1 at each
    pair's state) and the balance block B = E - decay P^T, whose rows are
    "state marginal minus decay times pushed mass"."""
    n_pairs = model.n_pairs
    # CSC like P^T: column p holds its single 1 at row pair_state[p]
    E = sparse.csc_matrix((np.ones(n_pairs), model.pair_state, np.arange(n_pairs + 1)),
                          shape=(model.n_states, n_pairs))
    return E, E - decay * transition(model).P.T


def _solve_equalities(c, A, b, context):
    """min c'x, A x = b, x >= 0 for a sparse A; returns (x, y, objective).

    HiGHS solves the LP, and lp_core.certified_solution accepts its primal x
    and duals y (c - A'y >= 0 at the optimum) only under the certificate.
    """
    A = A.tocsc()
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                  options=lp_core.HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverError(f"{context}: HiGHS reported {res.message!r}")
    try:
        sol = lp_core.certified_solution(lp_core.LinearProgram(c=c, A=A, b=b), res)
    except lp_core.LpError as exc:
        raise SolverError(f"{context}: HiGHS ({A.shape[0]}x{A.shape[1]}): {exc}") from exc
    return sol.x, sol.y_dual, sol.objective


def stationary_lp(model):
    """min int k dgamma over the stationary set W; returns k* and a dual.

    The returned certificate has psi = 0 (the stationary problem's dual only
    involves eta and the scalar mu).
    """
    n = model.n_states
    _, B = _balance_blocks(model, 1.0)
    b = np.zeros(n + 1)
    b[n] = 1.0
    x, y, obj = _solve_equalities(model.pair_cost,
                                  sparse.vstack([B, np.ones((1, model.n_pairs))]),
                                  b, "stationary LP")
    cert = DualCertificate(mu=float(y[n]), psi=np.zeros(n), eta=np.array(y[:n]))
    _require_certificate(cert, model, 0, None, "stationary LP")
    return ProgramResult(optimal_value=obj, gamma=GMeasure(x), xi=None, dual=cert)


def discounted_stationary_lp(model, eps, y0):
    """min int k dgamma over W(eps, y0); the value equals the DP oracle h_eps(y0)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps={eps!r} outside (0, 1)")
    model.check_y0(y0)
    _, B = _balance_blocks(model, 1.0 - eps)
    b = np.zeros(model.n_states)
    b[y0] = eps
    x, _, obj = _solve_equalities(model.pair_cost, B, b,
                                  f"discounted LP (eps={eps}, y0={y0})")
    return ProgramResult(optimal_value=obj, gamma=GMeasure(x), xi=None, dual=None)


def augmented_lp(model, y0, theta=None):
    """Two-layer LP over Omega(y0): min int k dgamma (+ int theta dxi).

    Block 1 is gamma-stationarity with normalization, block 2 anchors the
    deviation measure xi at the initial state.  The dual multipliers are read
    off as eta (block 1), psi (block 2) and mu (normalization row shifted by
    psi(y0)), and the resulting certificate is verified before returning.
    """
    model.check_y0(y0)
    n, n_pairs = model.n_states, model.n_pairs
    theta_pair = None
    if theta is not None:
        theta_pair = np.asarray(theta, dtype=float)
        if theta_pair.shape != (n_pairs,):
            raise ValueError(f"theta must have one entry per admissible pair "
                             f"({n_pairs}), got shape {theta_pair.shape}")
        if theta_pair.min(initial=0.0) < 0 or not np.all(np.isfinite(theta_pair)):
            raise ValueError("theta must be nonnegative and bounded")
    E, B = _balance_blocks(model, 1.0)
    A = sparse.bmat([[B, None], [np.ones((1, n_pairs)), None], [E, B]])
    b = np.zeros(2 * n + 1)
    b[n] = 1.0
    b[n + 1 + y0] = 1.0
    c = np.concatenate([model.pair_cost,
                        np.zeros(n_pairs) if theta_pair is None else theta_pair])
    x, y, obj = _solve_equalities(c, A, b, f"augmented LP (y0={y0})")
    eta = np.array(y[:n])
    psi = np.array(y[n + 1:])
    cert = DualCertificate(mu=float(y[n] + psi[y0]), psi=psi, eta=eta)
    _require_certificate(cert, model, y0, theta_pair, f"augmented LP (y0={y0})")
    return ProgramResult(optimal_value=obj, gamma=GMeasure(x[:n_pairs]),
                         xi=GMeasure(x[n_pairs:]), dual=cert)


def _require_certificate(cert, model, y0, theta_pair, context):
    v1, v2 = cert.violations(model, y0, theta_pair)
    if max(v1, v2) > CERT_TOL:
        raise SolverError(f"{context}: dual certificate violated "
                          f"(families {v1:.3e}, {v2:.3e})")


def _marginal(model, weights):
    out = np.zeros(model.n_states)
    np.add.at(out, model.pair_state, weights)
    return out


def _measure_weights(model, measure, name):
    w = np.asarray(measure.weights if isinstance(measure, GMeasure) else measure, dtype=float)
    if w.shape != (model.n_pairs,):
        raise ValueError(f"{name} has {w.shape} weights, model has {model.n_pairs} pairs")
    return w


def membership_residuals(model, gamma, kind, eps=None, y0=None, xi=None):
    """Max-norm residual of the balance equations defining W, W(eps,y0) or
    Omega(y0); 0 within tolerance means membership.

    For the probability sets the mass defect |total-1| is included in the
    max.  For Omega both constraint blocks are evaluated (pass xi).
    """
    w = _measure_weights(model, gamma, "measure")
    if y0 is not None:
        model.check_y0(y0)
    tensor = transition(model)
    marg = _marginal(model, w)
    pushed = tensor.push(w)
    mass_defect = abs(float(w.sum()) - 1.0)
    if kind == "W":
        return float(max(np.max(np.abs(marg - pushed)), mass_defect))
    if kind == "W_eps":
        if eps is None or y0 is None:
            raise ValueError("W_eps needs eps and y0")
        r = marg - (1.0 - eps) * pushed
        r[y0] -= eps
        return float(max(np.max(np.abs(r)), mass_defect))
    if kind == "Omega":
        if xi is None or y0 is None:
            raise ValueError("Omega needs xi and y0")
        wx = _measure_weights(model, xi, "xi")
        r2 = _marginal(model, wx) - tensor.push(wx) + marg
        r2[y0] -= 1.0
        return float(max(np.max(np.abs(marg - pushed)), np.max(np.abs(r2)), mass_defect))
    raise ValueError(f"unknown membership kind {kind!r}")
