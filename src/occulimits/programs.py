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

The stationary and augmented programs (without theta) are answered from
dp.average_cost_policy_iteration, run once per model (average_cost_solution):
their primal and dual are built from the optimal gain g, a bias h and an
optimal plan.  Otherwise, and whenever the built pair fails lp_core's five
optimality conditions on the assembled (c, A, b), scipy's HiGHS solves the
program on the sparse matrix under the same conditions; _solve is the one
function that answers a measure LP, and ProgramResult.method records which
path answered.  Dual sign conventions are fixed so the certificate
(mu, psi, eta), read off the duals, satisfies the inequality families

    k(y,u) + (psi(y0) - psi(y)) + E[eta(f(y,u,s))] - eta(y) - mu >= 0
    E[psi(f(y,u,s))] - psi(y) >= -theta(y,u)

literally.  It is checked once, after whichever path answered, and a
failure raises SolverError: the families are reduced costs of the LP's
columns, which lp_core holds to a tighter bound, so no other path can mend it.
"""

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import dp, lp_core
from .dp import SolverError
from .measures import GMeasure, check_eps
from .model import transition

CERT_TOL = 1e-7
# HiGHS reads a cost of this magnitude or more as infinite (its infinite_cost)
HIGHS_INFINITE_COST = 1e20


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
    """How far the least slack falls below 0 (0 when none does, NaN when a
    slack is NaN, so that no check passes it)."""
    return float(np.maximum(0.0, -slack.min(initial=0.0)))


@dataclass(frozen=True)
class ProgramResult:
    """Solved measure program: value, optimizers and dual objects, and the
    method that produced them: "constructed" from policy iteration or
    "highs"."""

    optimal_value: float
    gamma: GMeasure
    xi: GMeasure | None
    dual: DualCertificate | None
    method: str

    def to_json_dict(self, model):
        doc = {
            "value": self.optimal_value,
            "method": self.method,
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


def _lp_matrix(model, kind, decay=1.0):
    """The constraint matrix of a measure LP in CSC: B for kind
    "discounted", [B; 1'] for "stationary" and [[B, 0], [1', 0], [E, B]]
    for "augmented".

    E is the pair-to-state marginal block (a 1 at each pair's state) and
    B = E - decay P^T the balance block, whose rows are "state marginal
    minus decay times pushed mass".  Every block is CSC, so scipy stacks
    their compressed arrays directly, without a COO detour.
    """
    n, n_pairs = model.n_states, model.n_pairs
    col_ptr = np.arange(n_pairs + 1)
    # CSC like P^T: column p holds its single 1 at row pair_state[p]
    E = sparse.csc_matrix((np.ones(n_pairs), model.pair_state, col_ptr), shape=(n, n_pairs))
    B = E - decay * transition(model).P.T
    if kind == "discounted":
        return B
    ones = sparse.csc_matrix((np.ones(n_pairs), np.zeros(n_pairs, dtype=np.int32), col_ptr),
                             shape=(1, n_pairs))
    if kind == "stationary":
        return sparse.vstack([B, ones], format="csc")
    # [B; 1'; E] beside B moved down n + 1 rows, under the empty blocks
    return sparse.hstack([sparse.vstack([B, ones, E], format="csc"),
                          sparse.csc_matrix((B.data, B.indices + (n + 1), B.indptr),
                                            shape=(2 * n + 1, n_pairs))], format="csc")


def _solve(lp, context, construct=None):
    """Primal x, duals y (c - A'y >= 0 at the optimum) and method of the
    measure LP lp, an lp_core.LinearProgram min c'x, A x = b, x >= 0 with a
    sparse A; the caller reads its dual certificate off y and checks it.

    construct() builds (x, y) from policy iteration.  That pair is returned,
    as "constructed", only when it is finite and passes
    lp_core.check_certificate on lp, both without a float overflow or
    invalid operation, which could hide a violation behind a NaN.
    Otherwise, and when construct is None, HiGHS solves lp as "highs", and
    lp_core.certified_solution accepts its pair only under the same check.
    HiGHS reads a cost of magnitude HIGHS_INFINITE_COST or more as
    infinite, so such a cost is refused before the solve.
    """
    if construct is not None:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                x, y = construct()
                if np.isfinite(x).all() and np.isfinite(y).all():
                    lp_core.check_certificate(lp, lp_core.LpSolution("optimal", x, y,
                                                                     float(lp.c @ x)))
                    return x, y, "constructed"
        except (SolverError, lp_core.LpError, FloatingPointError):
            pass
    cost = float(np.max(np.abs(lp.c), initial=0.0))
    if cost >= HIGHS_INFINITE_COST:
        raise SolverError(f"{context}: a cost of magnitude {cost:.3g} is at or above "
                          f"HiGHS's infinite_cost ({HIGHS_INFINITE_COST:g}), which HiGHS "
                          "reads as infinite")
    res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs",
                  options=lp_core.HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverError(f"{context}: HiGHS reported {res.message!r}")
    try:
        sol = lp_core.certified_solution(lp, res)
    except lp_core.LpError as exc:
        raise SolverError(f"{context}: HiGHS ({lp.A.shape[0]}x{lp.A.shape[1]}): {exc}") from exc
    return sol.x, sol.y_dual, "highs"


_AVERAGE_COST = weakref.WeakKeyDictionary()


def average_cost_solution(model):
    """dp.average_cost_policy_iteration(model), run once per model without a
    float overflow, invalid operation or division by zero, which could hide
    a violation behind a NaN; None when it fails, so that stationary_lp and
    augmented_lp fall back to HiGHS.  The result, None included, is kept
    while the model lives (it holds no reference to the model) with its
    arrays read-only, so every caller of a model reads the same solve."""
    if model in _AVERAGE_COST:
        return _AVERAGE_COST[model]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = dp.average_cost_policy_iteration(model)
    except (SolverError, FloatingPointError):
        sol = None
    else:
        for value in (sol.plan.selector, *vars(sol).values(), *vars(sol.chain).values()):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    _AVERAGE_COST[model] = sol
    return sol


def _pi_dual(model, sol):
    """The gain g and eta = h + M g of a policy-iteration solution.

    On the pairs where E g = g(y), PI's second phase gives k + E h - h - g
    >= 0 up to its margin, and E g >= g(y) on every pair, so for M above the
    least value >= 0 that makes k + E h - h - g + M (E g - g) >= 0 on every
    pair, (g(y0), g, eta) satisfies both certificate families (Denardo &
    Fox).  M is the power of two above that least value plus 1: M g is then
    exact, and family 1 is strict wherever E g > g(y).  At the least value
    the binding pair would tie with the optimal control in
    dp.greedy_feedback_from_eta, whose lowest-index rule could then pick a
    control that leaves the optimal gain (example 2 from y0 = 0).
    """
    g, h, s = sol.gain, sol.bias, model.pair_state
    tensor = transition(model)
    rest = model.pair_cost + tensor.expect(h) - h[s] - g[s]
    rise = tensor.expect(g) - g[s]
    short = (rest < 0) & (rise > 0)
    least = float(np.max(-rest[short] / rise[short], initial=0.0))
    return g, h + np.ldexp(1.0, math.frexp(1.0 + least)[1]) * g


def _plan_pairs(model, sol):
    return model.state_pair_start[:-1] + sol.plan.selector


def stationary_lp(model):
    """min int k dgamma over the stationary set W; returns k* and a dual.

    The returned certificate has psi = 0 (the stationary problem's dual only
    involves eta and the scalar mu).  It is built from policy iteration when
    it passes the LP certificate, else HiGHS solves the LP.  The built one has
    mu = k*, the least gain of a recurrent state, eta = h + M g as in
    augmented_lp, and gamma the stationary law of a closed class of the
    optimal plan whose gain is k*.  Family 1 holds on every pair:
    k + E eta - eta - mu >= k + E h - h - g + M (E g - g) >= 0, as g >= k*.
    Policy iteration runs once per model (average_cost_solution), so
    augmented_lp on the same model reuses this solve.
    """
    n = model.n_states
    sol = average_cost_solution(model)
    b = np.zeros(n + 1)
    b[n] = 1.0
    lp = lp_core.LinearProgram(c=model.pair_cost, A=_lp_matrix(model, "stationary"), b=b)

    def construct():
        g, eta = _pi_dual(model, sol)
        chain = sol.chain
        # over recurrent states only: a transient g can round below its class's
        best = chain.rec[np.argmin(g[chain.rec])]
        x = np.zeros(model.n_pairs)
        x[_plan_pairs(model, sol)] = np.where(chain.label == chain.label[best],
                                              chain.stationary_laws(), 0.0)
        return x, np.append(eta, g[best])

    x, y, method = _solve(lp, "stationary LP", None if sol is None else construct)
    cert = _require_certificate(
        DualCertificate(mu=float(y[n]), psi=np.zeros(n), eta=np.array(y[:n])),
        model, 0, None, "stationary LP")
    return ProgramResult(optimal_value=float(model.pair_cost @ x), gamma=GMeasure(x),
                         xi=None, dual=cert, method=method)


def discounted_stationary_lp(model, eps, y0):
    """min int k dgamma over W(eps, y0); the value equals the DP oracle h_eps(y0)."""
    check_eps(eps)
    model.check_y0(y0)
    b = np.zeros(model.n_states)
    b[y0] = eps
    lp = lp_core.LinearProgram(c=model.pair_cost,
                               A=_lp_matrix(model, "discounted", 1.0 - eps), b=b)
    x, _, method = _solve(lp, f"discounted LP (eps={eps}, y0={y0})")
    return ProgramResult(optimal_value=float(model.pair_cost @ x), gamma=GMeasure(x),
                         xi=None, dual=None, method=method)


def augmented_lp(model, y0, theta=None):
    """Two-layer LP over Omega(y0): min int k dgamma (+ int theta dxi).

    Block 1 is gamma-stationarity with normalization, block 2 anchors the
    deviation measure xi at the initial state.  The dual multipliers are read
    off as eta (block 1), psi (block 2) and mu (normalization row shifted by
    psi(y0)), and the resulting certificate is verified before returning.

    Without theta the solution is first built from policy iteration's
    optimal plan: gamma is its limiting law P*(y0, .), xi the least
    nonnegative deviation w with w (I - P_pi) = e_y0 - P*(y0, .) (see
    dp.ClosedClasses.limiting_row), and the certificate is (mu, psi, eta) =
    (g(y0), g, h + M g).  HiGHS solves the LP when that pair misses the LP
    certificate, and whenever theta is given.  Policy iteration runs once
    per model (average_cost_solution), shared with stationary_lp and every
    y0; with a theta it is not run.
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
    sol = None if theta_pair is not None else average_cost_solution(model)
    b = np.zeros(2 * n + 1)
    b[n] = 1.0
    b[n + 1 + y0] = 1.0
    c = np.concatenate([model.pair_cost,
                        np.zeros(n_pairs) if theta_pair is None else theta_pair])
    lp = lp_core.LinearProgram(c=c, A=_lp_matrix(model, "augmented"), b=b)
    context = f"augmented LP (y0={y0})"

    def construct():
        g, eta = _pi_dual(model, sol)
        p_star, w = sol.chain.limiting_row(y0)
        pairs = _plan_pairs(model, sol)
        x = np.zeros(2 * n_pairs)
        x[pairs] = p_star
        x[n_pairs + pairs] = w
        return x, np.concatenate([eta, [0.0], g])

    x, y, method = _solve(lp, context, None if sol is None else construct)
    psi = np.array(y[n + 1:])
    cert = _require_certificate(
        DualCertificate(mu=float(y[n] + psi[y0]), psi=psi, eta=np.array(y[:n])),
        model, y0, theta_pair, context)
    return ProgramResult(optimal_value=float(c @ x), gamma=GMeasure(x[:n_pairs]),
                         xi=GMeasure(x[n_pairs:]), dual=cert, method=method)


def _require_certificate(cert, model, y0, theta_pair, context):
    v1, v2 = cert.violations(model, y0, theta_pair)
    if not (v1 <= CERT_TOL and v2 <= CERT_TOL):
        raise SolverError(f"{context}: dual certificate violated "
                          f"(families {v1:.3e}, {v2:.3e})")
    return cert


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
        check_eps(eps)
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
