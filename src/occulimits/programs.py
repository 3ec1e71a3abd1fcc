"""Measure linear programs over a finite model: the stationary LP (k*), the
eps-discounted stationary LP (k*(eps, y0)), and the augmented two-layer LP
(k*(y0), optionally perturbed by a nonnegative xi-cost theta), together with
the dual certificate (mu, psi, eta).

Each program is min c'x over a measure set x >= 0, A x = b, which
_constraints defines once, named after the set.  Constraints use the
per-state indicator basis, which is complete on a finite grid, so the
balance equations are exact:

    W               gamma_1(y') = sum P(y'|y,u) gamma(y,u),  sum gamma = 1
    W_eps           gamma_1(y') = (1-eps) sum P(y'|y,u) gamma(y,u) + eps 1{y'=y0}
    Omega           W's rows for gamma, plus
                    xi_1(y') - sum P(y'|y,u) xi(y,u) + gamma_1(y') = 1{y'=y0}

With E the pair-to-state marginal block and B = E - decay P^T the balance
block, the matrices are [B; 1'] (decay 1), B (decay 1-eps) and
[[B, 0], [1', 0], [E, B]] (decay 1).  A is a matrix-free _MeasureOperator,
whose products A x and A'y are per-state sums of pair weights
(np.bincount) and the model's push and expect; _lp_matrix assembles it
only when HiGHS runs, and membership_residuals is |A x - b|.

The stationary and augmented programs (without theta) are answered from
dp.average_cost_policy_iteration, run once per model (average_cost_solution):
their primal and dual are built from the optimal gain g, a bias h and an
optimal plan.  Otherwise, and whenever the built pair fails lp_core's five
optimality conditions on the operator, scipy's HiGHS solves the program on
the assembled matrix, and its pair must pass the same conditions on the
same operator; _solve is the one function that answers a measure LP, and
ProgramResult.method records which path answered.  Dual sign conventions
are fixed so the certificate (mu, psi, eta), read off the duals, satisfies
the inequality families

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
from scipy.sparse.linalg import LinearOperator

from . import dp, lp_core
from .dp import SolverError
from .measures import GMeasure, check_eps
from .model import numeric_array, transition

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
        E[psi(f)] - psi(y) + theta(y,u), refusing theta as augmented_lp does
        and mu, psi and eta as numeric_array does at (), (n_states,), (n_states,)."""
        model.check_y0(y0)
        mu = numeric_array("mu", self.mu, ())
        psi = numeric_array("psi", self.psi, (model.n_states,))
        eta = numeric_array("eta", self.eta, (model.n_states,))
        tensor = transition(model)
        psi_at = model.at_pairs(psi)
        theta_pair = np.zeros(model.n_pairs) if theta is None else _check_theta(model, theta)
        return (model.pair_cost + (psi[y0] - psi_at)
                + tensor.expect(eta) - model.at_pairs(eta) - mu,
                tensor.expect(psi) - psi_at + theta_pair)

    def violations(self, model, y0, theta=None):
        """Worst violation of each certificate inequality family."""
        return tuple(worst_violation(slack) for slack in self.slacks(model, y0, theta))


def _check_theta(model, theta):
    """theta as a float array over the pairs; ValueError unless numeric_array
    takes it at shape (n_pairs,) and it is finite and nonnegative."""
    theta_pair = numeric_array("theta", theta, (model.n_pairs,), float)
    if theta_pair.min(initial=0.0) < 0 or not np.all(np.isfinite(theta_pair)):
        raise ValueError("theta must be nonnegative and bounded")
    return theta_pair


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


def _constraints(model, kind, y0=0, eps=None):
    """(A, b) of the measure set kind, "W", "W_eps" (W(eps, y0)) or "Omega"
    (Omega(y0), x = (gamma, xi)): A its _MeasureOperator, of decay 1 - eps
    for "W_eps", and b eps e_y0 for "W_eps", else e_n (the mass row), plus
    e_(n+1+y0) for "Omega"."""
    n = model.n_states
    A = _MeasureOperator(model, kind, 1.0 if eps is None else 1.0 - eps)
    b = np.zeros(A.shape[0])
    if kind == "W_eps":
        b[y0] = eps
    else:
        b[n] = 1.0
        if kind == "Omega":
            b[n + 1 + y0] = 1.0
    return A, b


def _lp_matrix(op):
    """The _MeasureOperator op assembled in CSC: B for "W_eps", [B; 1'] for
    "W" and [[B, 0], [1', 0], [E, B]] for "Omega".

    E is the pair-to-state marginal block and B = E - decay P^T, with P =
    rows[pair_row] the law, the balance block, whose rows are "state
    marginal minus decay times pushed mass".  Every block is CSC, so scipy
    stacks their compressed arrays directly, without a COO detour.
    """
    model, tensor = op.model, transition(op.model)
    n, n_pairs = model.n_states, model.n_pairs
    col_ptr = np.arange(n_pairs + 1)
    # CSC like P^T: column p holds its single 1 at row pair_state[p]
    E = sparse.csc_matrix((np.ones(n_pairs), model.pair_state, col_ptr), shape=(n, n_pairs))
    B = E - op.decay * tensor.rows[tensor.pair_row].T
    if op.kind == "W_eps":
        return B
    ones = sparse.csc_matrix((np.ones(n_pairs), np.zeros(n_pairs, dtype=np.int32), col_ptr),
                             shape=(1, n_pairs))
    if op.kind == "W":
        return sparse.vstack([B, ones], format="csc")
    # [B; 1'; E] beside B moved down n + 1 rows, under the empty blocks
    return sparse.hstack([sparse.vstack([B, ones, E], format="csc"),
                          sparse.csc_matrix((B.data, B.indices + (n + 1), B.indptr),
                                            shape=(2 * n + 1, n_pairs))], format="csc")


class _MeasureOperator(LinearOperator):
    """The constraint matrix of the measure set "W_eps", "W" or "Omega"
    (see _lp_matrix) as its two products, with no matrix built: E x is the
    per-state sum of x's pair weights, E'y reads y at each pair's state,
    and P^T x and P y are the model's push and expect.
    lp_core.check_certificate reads it; HiGHS needs _lp_matrix(op)."""

    def __init__(self, model, kind, decay=1.0):
        n, n_pairs = model.n_states, model.n_pairs
        shape = {"W_eps": (n, n_pairs), "W": (n + 1, n_pairs),
                 "Omega": (2 * n + 1, 2 * n_pairs)}[kind]
        super().__init__(float, shape)
        self.model, self.kind, self.decay = model, kind, decay

    def _matvec(self, x):
        x = x.ravel()
        model, n_pairs = self.model, self.model.n_pairs
        tensor = transition(model)
        gamma = x[:n_pairs]
        marg = _marginal(model, gamma)
        out = [marg - self.decay * tensor.push(gamma)]
        if self.kind != "W_eps":
            out.append([gamma.sum()])
        if self.kind == "Omega":
            xi = x[n_pairs:]
            out.append(marg + (_marginal(model, xi) - tensor.push(xi)))
        return np.concatenate(out)

    def _rmatvec(self, y):
        y = y.ravel()
        model, n = self.model, self.model.n_states
        tensor = transition(model)
        out = model.at_pairs(y[:n]) - tensor.expect(y[:n], self.decay)
        if self.kind == "W_eps":
            return out
        out += y[n]
        if self.kind == "W":
            return out
        psi = y[n + 1:]
        psi_at = model.at_pairs(psi)
        out += psi_at
        return np.concatenate([out, psi_at - tensor.expect(psi)])


def _solve(lp, context, construct=None):
    """Primal x, duals y (c - A'y >= 0 at the optimum) and method of the
    measure LP lp, an lp_core.LinearProgram min c'x, A x = b, x >= 0 whose
    A is a _MeasureOperator; the caller reads its dual certificate off y
    and checks it.

    construct() builds (x, y) from policy iteration.  That pair is returned,
    as "constructed", only when it is finite and passes
    lp_core.check_certificate on lp, both without a float overflow or
    invalid operation, which could hide a violation behind a NaN.
    Otherwise, and when construct is None, HiGHS solves lp as "highs" on
    its matrix, assembled here, and lp_core.certified_solution accepts its
    pair only under the same check on lp.  HiGHS reads a cost of magnitude
    HIGHS_INFINITE_COST or more as infinite, so such a cost is refused
    before the solve.
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
    res = linprog(lp.c, A_eq=_lp_matrix(lp.A), b_eq=lp.b,
                  bounds=(0, None), method="highs", options=lp_core.HIGHS_OPTIONS)
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
    g, h = sol.gain, sol.bias
    tensor, g_at = transition(model), model.at_pairs(g)
    rest = model.pair_cost + tensor.expect(h) - model.at_pairs(h) - g_at
    rise = tensor.expect(g) - g_at
    short = (rest < 0) & (rise > 0)
    least = float(np.max(-rest[short] / rise[short], initial=0.0))
    return g, h + np.ldexp(1.0, math.frexp(1.0 + least)[1]) * g


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
    lp = lp_core.LinearProgram(model.pair_cost, *_constraints(model, "W"))

    def construct():
        g, eta = _pi_dual(model, sol)
        chain = sol.chain
        # over recurrent states only: a transient g can round below its class's
        best = chain.rec[np.argmin(g[chain.rec])]
        x = np.zeros(model.n_pairs)
        x[sol.plan.selector] = np.where(
            chain.label == chain.label[best], chain.stationary_laws(), 0.0)
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
    lp = lp_core.LinearProgram(model.pair_cost, *_constraints(model, "W_eps", y0, eps))
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
    theta_pair = None if theta is None else _check_theta(model, theta)
    sol = None if theta_pair is not None else average_cost_solution(model)
    c = np.concatenate([model.pair_cost,
                        np.zeros(n_pairs) if theta_pair is None else theta_pair])
    lp = lp_core.LinearProgram(c, *_constraints(model, "Omega", y0))
    context = f"augmented LP (y0={y0})"

    def construct():
        g, eta = _pi_dual(model, sol)
        p_star, w = sol.chain.limiting_row(y0)
        x = np.zeros(2 * n_pairs)
        x[sol.plan.selector] = p_star
        x[n_pairs + sol.plan.selector] = w
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
    """E w: the per-state sum of the pair weights w, added in pair order."""
    return np.bincount(model.pair_state, weights, model.n_states)


def _measure_weights(model, measure, name):
    return numeric_array(name, measure.weights if isinstance(measure, GMeasure) else measure,
                         (model.n_pairs,), float)


def membership_residuals(model, gamma, kind, eps=None, y0=None, xi=None):
    """Max-norm residual of the constraints (A, b) of W, W(eps,y0) or
    Omega(y0) (_constraints, as in their LPs): max(|A x - b|, |total(gamma) - 1|)
    with x = gamma or (gamma, xi); 0 within tolerance means membership.
    W reads gamma alone, W_eps also eps and y0, Omega also xi and y0; an
    argument the kind does not read is refused, not ignored."""
    reads = {"W": (), "W_eps": ("eps", "y0"), "Omega": ("xi", "y0")}
    if kind not in reads:
        raise ValueError(f"unknown membership kind {kind!r}")
    given = {"eps": eps, "y0": y0, "xi": xi}
    for name, value in given.items():
        if value is not None and name not in reads[kind]:
            raise ValueError(f"membership kind {kind} does not read {name}")
    if any(given[name] is None for name in reads[kind]):
        raise ValueError(f"{kind} needs {' and '.join(reads[kind])}")
    w = _measure_weights(model, gamma, "measure")
    if y0 is not None:
        model.check_y0(y0)
    if eps is not None:
        check_eps(eps)
    x = w if xi is None else np.concatenate([w, _measure_weights(model, xi, "xi")])
    A, b = _constraints(model, kind, y0, eps)
    return float(max(np.max(np.abs(A @ x - b)), abs(float(w.sum()) - 1.0)))
