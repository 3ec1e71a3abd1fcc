"""Dynamic-programming oracles: finite-horizon average values v_T, discounted
values h_eps, the optimal gain g* and a bias h of the average-cost problem
by multichain policy iteration, greedy plan extraction from a potential, and
exact plan evaluation.

All argmins break ties by lowest control index, so every run is
deterministic.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu, spsolve

from . import measures
from .model import numeric_array, transition

DEFAULT_TOL = 1e-10
PI_ITERATION_CAP = 1000
# a control is replaced only when the new one is better by more than this
# relative margin, so float noise in the solve cannot make plans cycle
IMPROVEMENT_TOL = 1e-13


class SolverError(RuntimeError):
    """LP or DP solver failure, or an infeasible/unbounded measure program."""


@dataclass
class ValueFunction:
    """A value per state, in cost units."""

    values: np.ndarray


@dataclass
class Plan:
    """A control plan.

    kind 'stationary_deterministic': selector is an int array with the pair
    index of every state's control, one of that state's pairs (a row of
    pair_cost).  kind 'stationary_randomized': selector is the plan's pair
    weights pi(u|y), one numeric (n_pairs,) array laid out like the pairs,
    each state's weights a probability law over its controls.
    kind 'staged': selector is a sequence (a list, or the StagedSelectors of
    finite_horizon_values) of per-stage deterministic selectors, indexed by
    stage t = 0..T-1.
    """

    kind: str
    selector: object

    def check_against(self, model):
        starts = model.state_pair_start
        if self.kind in ("stationary_deterministic", "staged"):
            sels = self.selector if self.kind == "staged" else [self.selector]
            if len(sels) == 0:
                raise ValueError("plan/model mismatch: a staged plan needs at least one stage")
            for sel in map(np.asarray, sels):
                # integer pairs, each of its own state: a float or bool is not an index
                if sel.dtype.kind not in "iu" or sel.shape != (model.n_states,) \
                        or np.any(sel < starts[:-1]) or np.any(sel >= starts[1:]):
                    raise ValueError("plan/model mismatch: bad "
                                     f"{self.kind.removeprefix('stationary_')} selector")
        elif self.kind == "stationary_randomized":
            try:  # one numeric (n_pairs,) array, not per-state rows
                w = numeric_array("randomized selector", self.selector, (model.n_pairs,))
            except ValueError as exc:
                raise ValueError(f"plan/model mismatch: {exc}") from exc
            bad = np.bincount(model.pair_state, ~np.isfinite(w) | (w < 0), model.n_states) > 0
            sums = np.bincount(model.pair_state, w, model.n_states)  # added in pair order
            off = bad | (np.abs(sums - 1.0) > 1e-12)
            i = np.argmax(off)  # the first state refused, if any
            if off[i]:
                raise ValueError(f"plan/model mismatch: bad probability row at state {i}" if bad[i]
                                 else f"plan/model mismatch: row at state {i} sums to {sums[i]!r}")
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
            return np.asarray(self.selector, dtype=float)
        if self.kind == "staged" and t >= self.n_stages:
            raise ValueError(f"staged plan of length {self.n_stages} is shorter "
                             f"than the {t + 1} stages asked for")
        w = np.zeros(model.n_pairs)
        w[np.asarray(self.selector[t] if self.kind == "staged" else self.selector)] = 1.0
        return w


def _group_min(model, q):
    """(vmin, pairs): the least q(y, u) of every state y, and the lowest
    pair of y that attains it.  One pass: the pairs with q <= vmin are
    listed once, and, as pairs are numbered state by state, a state's first
    one is found by binary search from its first pair.  A state with none,
    whose minimum is NaN, gets the pair n_pairs + 1."""
    starts, ends = model.state_pair_start[:-1], model.state_pair_start[1:]
    vmin = np.minimum.reduceat(q, starts)
    # the appended hit, at n_pairs, ends the search of the last states
    hits = np.flatnonzero(np.append(q <= model.at_pairs(vmin), True))
    first = hits[np.searchsorted(hits, starts)]
    return vmin, np.where(first < ends, first, model.n_pairs + 1)


def finite_horizon_values(model, T):
    """Backward recursion T v_T(y) = min_u {k(y,u) + (T-1) E[v_{T-1}(f(y,u,s))]}.

    Returns the whole curve v_1..v_T (one ValueFunction per horizon) and the
    staged argmin plan, whose forward evaluation reproduces v_T exactly.  The
    recursion keeps values only; the plan's stage selectors (a
    StagedSelectors) are computed from the curve the first time they are
    read.  Raises SolverError naming the first horizon whose value is not
    finite: with costs near the float range, T v_T overflows before it is
    divided.

    A model with state runs (TransitionTensor.state_runs) takes the range
    path: each stage reduces (tau-1) E[v], read on the law's distinct rows,
    over every state's run and adds the state's one cost.  That is the pair
    path's minimum bit for bit: a minimum is exact in any order, and
    fl(k + x) is monotone in x.  Every other model takes the pair path,
    which reduces _stage_costs over each state's pairs.
    """
    measures.check_horizon(T)
    tensor = transition(model)
    k = model.pair_cost
    starts = model.state_pair_start[:-1]
    runs, state_cost = tensor.state_runs, k[starts]
    v_prev = np.zeros(model.n_states)
    curve = []
    with np.errstate(over="ignore"):
        for tau in range(1, T + 1):
            if runs is None:
                v_prev = np.minimum.reduceat(_stage_costs(tensor, k, v_prev, tau), starts)
            else:
                v_prev = _run_stage_min(tensor, runs, state_cost, v_prev, tau)
            v_prev /= tau
            if not np.isfinite(v_prev).all():
                raise SolverError(f"finite-horizon recursion overflowed: v_{tau} is not "
                                  "finite (costs too close to the float range)")
            curve.append(ValueFunction(values=v_prev))
    return curve, Plan(kind="staged", selector=StagedSelectors(model, curve))


def _run_stage_min(tensor, runs, state_cost, v, tau):
    """min_u q(y, u) of every state on the range path: w = (tau-1) E[v] on
    the law's distinct rows, scaled as TransitionTensor.expect scales it,
    then one reduceat over the state runs, whose even outputs are the
    states' minima and whose odd ones, over the gaps between runs, are
    dropped.  w's pad entry lets a run end at the last row."""
    scale = tau - 1
    w = np.empty(tensor.rows.shape[0] + 1)
    w[-1] = 0.0
    w[:-1] = tensor.rows @ v
    if scale != 1.0:
        w *= scale
    return np.minimum.reduceat(w, runs)[::2] + state_cost


def _stage_costs(tensor, k, v, tau):
    """q = k + (tau-1) E[v], the stage costs with tau stages to go, built in
    one buffer, with tau-1 applied to the law's distinct rows; the pair
    path of the recursion and StagedSelectors share it, so a selector sees
    the recursion's q bit for bit."""
    q = tensor.expect(v, tau - 1)
    q += k
    return q


class StagedSelectors(Sequence):
    """The stage selectors of finite_horizon_values's plan, read-only.

    Stage t (t = 0..T-1, negative t counted from the end) acts with tau =
    T - t stages to go, so its selector holds each state's lowest pair minimizing
    q = k + (tau-1) E[v_{tau-1}], with v_0 = 0.  It is computed from the
    stored curve with the pair path's arithmetic (_stage_costs) the first
    time it is read, and kept, so it is the selector the recursion would
    have stored, on either path: the range path's minima are the pair
    path's, bit for bit, and only the pairs carry the lowest attaining one.
    """

    def __init__(self, model, curve):
        self._model = model
        self._curve = curve
        self._sels = [None] * len(curve)

    def __len__(self):
        return len(self._sels)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]  # an int in 0..T-1, else IndexError or TypeError
        if self._sels[t] is None:
            tau = len(self) - t
            v = self._curve[tau - 2].values if tau > 1 else np.zeros(self._model.n_states)
            with np.errstate(over="ignore"):
                q = _stage_costs(transition(self._model), self._model.pair_cost, v, tau)
            self._sels[t] = _group_min(self._model, q)[1]
        return self._sels[t]


def discounted_values(model, eps, tol=DEFAULT_TOL):
    """Howard policy iteration for h(y) = min_u {eps k(y,u) + (1-eps) E[h(f(y,u,s))]}.

    Starts from the greedy plan for eps*k and evaluates each plan pi with one
    sparse solve of (I - (1-eps) P_pi) h = eps k_pi, where P_pi is the
    plan's rows of the law; a state switches control only on strict
    improvement.  Returns h and the greedy stationary plan of the final h,
    after certifying the Bellman residual max_y |min_u q(y,u) - h(y)| <=
    tol*eps (tol finite and positive), which bounds the fixed-point error
    by tol through the (1-eps) contraction.  Raises SolverError when the
    certificate fails or the iteration cap is hit.
    """
    measures.check_eps(eps)
    measures.check_positive("tol", tol)
    tensor = transition(model)
    k_eps = eps * model.pair_cost
    decay = 1.0 - eps
    eye = sparse.identity(model.n_states, format="csr")
    _, pairs = _group_min(model, k_eps)
    for _ in range(PI_ITERATION_CAP):
        h = spsolve(eye - decay * tensor.rows[tensor.pair_row[pairs]], k_eps[pairs])
        q = tensor.expect(h, decay)
        q += k_eps
        vmin, best = _group_min(model, q)
        improve = vmin < q[pairs] - IMPROVEMENT_TOL * (1.0 + np.abs(h))
        if not improve.any():
            break
        pairs = np.where(improve, best, pairs)
    else:
        raise SolverError(f"policy iteration (eps={eps}) hit its cap of "
                          f"{PI_ITERATION_CAP} improvement rounds")
    residual = float(np.max(np.abs(vmin - h)))
    if not residual <= tol * eps:
        raise SolverError(f"policy iteration (eps={eps}): Bellman residual "
                          f"{residual:.3e} exceeds tol*eps={tol * eps:.3e}; the solve "
                          f"certifies |h - h_eps| <= residual/eps = {residual / eps:.3e}")
    return ValueFunction(values=h), Plan(kind="stationary_deterministic", selector=best)


def _factor(matrix):
    """Sparse LU factors of a square matrix; SolverError when it is singular."""
    try:
        return splu(sparse.csc_matrix(matrix))
    except RuntimeError as exc:
        raise SolverError(f"policy evaluation: {exc}") from exc


def _eye_minus(row, col, val, n, ref=None):
    """I - Q as an n x n CSC matrix, Q holding val at (row, col), each
    position at most once; with ref, the column of every reference y
    (ref[y] == y) is replaced by the indicator of its class, the x with
    ref[x] == y.  The entries are ordered by column and then row, and exact
    zeros are dropped, as scipy's sparse sums and products drop them."""
    diag = np.ones(n)
    loop = row == col
    diag[row[loop]] -= val[loop]
    row = np.concatenate([row[~loop], np.arange(n)])
    col = np.concatenate([col[~loop], np.arange(n)])
    val = np.concatenate([-val[~loop], diag])
    if ref is not None:
        kept = col != ref[col]
        row = np.concatenate([row[kept], np.arange(n)])
        col = np.concatenate([col[kept], ref])
        val = np.concatenate([val[kept], np.ones(n)])
    keep = val != 0
    row, col, val = row[keep], col[keep], val[keep]
    order = np.lexsort((row, col))
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(col, minlength=n))
    return sparse.csc_matrix((val[order], row[order].astype(np.int32), indptr), shape=(n, n))


class ClosedClasses:
    """The closed classes of a stationary plan's law P_pi and the two sparse
    factorizations that its evaluation and its limiting law share.

    A closed class is a strongly connected component of P_pi's graph that no
    edge leaves.  Its states are recurrent; every other state is transient.
    rec and tra list the recurrent and the transient states in increasing
    order, and label[y] is the class of a recurrent state, -1 on a transient
    one.
    The recurrent matrix is I - P_pi over the recurrent states with the
    column of each class's lowest state, its reference, replaced by the
    class indicator; the transient matrix is I - Q, with Q = P_pi over the
    transient states.  Both, and P_pi from the transient to the recurrent
    states, are assembled in one pass over P_pi's entries; their CSC and
    CSR arrays are those scipy's operator chain (identity minus the
    fancy-indexed blocks, times a diagonal, plus the indicator) gives.
    """

    def __init__(self, p_pi):
        p_pi = sparse.csr_matrix(p_pi)
        p_pi.eliminate_zeros()
        n = p_pi.shape[0]
        n_comp, comp = connected_components(p_pi, directed=True, connection="strong")
        # P_pi's entries (row, col, val), row by row
        row = np.repeat(np.arange(n), np.diff(p_pi.indptr))
        col, val = p_pi.indices, p_pi.data
        is_open = np.zeros(n_comp, dtype=bool)
        is_open[comp[row[comp[row] != comp[col]]]] = True
        transient = is_open[comp]
        self.rec = np.flatnonzero(~transient)
        self.tra = np.flatnonzero(transient)
        # _ref[j]: position in rec of the reference of the class of rec[j]
        _, first, inverse = np.unique(comp[self.rec], return_index=True,
                                      return_inverse=True)
        self._ref = first[inverse]
        self.label = np.full(n, -1)
        self.label[self.rec] = inverse
        n_rec, n_tra = len(self.rec), len(self.tra)
        self._is_ref = self._ref == np.arange(n_rec)
        # every state's position in rec or in tra
        at = np.empty(n, dtype=np.int64)
        at[self.rec], at[self.tra] = np.arange(n_rec), np.arange(n_tra)
        row_t, col_t = transient[row], transient[col]

        def entries(block):
            return at[row[block]], at[col[block]], val[block]

        self._lu_rec = _factor(_eye_minus(*entries(~row_t & ~col_t), n_rec, self._ref))
        r, c, v = entries(row_t & ~col_t)
        indptr = np.zeros(n_tra + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.bincount(r, minlength=n_tra))
        parts = v, c.astype(np.int32), indptr
        self._p_tr = sparse.csr_matrix(parts, shape=(n_tra, n_rec))
        # its transpose, on the same arrays
        self._p_tr_t = sparse.csc_matrix(parts, shape=(n_rec, n_tra))
        self._lu_tra = _factor(_eye_minus(*entries(row_t & col_t), n_tra)) if n_tra else None

    def evaluate(self, r):
        """Gain g and bias h of the per-state cost r: g = P_pi g and
        g + h = r + P_pi h, with h = 0 at each class's reference.  One solve
        over the recurrent states carries each class's gain in its
        reference's column; two (I - Q) solves give the transient states."""
        g, h = np.zeros(len(r)), np.zeros(len(r))
        x = self._lu_rec.solve(r[self.rec])
        g[self.rec] = x[self._ref]
        h[self.rec] = np.where(self._is_ref, 0.0, x)
        if self._lu_tra is not None:
            g[self.tra] = self._lu_tra.solve(self._p_tr @ g[self.rec])
            h[self.tra] = self._lu_tra.solve(r[self.tra] - g[self.tra]
                                             + self._p_tr @ h[self.rec])
        return g, h

    def _rec_row_solve(self, rhs, class_mass):
        """The row vector x over the recurrent states with x (I - P_pi) = rhs
        off the references and total mass class_mass on every class."""
        rhs = np.array(rhs, dtype=float)
        rhs[self._is_ref] = class_mass
        return self._lu_rec.solve(rhs, trans="T")

    def stationary_laws(self):
        """Per-state vector holding the stationary law of every closed class
        on its states (each sums to 1) and 0 on transient states."""
        pi = np.zeros(len(self.label))
        pi[self.rec] = self._rec_row_solve(np.zeros(len(self.rec)), 1.0)
        return pi

    def limiting_row(self, y0):
        """P*(y0, .), the limiting law of the chain started at y0, and the
        least nonnegative deviation w with w (I - P_pi) = e_y0 - P*(y0, .).

        On transient states w is the expected number of visits, e_y0 (I -
        Q)^-1.  On each closed class w solves its balance equations, plus the
        least multiple of the class's stationary law that keeps w >= 0; the
        least entry of w on every class y0 reaches is 0.
        """
        n = len(self.label)
        start = np.zeros(n)
        start[y0] = 1.0
        w = np.zeros(n)
        inflow = start[self.rec]
        if self._lu_tra is not None:
            w[self.tra] = self._lu_tra.solve(start[self.tra], trans="T")
            inflow = inflow + self._p_tr_t @ w[self.tra]
        pi = self.stationary_laws()[self.rec]
        classes = self.label[self.rec]
        p_rec = pi * np.bincount(classes, weights=inflow)[classes]
        w_rec = self._rec_row_solve(inflow - p_rec, 0.0)
        shift = np.full(self.label.max() + 1, -np.inf)
        np.maximum.at(shift, classes, -w_rec / pi)
        w[self.rec] = np.maximum(w_rec + shift[classes] * pi, 0.0)
        p_star = np.zeros(n)
        p_star[self.rec] = p_rec
        return p_star, w


@dataclass
class AverageCost:
    """Solution of the average-cost problem by policy iteration: the optimal
    gain g*(y) and a bias h of every state, an optimal stationary plan, the
    closed classes of that plan's law and the number of evaluation rounds."""

    gain: np.ndarray
    bias: np.ndarray
    plan: Plan
    chain: ClosedClasses
    rounds: int


def average_cost_policy_iteration(model):
    """Multichain Howard policy iteration (Puterman section 9.2) for
    g*(y) = min over plans of the long-run average expected cost from y.

    Starts from the greedy plan for k.  Each round evaluates the plan on
    its rows of the law, through ClosedClasses.evaluate, and then improves it
    in two phases: a state first switches to the control of least
    E[g(f(y,u,s))]; only when no state can, it switches, among the controls
    whose E g is within the margin of that least value, to the control of
    least k + E[h(f(y,u,s))].  A control is replaced only when the new one is
    better by IMPROVEMENT_TOL (relative), with lowest-index ties, so float
    noise cannot make plans cycle.  When no state switches, g is the optimal
    gain g* and (g, h) solve the multichain optimality equations.  Raises
    SolverError at the iteration cap, when an evaluation matrix is singular
    or when a gain or bias is not finite.
    """
    tensor = transition(model)
    k = model.pair_cost
    _, pairs = _group_min(model, k)
    for rounds in range(1, PI_ITERATION_CAP + 1):
        chain = ClosedClasses(tensor.rows[tensor.pair_row[pairs]])
        with np.errstate(over="ignore", invalid="ignore"):
            g, h = chain.evaluate(k[pairs])
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise SolverError("policy evaluation: the gain or bias is not finite "
                              "(costs too close to the float range)")
        eg = tensor.expect(g)
        g_min, best = _group_min(model, eg)
        margin = IMPROVEMENT_TOL * (1.0 + np.abs(g))
        improve = g_min < eg[pairs] - margin
        if not improve.any():
            tight = eg <= model.at_pairs(g_min + margin)
            q = np.where(tight, k + tensor.expect(h), np.inf)
            q_min, best = _group_min(model, q)
            improve = q_min < q[pairs] - IMPROVEMENT_TOL * (1.0 + np.abs(h))
            if not improve.any():
                return AverageCost(gain=g, bias=h, plan=Plan("stationary_deterministic", pairs),
                                   chain=chain, rounds=rounds)
        pairs = np.where(improve, best, pairs)
    raise SolverError(f"average-cost policy iteration hit its cap of "
                      f"{PI_ITERATION_CAP} improvement rounds")


def greedy_feedback_from_eta(model, eta):
    """u^f(y) = argmin_u {k(y,u) + E[eta(f(y,u,s))]}, lowest-index ties."""
    eta = numeric_array("eta", eta, (model.n_states,))
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    _, pairs = _group_min(model, model.pair_cost + transition(model).expect(eta))
    return Plan(kind="stationary_deterministic", selector=pairs)


def evaluate_plan_average(model, plan, y0, T):
    """Exact T-stage expected average cost of a plan from state y0.

    Computed by distribution propagation: (1/T) sum_t sum_(y,u)
    mu_t(y) pi_t(u|y) k(y,u).
    """
    measures.check_horizon(T)
    return sum(float(law @ model.pair_cost)
               for _, law in measures.pair_laws(model, plan, y0, T)) / T


def evaluate_plan_discounted(model, plan, y0, eps, tail_tol=1e-12):
    """Normalized expected discounted cost of a plan, via its discounted
    occupational measure (identity between the cost series and the measure
    integral).  Exact for both plan kinds; tail_tol is only validated, see
    measures.discounted_occupation."""
    gamma_d = measures.discounted_occupation(model, plan, y0, eps, tail_tol)
    return float(gamma_d.weights @ model.pair_cost)
