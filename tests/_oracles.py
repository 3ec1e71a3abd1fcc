"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's solution paths: basic-feasible-point
enumeration for LPs, deterministic-policy enumeration with per-class
stationary distributions for the stationary LP value, exhaustive
noise-sequence expansion for short-horizon plan values, plan enumeration
for the optimal gain, value iteration for h_eps, the truncated
geometric series for discounted occupations, the backward recursion
that stores every stage's argmin as it goes, the transition law built
pair by pair, a stationary plan's law as a sparse product of pair
weights and transition rows, and the balance
equations of W, W(eps, y0) and Omega(y0) written out by hand.
The kernel oracles keep the library's earlier formulas, which its faster
kernels must reproduce bit for bit: the two-pass segmented argmin, the
closed classes and I - decay P_pi assembled by scipy's sparse operator
chain, a plan's law selected by scipy's row indexing, the greedy first
plan found by the argmin over every pair, the Bellman stage minimum on the
pairs whatever the model, the state runs read off their definition state by
state, and a randomized plan's weights checked state by state in Python
floats.
The reference models rebuild the two examples pair by pair with Python
scalars, as the vectorized builders must reproduce bit for bit, and
example 2's earlier builder, a sorted union of candidate controls, is kept
as the reference for its pair arrays.  The random interval models have the
shape of the range path, state-only costs on prefix or suffix runs of one
control list, and variants just off it.
"""

import math
from itertools import combinations, product

import numpy as np
from scipy import sparse

from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from occulimits import dp
from occulimits.model import FiniteModel, transition
from occulimits.programs import SolverError


def no_policy_iteration(model):
    """Stand-in for dp.average_cost_policy_iteration that fails, so that
    every measure LP is solved by HiGHS."""
    raise SolverError("policy iteration switched off")


def with_cost(model, pair_cost):
    """The dynamics model with its per-pair cost replaced."""
    return FiniteModel(model.states, model.pair_state, model.pair_control, model.noise,
                       pair_cost, transition(model).next_idx, initial_index=model.initial_index)


def law_matrix(model):
    """The model's law, pairs by states, read as rows[pair_row]."""
    tensor = transition(model)
    return tensor.rows[tensor.pair_row]


def pair_by_pair_law(model, kernel=None):
    """The law, pairs by states, built one pair at a time as a CSR matrix
    from the model's noise and images: each row holds its distinct images in
    increasing order, each with its atoms' probabilities summed in atom
    order.  A kernel-row model's rows are the nonzero entries of kernel."""
    images = transition(model).next_idx
    indptr, indices, data = [0], [], []
    for p in range(model.n_pairs):
        if kernel is None:
            row = {}
            for image, prob in zip(images[p].tolist(), model.noise.tolist()):
                row[image] = row.get(image, 0.0) + prob
        else:
            row = {j: v for j, v in enumerate(kernel[p]) if v != 0.0}
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr.append(len(indices))
    return sparse.csr_matrix((np.array(data, dtype=float), np.array(indices, dtype=np.int32),
                              np.array(indptr, dtype=np.int32)),
                             shape=(model.n_pairs, model.n_states))


def rebuilt(model):
    """A new dynamics model equal to model, on which policy iteration, which
    the measure LPs run once per model, has not run yet."""
    return with_cost(model, model.pair_cost)


def _reference_sign_flip_model(values, initial_index=None):
    states = [(v,) for v in values]
    controls = [[(-1.0,), (1.0,)] for _ in values]
    noise = [0.75, 0.25]  # s=+1, s=-1
    s_vals = [1.0, -1.0]
    pair_state, pair_control, pair_cost, next_idx = [], [], [], []
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            pair_state.append(i)
            pair_control.append((u,))
            pair_cost.append(y)
            next_idx.append([values.index(y * u * s) for s in s_vals])
    return FiniteModel(states, pair_state, pair_control, noise, pair_cost, next_idx,
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
    states = [(v,) for v in values]

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
    noise = [0.5, 0.5]  # s=1, s=1/4
    s_vals = [1.0, 0.25]
    pair_state, pair_control, pair_cost, next_idx = [], [], [], []
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            pair_state.append(i)
            pair_control.append((u,))
            pair_cost.append(y)
            next_idx.append([index_of[_snap_dyadic(u * s, step)] for s in s_vals])
    return FiniteModel(states, pair_state, pair_control, noise, pair_cost, next_idx)


def candidate_union_example2_model(m, control_step=None):
    """example2_model's earlier vectorized builder, for valid arguments, and
    the image table it passed as next_idx: each state's candidates are the
    multiples of control_step in [lo, hi] (clipped into it), then lo, hi and
    y, joined, sorted by state and value and deduplicated."""
    step = 2.0 ** (-m)
    control_step = step if control_step is None else control_step
    n_half = 2 ** m
    n_states = 2 * n_half + 1
    values = np.arange(-n_half, n_half + 1) * step
    lo = np.where(values > 0, values, -1.0)
    hi = np.where(values < 0, values, 1.0)
    k_lo = np.ceil(lo / control_step - 1e-12).astype(np.int64)
    counts = np.floor(hi / control_step + 1e-12).astype(np.int64) - k_lo + 1
    owner = np.repeat(np.arange(n_states), counts)
    k = k_lo[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    state = np.concatenate([owner, np.tile(np.arange(n_states), 3)])
    u = np.concatenate([np.clip(k * control_step, lo[owner], hi[owner]), lo, hi, values])
    order = np.lexsort((u, state))
    state, u = state[order], u[order]
    fresh = np.ones(len(u), dtype=bool)
    fresh[1:] = (state[1:] != state[:-1]) | (u[1:] != u[:-1])
    pair_state, u = state[fresh], u[fresh]
    images = u[:, None] * [1.0, 0.25]  # s=1, s=1/4
    mag = np.abs(images) / step
    k = np.floor(mag + 0.5)
    k -= k - mag == 0.5
    next_idx = n_half + np.sign(images) * np.maximum(k, 1)
    return FiniteModel(states=values, pair_state=pair_state, pair_control=u, noise=[0.5, 0.5],
                       pair_cost=values[pair_state], next_idx=next_idx), next_idx


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


def pair_choices(model):
    """Every deterministic stationary selector, one pair of each state, as
    tuples of pair indices in lexicographic order."""
    starts = model.state_pair_start.tolist()
    return product(*(range(a, b) for a, b in zip(starts, starts[1:])))


def stationary_average_oracle(model):
    """min over deterministic stationary policies and their recurrent classes
    of the long-run average cost; equals the stationary LP value."""
    rows = law_matrix(model).toarray()
    best = np.inf
    for pairs in map(list, pair_choices(model)):
        P = rows[pairs]
        costs = model.pair_cost[pairs]
        for members in _recurrent_classes(P):
            best = min(best, _class_average(P, costs, members))
    return best


def optimal_gain_oracle(model):
    """g*(y) for every state: the least gain P* k_pi(y) over deterministic
    stationary plans, one of which is optimal from every state at once.  P*
    is the limit of the lazy chain ((I + P) / 2)^t, which has P's invariant
    laws and absorption probabilities; 60 squarings take t = 2^60, each
    renormalized, since squaring would double a row sum's rounding error."""
    rows = law_matrix(model).toarray()
    best = np.full(model.n_states, np.inf)
    for pairs in map(list, pair_choices(model)):
        lazy = (np.eye(model.n_states) + rows[pairs]) / 2.0
        for _ in range(60):
            lazy = lazy @ lazy
            lazy /= lazy.sum(axis=1, keepdims=True)
        best = np.minimum(best, lazy @ model.pair_cost[pairs])
    return best


def eager_finite_horizon_values(model, T):
    """The backward recursion that stores each stage's argmin as it goes,
    as dp.finite_horizon_values did before its plan was computed on first
    read: the values v_1..v_T and the stage selectors, stage 0 (T stages to
    go) first, with lowest-index ties."""
    tensor = transition(model)
    v = np.zeros(model.n_states)
    values, argmins = [], []
    with np.errstate(over="ignore"):
        for tau in range(1, T + 1):
            q = model.pair_cost + (tau - 1) * tensor.expect(v)
            vmin, sel = group_min_oracle(model, q)
            argmins.append(sel)
            v = vmin / tau
            values.append(v)
    return values, argmins[::-1]


def group_min_oracle(model, q):
    """(vmin, pairs) of dp._group_min by two segmented reductions: the least
    q per state, then the least pair that attains it, n_pairs + 1 where
    none does."""
    starts = model.state_pair_start[:-1]
    vmin = np.minimum.reduceat(q, starts)
    cand = np.where(q <= vmin[model.pair_state], np.arange(model.n_pairs), model.n_pairs + 1)
    return vmin, np.minimum.reduceat(cand, starts).astype(np.int64)


class PairPathStageMin:
    """Stand-in for dp._StageMin that takes the pair path on every model: q =
    cost + expect(v, scale) at every pair, and the two-pass segmented
    argmin of group_min_oracle."""

    def __init__(self, model, cost=None):
        self.model, self.cost = model, cost

    def __call__(self, v, scale=1.0, select=False):
        q = transition(self.model).expect(v, scale)
        if self.cost is not None:
            q += self.cost
        vmin, pairs = group_min_oracle(self.model, q)
        return (vmin, pairs, q) if select else vmin


def run_min_at_oracle(model):
    """TransitionTensor.run_min_at read off its definition, state by state:
    when every state's pairs have one cost, bit for bit, and read the
    consecutive increasing rows lo..end - 1, a prefix (lo = 0) or a suffix
    (end = n_rows) of the rows, each state's entry end - 1 or n_rows + lo;
    else None."""
    tensor = transition(model)
    n_rows, starts = tensor.rows.shape[0], model.state_pair_start.tolist()
    at = []
    for a, b in zip(starts, starts[1:]):
        rows = tensor.pair_row[a:b].tolist()
        if len(set(model.pair_cost[a:b].view(np.int64).tolist())) != 1 \
                or rows != list(range(rows[0], rows[0] + len(rows))):
            return None
        lo, end = rows[0], rows[-1] + 1
        if lo == 0:
            at.append(end - 1)
        elif end == n_rows:
            at.append(n_rows + lo)
        else:
            return None
    return np.array(at)


INTERVAL_VARIANTS = ("runs", "shuffled", "interior", "ulp", "negzero")
# state costs, drawn with repeats so that states tie; -0.0 is a cost too
INTERVAL_COSTS = (-0.5, -0.0, 0.0, 0.25, 1.0 / 3.0, 1.0)


def interval_model(seed, variant="runs", kernel_form=False):
    """A random model of the range path's shape: states on a line, each
    state's controls a prefix or a suffix of one shared control list, a
    control's law the same from every state, and one cost per state.

    In dynamics form a control's images are distinct index tuples in
    increasing lexicographic order, so the law's distinct rows are the
    controls in use, in order; with uniform noise two controls whose tuples
    permute each other have one law, so their pairs tie.  In kernel form
    every pair is its own row, so only a two-state model has state runs,
    and kernel form draws two states, three or more for 'interior'; its
    rows are quarters, so controls that draw the same row tie.
    variant is one of INTERVAL_VARIANTS:
      'runs': the states in the order of their first rows (state runs);
      'shuffled': a suffix run before a prefix run, so the first rows fall
        (state runs too);
      'interior': a state reads an interior slice of the list (no runs);
      'ulp': one pair's cost one ulp above its state's (no runs);
      'negzero': a state of cost 0.0 with one pair of cost -0.0 (no runs).
    """
    rng = np.random.default_rng(seed)
    n_states = 2 if kernel_form and variant != "interior" else int(rng.integers(3, 9))
    n_atoms = int(rng.integers(1, 4))
    n_controls = min(int(rng.integers(3, 7)), n_states ** n_atoms)
    runs = []
    for _ in range(n_states):
        length = int(rng.integers(1, n_controls + 1))
        runs.append((0, length) if rng.integers(2) else (n_controls - length, n_controls))
    if variant == "runs":
        runs.sort()
    elif variant == "shuffled":
        runs[:2] = [(1, n_controls), (0, 1)]
    elif variant == "interior":
        runs[:2] = [(0, n_controls), (1, n_controls - 1)]
    elif variant in ("ulp", "negzero"):
        runs[0] = (0, n_controls)
    state_cost = rng.choice(INTERVAL_COSTS, n_states)
    pair_state = np.repeat(np.arange(n_states), [end - lo for lo, end in runs])
    control = np.concatenate([np.arange(lo, end) for lo, end in runs])
    pair_cost = state_cost[pair_state]
    if variant == "ulp":
        pair_cost[n_controls - 1] = np.nextafter(pair_cost[0], np.inf)
    elif variant == "negzero":
        pair_cost[:n_controls] = 0.0
        pair_cost[n_controls - 1] = -0.0
    states = np.arange(n_states, dtype=float)
    if kernel_form:
        table = np.stack([np.bincount(rng.integers(0, n_states, 4), minlength=n_states) / 4
                          for _ in range(n_controls)])
        return FiniteModel(states, pair_state, control.astype(float), [], pair_cost,
                           kernel=table[control])
    if rng.integers(2):
        noise = np.full(n_atoms, 1.0 / n_atoms)
    else:
        noise = 0.05 + (1.0 - 0.05 * n_atoms) * rng.dirichlet(np.ones(n_atoms))
    codes = np.sort(rng.choice(n_states ** n_atoms, n_controls, replace=False))
    images = codes[:, None] // n_states ** np.arange(n_atoms - 1, -1, -1) % n_states
    return FiniteModel(states, pair_state, control.astype(float), noise, pair_cost,
                       images[control])


def scipy_row_selection(tensor, pairs):
    """The law's rows at pairs by scipy's fancy row indexing,
    rows[pair_row[pairs]], as TransitionTensor.law_at read them before."""
    return tensor.rows[tensor.pair_row[pairs]]


def scipy_chain_eye_minus_law(p_pi, decay, layout=sparse.csr_matrix):
    """I - decay P_pi by scipy's operator chain, the identity minus the
    scaled matrix, in CSR with its indices sorted, as spsolve sorts them;
    with layout=sparse.csc_matrix its transpose in CSC.  This is the
    assembly of discounted_values and discounted_occupation before
    model.eye_minus_law."""
    chain = sparse.identity(p_pi.shape[0], format="csr") - decay * p_pi
    chain.sort_indices()
    return chain if layout is sparse.csr_matrix else chain.T


def group_min_start(model, cost):
    """The first plan of policy iteration as found before dp._greedy_start:
    every state's lowest pair of least cost, by the argmin over every pair."""
    return group_min_oracle(model, cost)[1]


def scipy_chain_closed_classes(p_pi):
    """(chain, recurrent matrix, transient matrix): a dp.ClosedClasses whose
    matrices are assembled by scipy's sparse operator chain, identity minus
    the fancy-indexed blocks of P_pi, times a diagonal, plus the class
    indicator, each converted to CSC as dp._factor converts it."""
    chain = object.__new__(dp.ClosedClasses)
    p_pi = sparse.csr_matrix(p_pi)
    p_pi.eliminate_zeros()
    n_comp, comp = connected_components(p_pi, directed=True, connection="strong")
    rows, cols = p_pi.nonzero()
    leaving = comp[rows] != comp[cols]
    is_open = np.zeros(n_comp, dtype=bool)
    is_open[comp[rows[leaving]]] = True
    chain.rec = np.flatnonzero(~is_open[comp])
    chain.tra = np.flatnonzero(is_open[comp])
    _, first, inverse = np.unique(comp[chain.rec], return_index=True, return_inverse=True)
    chain._ref = first[inverse]
    chain.label = np.full(p_pi.shape[0], -1)
    chain.label[chain.rec] = inverse
    n_rec = len(chain.rec)
    chain._is_ref = chain._ref == np.arange(n_rec)
    indicator = sparse.csr_matrix((np.ones(n_rec), (np.arange(n_rec), chain._ref)),
                                  shape=(n_rec, n_rec))
    recurrent = sparse.csc_matrix((sparse.identity(n_rec) - p_pi[chain.rec][:, chain.rec])
                                  @ sparse.diags(1.0 - chain._is_ref) + indicator)
    chain._p_tr = p_pi[chain.tra][:, chain.rec]
    chain._p_tr_t = chain._p_tr.T
    transient = sparse.csc_matrix(sparse.identity(len(chain.tra))
                                  - p_pi[chain.tra][:, chain.tra])
    chain._lu_rec = splu(recurrent)
    chain._lu_tra = splu(transient) if len(chain.tra) else None
    return chain, recurrent, transient


def check_rows_one_by_one(model, weights):
    """Plan.check_against's test of a randomized plan's pair weights, one
    state at a time: ragged rows, then a dtype of neither integer nor float
    kind, then any shape but (n_pairs,) is refused, then the first state
    with a non-finite or negative weight, or whose weights, added left to
    right in Python floats, sum to a value off 1 by more than 1e-12, with
    ValueError."""
    try:
        w = np.array(weights)
    except ValueError as exc:
        raise ValueError(f"plan/model mismatch: randomized selector: {exc}") from exc
    if not (np.issubdtype(w.dtype, np.integer) or np.issubdtype(w.dtype, np.floating)):
        raise ValueError(f"plan/model mismatch: randomized selector of dtype {w.dtype} "
                         "is not numeric")
    if w.shape != (model.n_pairs,):
        raise ValueError(f"plan/model mismatch: randomized selector has shape {w.shape}, "
                         f"expected ({model.n_pairs},)")
    starts = model.state_pair_start.tolist()
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        row = w[a:b].tolist()
        if not all(math.isfinite(x) and x >= 0 for x in row):
            raise ValueError(f"plan/model mismatch: bad probability row at state {i}")
        total = 0.0
        for x in row:
            total += x
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"plan/model mismatch: row at state {i} sums to "
                             f"{np.float64(total)!r}")


def brute_force_finite_horizon(model, y0, T):
    """min over all staged deterministic plans of the exact T-stage average,
    by expanding every noise sequence."""
    tensor = transition(model)
    n_atoms = len(model.noise)
    probs = model.noise.tolist()
    sels = list(pair_choices(model))
    best = np.inf
    for stages in product(sels, repeat=T):
        total = 0.0
        for seq in product(range(n_atoms), repeat=T):
            p_seq = 1.0
            y = y0
            cost = 0.0
            for t in range(T):
                pair = stages[t][y]
                cost += model.pair_cost[pair]
                p_seq *= probs[seq[t]]
                y = int(tensor.next_idx[pair, seq[t]])
            total += p_seq * cost
        best = min(best, total / T)
    return best


def value_iteration(model, eps, tol=1e-10, max_sweeps=5_000_000):
    """Reference h_eps by value iteration from h = 0, stopped once the
    successive sup-norm change is <= tol*eps (fixed-point error <= tol by
    the (1-eps) contraction); returns (h, lowest-index greedy selector).
    Each sweep reads the dense law scaled by 1-eps, which costs less per
    sweep than the sparse one at these sizes (at most a few hundred pairs)."""
    law = (1.0 - eps) * law_matrix(model).toarray()
    k_eps = eps * model.pair_cost
    starts = model.state_pair_start[:-1]
    h = np.zeros(model.n_states)
    for _ in range(max_sweeps):
        h_new = np.minimum.reduceat(k_eps + law @ h, starts)
        delta = abs(h_new - h).max()
        h = h_new
        if delta <= tol * eps:
            break
    else:
        raise RuntimeError("value iteration failed to converge within the sweep cap")
    return h, group_min_oracle(model, k_eps + law @ h)[1]


def plan_law(model, pair_weights):
    """Sparse (n_states, n_states) law P_pi(y'|y) = sum_u pi(u|y) P(y'|y,u)
    of a stationary plan with per-pair weights pi(u|y), as the product of
    the state-by-pair weight matrix and the rows of the pairs it weights.
    The product leaves each row's column indices unsorted."""
    w = np.asarray(pair_weights, dtype=float)
    on = np.flatnonzero(w)
    to_state = sparse.csr_matrix((w[on], (model.pair_state[on], np.arange(len(on)))),
                                 shape=(model.n_states, len(on)))
    return to_state @ law_matrix(model)[on]


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


def membership_oracle(model, gamma, kind, eps=None, y0=None, xi=None):
    """Max-norm residual of the balance equations of W, W(eps, y0) or
    Omega(y0), each written out by hand with the pair-to-state marginal
    (np.bincount) and push, together with the mass defect |total(gamma) - 1|."""
    tensor = transition(model)

    def marginal(w):
        return np.bincount(model.pair_state, w, model.n_states)

    w = np.asarray(getattr(gamma, "weights", gamma), dtype=float)
    marg, pushed = marginal(w), tensor.push(w)
    mass_defect = abs(float(w.sum()) - 1.0)
    if kind == "W":
        return float(max(np.max(np.abs(marg - pushed)), mass_defect))
    if kind == "W_eps":
        r = marg - (1.0 - eps) * pushed
        r[y0] -= eps
        return float(max(np.max(np.abs(r)), mass_defect))
    wx = np.asarray(getattr(xi, "weights", xi), dtype=float)
    r2 = marginal(wx) - tensor.push(wx) + marg
    r2[y0] -= 1.0
    return float(max(np.max(np.abs(marg - pushed)), np.max(np.abs(r2)), mass_defect))
