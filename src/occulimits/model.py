"""Finite controlled stochastic recursions: state grid, controls, noise, dynamics, cost.

A model describes the recursion y(t+1) = f(y(t), u(t), s(t)) on a finite state
list with per-state finite control lists and finite-support i.i.d. noise.  The
transition law P(y'|y,u) is obtained by summing noise-atom probabilities over
atoms mapping (y,u) to y'.  Models loaded from files may instead carry the
transition rows directly (kernel mode).  A model is immutable: its per-pair
arrays and its law are compiled once, when it is constructed.
"""

import json
import math
import numbers

import numpy as np
from scipy import sparse

NOISE_NORMALIZATION_TOL = 1e-12
ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Raised for malformed model files or invalid builder parameters."""


class FiniteModel:
    """Immutable finite model of a controlled stochastic recursion.

    states is the (n_states, d_y) list of grid points and noise the
    probability of every noise atom (empty in kernel mode).  The admissible
    pairs (y, u) are numbered state by state, and the constructor takes
    arrays over them: pair_state, nondecreasing, the state of every pair,
    pair_control, (n_pairs, d_u), its control (a 1-D states or pair_control
    holds scalar points), pair_cost, k(y, u), and exactly one of next_idx, the
    (n_pairs, n_atoms) state index of every pair's image under every noise
    atom, or kernel, the dense (n_pairs, n_states) transition rows of a
    kernel-mode model; it keeps neither.  It refuses with ModelError any array
    it cannot use, freezes every array and builds the law that transition(model)
    returns, then refuses with one ModelError every problem that validate
    lists: a model that exists is valid.  Assigning any attribute raises.

    Attributes (every array read-only):
        states: (n_states, d_y) state coordinates.
        pair_control: (n_pairs, d_u) control value of every pair.
        noise: (n_atoms,) atom probabilities (empty in kernel mode).
        initial_index: optional distinguished initial state (builders set it).
        pair_state: state of every pair.
        state_pair_start: first pair of every state, then n_pairs.
        pair_cost: k(y, u) of every pair.

    at_pairs(x) spreads a per-state x over the pairs; state_sums(w) sums them
    back.  A control is named by its pair index; its place in its state's list
    exists only in model files.
    """

    def __init__(self, states, pair_state, pair_control, noise, pair_cost, next_idx=None,
                 kernel=None, initial_index=None):
        states = _points("states", states)
        n_states = len(states)
        pair_state = _indices("pair_state", pair_state, None, n_states, "pairs")
        if pair_state.ndim != 1 or np.any(np.diff(pair_state) < 0):
            raise ModelError(f"pair_state of shape {pair_state.shape} is not a nondecreasing list")
        n_pairs = len(pair_state)
        pair_control = _points("pair_control", pair_control)
        if pair_control.shape[0] != n_pairs or pair_control.shape[1] == 0:
            raise ModelError(f"pair_control has shape {pair_control.shape}, expected "
                             f"{n_pairs} rows of one positive dimension")
        starts = np.searchsorted(pair_state, np.arange(n_states + 1))
        sizes = np.diff(starts)
        pair_cost = _array("pair_cost", pair_cost, (n_pairs,))
        noise = _array("noise", noise, (len(noise),))
        if (next_idx is None) == (kernel is None):
            raise ModelError("exactly one of next_idx and kernel is required")
        if kernel is not None:
            kernel = sparse.csr_matrix(_array("kernel", kernel, (n_pairs, n_states)))
        else:
            next_idx = _indices("next_idx", next_idx, (n_pairs, len(noise)), n_states, "images")
        if initial_index is not None and not (np.issubdtype(type(initial_index), np.integer)
                                              and initial_index in range(n_states)):
            raise ModelError(f"initial_index {initial_index!r} outside the {n_states} states")
        fields = {"states": states, "pair_control": pair_control, "noise": noise,
                  "initial_index": None if initial_index is None else int(initial_index),
                  "state_pair_start": starts, "pair_state": pair_state, "_sizes": sizes,
                  "pair_cost": pair_cost}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_transition", build_transition_tensor(self, next_idx, kernel))
        problems = validate(self)
        if problems:
            raise ModelError("; ".join(problems))

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteModel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FiniteModel is immutable: cannot delete {name!r}")

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_pairs(self):
        return int(self.state_pair_start[-1])

    @property
    def cost_bound(self):
        """Bound M on |k|, computed from the table rather than user-supplied."""
        return float(np.max(np.abs(self.pair_cost)))

    def at_pairs(self, x):
        """x(y) at every pair (y, u), x[pair_state] bit for bit, read by
        np.repeat since the pairs are numbered state by state; x holds one
        entry (or row) per state."""
        return np.repeat(x, self._sizes, axis=0)

    def state_sums(self, w):
        """E w, np.bincount(pair_state, w) bit for bit, as a CSR product: a row
        per state, w its data, times [1.0], whose running sums stay in registers."""
        return sparse.csr_matrix((np.asarray(w, dtype=float), np.zeros(len(w), dtype=np.int32),
                                  self.state_pair_start), shape=(self.n_states, 1)) @ np.ones(1)

    def check_y0(self, y0):
        """Refuse an initial state that is not a state index with ValueError."""
        if not (np.issubdtype(type(y0), np.integer) and 0 <= y0 < self.n_states):
            raise ValueError(f"y0={y0!r} is not an index of the {self.n_states} states")

    def nearest_state(self, value):
        """Index of the state whose first coordinate is closest to value."""
        if not math.isfinite(value):
            raise ValueError(f"state value {value!r} is not finite")
        return int(np.argmin(np.abs(self.states[:, 0] - value)))


def numeric_array(name, value, shape=None, dtype=None):
    """value as an array (cast to dtype, if given) of integer or float kind
    and of the given shape, else ValueError naming it: the one check of an
    array argument.  It copies only to convert or cast, so an array of the
    right dtype comes back as itself: a caller that keeps it copies it.
    Finiteness and sign are each caller's to check."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{name}: {exc}") from exc
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} of dtype {array.dtype} is not numeric")
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array if dtype is None else array.astype(dtype, copy=False)


def _array(name, value, shape=None, dtype=float):
    """A copy of numeric_array's array, which the model keeps, refusing with ModelError."""
    try:
        return numeric_array(name, value, shape, dtype).copy()
    except ValueError as exc:
        raise ModelError(str(exc)) from exc


def _indices(name, value, shape, n_states, what):
    """value as a new int64 array of the given shape holding state indices, else ModelError."""
    array = _array(name, value, shape, None)
    if np.any(array != np.round(array)):
        raise ModelError(f"{name} is not integer-valued")
    if np.any((array < 0) | (array >= n_states)):
        raise ModelError(f"{name} has {what} outside the {n_states} states")
    return array.astype(np.int64, copy=False)


def _points(name, value):
    """value as a new float array with one row per point, a 1-D value
    holding scalar points, else ModelError."""
    array = _array(name, value)
    if array.ndim == 1:
        return array[:, None]
    if array.ndim != 2:
        raise ModelError(f"{name} has shape {array.shape}, expected one row per point")
    return array


class TransitionTensor:
    """Transition law P(y'|y,u) of every admissible pair, held once for both
    model kinds: rows, a read-only sparse CSR matrix of the law's distinct
    rows, and pair_row, the row of every pair, so the law (pairs by states)
    is rows[pair_row] and a plan's law P_pi is rows[pair_row[pairs]] at its
    pairs.  rows_t is rows.T, built once and sharing rows' read-only
    arrays, which push reads.  row_images, the (n_rows, n_atoms) image of
    every distinct row under every noise atom, is None for a kernel-row model,
    whose rows are its kernel; next_idx is row_images[pair_row].  run_min_at
    is, when the model has state runs (see _run_min_at), every state's
    read-only entry of dp._StageMin's running-minimum buffer, else None.
    The tensor holds no reference to its model, so a model is freed with
    its last reference.
    """

    def __init__(self, rows, pair_row, row_images, run_min_at):
        self.rows, self.pair_row, self.row_images = rows, pair_row, row_images
        self.run_min_at = run_min_at
        self.rows_t = rows.T

    @property
    def next_idx(self):
        return None if self.row_images is None else self.row_images[self.pair_row]

    def expect(self, values, scale=1.0):
        """scale * E[values(f(y,u,s))] for every pair, as a (n_pairs,) vector,
        values being one number per state (numeric_array's check, else
        ValueError).  The scale multiplies the distinct rows' values before
        they are read at the pairs, which is bit for bit the product after."""
        values = numeric_array("values", values, (self.rows.shape[1],), float)
        row_values = self.rows @ values
        if scale != 1.0:
            row_values *= scale
        return row_values[self.pair_row]

    def law_at(self, pairs):
        """rows[pair_row[pairs]] in CSR, a plan's law P_pi or the whole law: the
        arrays of scipy's row selection, read from rows' without its checks."""
        indptr, r = self.rows.indptr, self.pair_row[pairs]
        counts = indptr[r + 1] - indptr[r]
        out = np.concatenate([[0], np.cumsum(counts)])
        take = np.arange(out[-1]) + np.repeat(indptr[r] - out[:-1], counts)
        return sparse.csr_matrix((self.rows.data[take], self.rows.indices[take], out),
                                 shape=(len(r), self.rows.shape[1]))

    def push(self, pair_mass):
        """Forward image sum_(y,u) mass(y,u) P(.|y,u), summed per distinct row
        first, pair_mass being one number per pair (numeric_array's check,
        else ValueError)."""
        pair_mass = numeric_array("pair_mass", pair_mass, self.pair_row.shape, float)
        return self.rows_t @ np.bincount(self.pair_row, pair_mass, self.rows.shape[0])


def _distinct_rows(next_idx, n_states):
    """(first, pair_row): the first pair of every distinct row of next_idx
    and every pair's distinct row.  The columns are folded one at a time
    into one int64 key below bound; before a fold could overflow, the key
    is replaced by its rank, which is below n_pairs."""
    key, bound = np.zeros(len(next_idx), dtype=np.int64), 1
    for column in next_idx.T:
        if bound * n_states > np.iinfo(np.int64).max:
            key, bound = np.unique(key, return_inverse=True)[1], len(key)
        key, bound = key * n_states + column, bound * n_states
    _, first, pair_row = np.unique(key, return_index=True, return_inverse=True)
    return first, pair_row


def _run_min_at(model, pair_row, n_rows):
    """Each state's entry of the running-minimum buffer, end_y - 1 for a
    prefix run (lo_y = 0), else n_rows + lo_y, when the model has state runs:
    every state's pairs have one cost, bit for bit, and read the consecutive
    increasing rows lo_y..end_y - 1, and every run is a prefix or a suffix
    (end_y = n_rows) of the rows; else None.  A prefix's or a suffix's
    minimum is one entry of a running minimum, which dp._StageMin reads in
    place of a reduction over the run."""
    if not model._sizes.all():  # an empty U(y), refused by validate
        return None
    starts = model.state_pair_start
    bits = model.pair_cost.view(np.int64)
    # a pair and the next one: the same cost and the next row
    follows = (bits[1:] == bits[:-1]) & (np.diff(pair_row) == 1)
    follows[starts[1:-1] - 1] = True  # unless the next pair is the next state's
    lo, end = pair_row[starts[:-1]], pair_row[starts[1:] - 1] + 1
    if not (follows.all() and np.all((lo == 0) | (end == n_rows))):
        return None
    at = np.where(lo == 0, end - 1, n_rows + lo)
    at.flags.writeable = False
    return at


def build_transition_tensor(model, next_idx, kernel):
    """Build P(y'|y,u) = sum over noise atoms s with f(y,u,s)=y' of prob(s)
    once per distinct row of the image table next_idx, or take the kernel
    rows of a kernel-mode model (next_idx None), and find the model's state
    runs; the model constructor calls this once, with its checked inputs."""
    if next_idx is None:
        rows, pair_row, row_images = kernel, np.arange(model.n_pairs), None
    else:
        first, pair_row = _distinct_rows(next_idx, model.n_states)
        row_images = next_idx[first]
        n_rows, n_atoms = row_images.shape
        # atoms sharing an image are summed into one entry
        rows = sparse.csr_matrix((np.tile(model.noise, n_rows),
                                  (np.repeat(np.arange(n_rows), n_atoms), row_images.ravel())),
                                 shape=(n_rows, model.n_states))
        row_images.flags.writeable = False
    for part in (rows.data, rows.indices, rows.indptr, pair_row):
        part.flags.writeable = False
    return TransitionTensor(rows, pair_row, row_images,
                            _run_min_at(model, pair_row, rows.shape[0]))


def transition(model):
    """The TransitionTensor of a model, built with the model."""
    return model._transition


def eye_minus(row, col, val, n, ref=None, layout=sparse.csc_matrix):
    """I - Q as an n x n CSC matrix, Q holding val at (row, col), each
    position at most once; with ref, the column of every reference y
    (ref[y] == y) is replaced by the indicator of its class, the x with
    ref[x] == y.  The entries are ordered by column and then row, and exact
    zeros are dropped, as scipy's sums and products drop them; with
    layout=sparse.csr_matrix, the same arrays give the transpose."""
    off = row != col
    diag = np.ones(n)
    diag[row[~off]] = 1.0 - val[~off]  # the diagonal of Q, at most once per state
    row = np.concatenate([row[off], np.arange(n)])
    col = np.concatenate([col[off], np.arange(n)])
    val = np.concatenate([-val[off], diag])
    if ref is not None:
        kept = col != ref[col]
        row = np.concatenate([row[kept], np.arange(n)])
        col = np.concatenate([col[kept], ref])
        val = np.concatenate([val[kept], np.ones(n)])
    order = np.argsort(col * np.int64(n) + row, kind="stable")  # one key per position
    order = order[val[order] != 0]
    indptr = np.searchsorted(col[order], np.arange(n + 1)).astype(np.int32)
    return layout((val[order], row[order].astype(np.int32), indptr), shape=(n, n))


def eye_minus_law(p_pi, decay, layout=sparse.csr_matrix):
    """I - decay P_pi by eye_minus, in CSR (in CSC, its transpose, with layout=sparse.csc_matrix):
    scipy's identity(n) - decay * P_pi, sorted.  P_pi's indices are sorted in place."""
    n = p_pi.shape[0]
    p_pi.sort_indices()
    return eye_minus(p_pi.indices, np.repeat(np.arange(n), np.diff(p_pi.indptr)),
                     decay * p_pi.data, n, layout=layout)


def validate(model):
    """Every violated FiniteModel invariant, one message each, checked on the
    model's arrays.  Input those arrays cannot hold (ragged rows, controls of
    several dimensions) is refused by the constructor before this runs, and
    the constructor refuses a model on which this list is nonempty, so for
    any constructed model it is []."""
    report = []
    if model.n_states == 0:
        report.append("model has no states")
    elif model.states.shape[1] == 0:
        report.append("states need one positive coordinate dimension, have [0]")
    for i in np.flatnonzero(~np.isfinite(model.states).all(axis=1)):
        report.append(f"state {i} has non-finite coordinates")
    for i in np.flatnonzero(np.diff(model.state_pair_start) == 0):
        report.append(f"empty U(y) at state {i}")
    if not np.isfinite(model.pair_control).all():
        report.append("control values are not all finite")
    tensor = transition(model)
    if tensor.row_images is not None:
        total = sum(model.noise.tolist())  # left to right; numpy pairs the terms
        if abs(total - 1.0) > NOISE_NORMALIZATION_TOL:
            report.append(f"noise not normalized (sum={total!r})")
        for a in np.flatnonzero(~((model.noise > 0.0) & (model.noise <= 1.0))):
            report.append(f"noise atom {a} has probability {model.noise[a].item()!r} "
                          "outside (0,1]")
    elif not np.all(np.isfinite(tensor.rows.data)):
        report.append("transition rows contain non-finite entries")
    else:
        if tensor.rows.data.min(initial=0.0) < 0:
            report.append("transition rows contain negative entries")
        bad = np.abs(np.asarray(tensor.rows.sum(axis=1)).ravel() - 1.0) > ROW_SUM_TOL
        if bad.any():
            report.append(f"{int(bad.sum())} transition rows do not sum to 1")
    if not np.all(np.isfinite(model.pair_cost)):
        report.append("cost table has non-finite entries")
    return report


# ---------------------------------------------------------------------------
# builders for the two reference models
# ---------------------------------------------------------------------------

def _sign_flip_model(values, initial_index=None):
    """Recursion y(t+1) = y(t)u(t)s(t) on an ascending sign-symmetric value list.

    Controls are {-1, +1} at every state, the noise takes s=+1 with
    probability 3/4 and s=-1 with probability 1/4, and the cost is k(y,u) = y.
    The list is closed under the recursion, so no snapping is involved.
    """
    y = np.array(values)
    pair_state, u = np.repeat(np.arange(len(values)), 2), np.tile([-1.0, 1.0], len(values))
    # (y u) s for u = -1, +1 per state and s = +1, -1 per atom
    images = (y[pair_state] * u)[:, None] * [1.0, -1.0]
    return FiniteModel(
        states=y, pair_state=pair_state, pair_control=u,
        noise=[0.75, 0.25],  # s=+1, s=-1
        pair_cost=y[pair_state], next_idx=np.searchsorted(y, images),
        initial_index=initial_index)


def _parameter(name, value):
    """value, a builder's parameter, when it is a number, not a bool; else ModelError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{name}={value!r} is not a number")
    return value


def example1_model(y0):
    """Two-state example-1 model on {-|y0|, +|y0|}, the only states reachable
    from y0, with y0 as its initial state; y0 must be a number (not a bool)."""
    _parameter("y0", y0)
    if not (-1.0 <= y0 <= 1.0):
        raise ModelError(f"y0={y0!r} outside [-1, 1]")
    if y0 == 0.0:
        raise ModelError("y0=0 degenerates to the single absorbing state {0}")
    values = [-abs(y0), abs(y0)]
    return _sign_flip_model(values, initial_index=values.index(y0))


def example1_family_model(y0s):
    """Union of example-1 two-state classes over a grid of |y0| values.

    The classes do not communicate; the family model exposes the full-range
    ergodic quantities (k* = -1/2 is attained on the |y0| = 1 class).
    """
    mags = sorted({abs(_parameter("magnitude", y)) for y in y0s})
    if not all(0 < m <= 1 for m in mags):
        raise ModelError("family magnitudes must lie in (0, 1]")
    return _sign_flip_model(sorted({v for m in mags for v in (-m, m)}))


def example2_model(m, control_step=None):
    """Dyadic-grid model of y(t+1) = u(t)s(t) with U(y) = [-1,y] / [y,1].

    States are the multiples of 2^-m in [-1, 1].  U(y)'s grid is its endpoints
    lo and hi and the multiples of control_step (a multiple of the grid step)
    between them; it holds y: lo when y > 0, hi when y < 0, the multiple 0 at
    y = 0.  Noise: s=1 w.p. 1/2, s=1/4 w.p. 1/2.  Cost k(y,u) = y.

    Images u*s snap to the nearest grid point, ties toward 0, preserving sign:
    a strictly positive image never snaps to 0 or below (it floors at +step),
    and symmetrically for negative ones, so the positive and negative orbits
    of the recursion cannot cross through the origin, as in the continuum.
    m must be an integer from 2 to np.iinfo(np.intp).bits - 3, the largest
    m whose 2^(m+1)+1 states fit np.intp, and control_step a number; anything
    else is refused with ModelError before any array is allocated.
    """
    bits = np.iinfo(np.intp).bits
    if not (np.issubdtype(type(m), np.integer) and 2 <= m <= bits - 3):
        raise ModelError(f"grid exponent m={m!r} must be an integer from 2 to {bits - 3}, "
                         "so that its 2^(m+1)+1 states fit the platform's index range")
    m = int(m)
    step = 2.0 ** (-m)
    control_step = step if control_step is None else _parameter("control_step", control_step)
    if not (math.isfinite(control_step) and control_step > step / 2
            and abs(math.remainder(control_step, step)) <= 1e-9 * step):
        raise ModelError(f"control_step={control_step!r} is not a positive multiple "
                         f"of the grid step {step!r}")
    n_half = 2 ** m
    n_states = 2 * n_half + 1
    values = np.arange(-n_half, n_half + 1) * step
    lo = np.where(values > 0, values, -1.0)
    hi = np.where(values < 0, values, 1.0)
    # each state's controls, increasing: k * control_step clipped into [lo, hi] for k
    # from below lo (it clips to lo) to above hi (to hi); equal neighbours are dropped
    k_lo = np.ceil(lo / control_step - 1e-12).astype(np.int64) - 1
    counts = np.floor(hi / control_step + 1e-12).astype(np.int64) + 2 - k_lo
    owner = np.repeat(np.arange(n_states), counts)
    k = k_lo[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    u = np.clip(k * control_step, lo[owner], hi[owner])
    fresh = np.ones(len(u), dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (u[1:] != u[:-1])
    pair_state, u = owner[fresh], u[fresh]
    images = u[:, None] * [1.0, 0.25]  # s=1, s=1/4
    mag = np.abs(images) / step
    k = np.floor(mag + 0.5)
    k -= k - mag == 0.5
    return FiniteModel(
        states=values, pair_state=pair_state, pair_control=u, noise=[0.5, 0.5],  # s=1, s=1/4
        pair_cost=values[pair_state],
        next_idx=n_half + np.sign(images) * np.maximum(k, 1))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

_TOP_LEVEL_FIELDS = {"states", "controls", "noise", "dynamics", "transition",
                     "cost", "initial_state"}


def _index(value):
    """A JSON index: a non-negative integer, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{value!r} is not a non-negative integer index")
    return value


def _number(value):
    """A JSON number as a float, never a bool, a string or an integer beyond
    the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc


def load_model(path):
    """Load and validate a FiniteModel from a JSON model file.

    The file carries either a (dynamics + noise) pair or an explicit dense
    transition tensor; see README for the schema.  Its rows fill the model's
    arrays directly.  Noise ids live only in the file: each distinct id names
    one atom, that is one column of next_idx, in the order the atoms are
    listed.  Raises ModelError with the offending field or row named on any
    schema violation, and, from the constructor, on any invariant that
    validate lists.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer literal
        raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("top-level value must be an object")
    unknown = set(doc) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ModelError(f"unknown field {sorted(unknown)[0]!r}")
    for required in ("states", "controls", "cost"):
        if required not in doc:
            raise ModelError(f"missing field {required!r}")
    if ("dynamics" in doc) == ("transition" in doc):
        raise ModelError("exactly one of 'dynamics' or 'transition' is required")
    if "dynamics" in doc and "noise" not in doc:
        raise ModelError("missing field 'noise' (required with 'dynamics')")
    for name in ("cost", "noise", "dynamics"):
        if name in doc and not isinstance(doc[name], list):
            raise ModelError(f"field {name!r} must be a list")

    try:
        states = [[_number(c) for c in coords] for coords in doc["states"]]
    except (TypeError, ValueError) as exc:
        raise ModelError(f"field 'states': {exc}") from exc

    ctrl = doc["controls"]
    if not isinstance(ctrl, dict):
        raise ModelError("field 'controls' must be an object")
    if "shared" in ctrl:
        try:
            shared = [tuple(_number(c) for c in u) for u in ctrl["shared"]]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"field 'controls.shared': {exc}") from exc
        controls = [shared] * len(states)
    elif "per_state" in ctrl:
        if "control_values" not in ctrl:
            raise ModelError("field 'controls.control_values' required with 'per_state'")
        try:
            cvals = [tuple(_number(c) for c in u) for u in ctrl["control_values"]]
            controls = [[cvals[_index(j)] for j in idxs] for idxs in ctrl["per_state"]]
        except IndexError as exc:
            raise ModelError(f"field 'controls.per_state': index out of range ({exc})") from exc
        except (TypeError, ValueError) as exc:
            raise ModelError(f"field 'controls': {exc}") from exc
        if len(controls) != len(states):
            raise ModelError("field 'controls.per_state' must have one entry per state")
    else:
        raise ModelError("field 'controls' needs either 'shared' or 'per_state'")
    values, field = (shared, "shared") if "shared" in ctrl else (cvals, "control_values")
    for j, u in enumerate(values):  # each of the first value's dimension
        if len(u) != len(values[0]):
            raise ModelError(f"field 'controls.{field}': entry {j} {list(u)} has {len(u)} "
                             f"coordinates, entry 0 {list(values[0])} has {len(values[0])}")

    pairs = [(i, l) for i, cs in enumerate(controls) for l in range(len(cs))]
    pair_of = {key: p for p, key in enumerate(pairs)}
    pair_cost = np.zeros(len(pair_of))
    seen = set()
    for row in doc["cost"]:
        try:
            key, value = (_index(row["state"]), _index(row["control"])), _number(row["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"field 'cost': bad row {row!r} ({exc})") from exc
        if key in seen:
            raise ModelError(f"field 'cost': duplicate row {row!r}")
        if key not in pair_of:
            raise ModelError(f"field 'cost': row {row!r} outside the admissible pairs")
        seen.add(key)
        pair_cost[pair_of[key]] = value
    if len(seen) < len(pair_of):
        missing = [key for key in pairs if key not in seen][:3]
        raise ModelError(f"field 'cost': incomplete table (missing {missing})")

    ids, noise, next_idx, kernel = [], [], None, None
    if "dynamics" in doc:
        for row in doc["noise"]:
            try:
                atom = _index(row["id"]), _number(row["prob"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"field 'noise': bad row {row!r} ({exc})") from exc
            ids.append(atom[0])
            noise.append(atom[1])
        column = {atom_id: a for a, atom_id in enumerate(ids)}
        if len(column) < len(ids):
            raise ModelError("noise atom ids are not unique")
        next_idx = np.full((len(pair_of), len(noise)), -1, dtype=np.int64)
        for row in doc["dynamics"]:
            try:
                i, l, s, nxt = (_index(row[name])
                                for name in ("state", "control", "noise_id", "next_state"))
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"field 'dynamics': bad row {row!r} ({exc})") from exc
            if (i, l) not in pair_of or s not in column:
                raise ModelError(f"field 'dynamics': row {row!r} outside the admissible triples")
            if nxt >= len(states):
                raise ModelError(f"dynamics image {nxt} outside state list for "
                                 f"(state={i}, control={l}, noise={s})")
            cell = pair_of[(i, l)], column[s]
            if next_idx[cell] >= 0:
                raise ModelError(f"field 'dynamics': duplicate row {row!r}")
            next_idx[cell] = nxt
        if np.any(next_idx < 0):
            p, a = np.argwhere(next_idx < 0)[0]
            i, l = pairs[p]
            raise ModelError(f"dynamics missing for (state={i}, control={l}, "
                             f"noise={ids[a]})")
    else:
        try:
            kernel = np.array([[_number(v) for v in doc["transition"][i][l]] for i, l in pairs])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"field 'transition': {exc}") from exc

    initial_index = doc.get("initial_state")
    if initial_index is not None:
        try:
            initial_index = _index(initial_index)
        except ValueError as exc:
            raise ModelError(f"field 'initial_state': {exc}") from exc
        if initial_index >= len(states):
            raise ModelError(f"field 'initial_state': index {initial_index} out of range")

    return FiniteModel(states, [i for i, _ in pairs], [u for cs in controls for u in cs],
                       noise, pair_cost, next_idx, kernel, initial_index)


def save_model(model, path):
    """Write a FiniteModel out in the JSON schema accepted by load_model.  The
    noise atoms get the ids 0..n_atoms-1 in their order; the ids a loaded
    file carried are not kept."""
    tensor = transition(model)
    pairs = [(i, l) for i, n_c in enumerate(model._sizes.tolist()) for l in range(n_c)]
    doc = {
        "states": model.states.tolist(),
        "controls": _controls_doc(model),
        "cost": [{"state": i, "control": l, "value": c}
                 for (i, l), c in zip(pairs, model.pair_cost.tolist())],
    }
    if tensor.row_images is None:
        rows, starts = tensor.rows.toarray().tolist(), model.state_pair_start.tolist()
        doc["transition"] = [rows[a:b] for a, b in zip(starts, starts[1:])]
    else:
        doc["noise"] = [{"id": a, "prob": p} for a, p in enumerate(model.noise.tolist())]
        doc["dynamics"] = [
            {"state": i, "control": l, "noise_id": a, "next_state": nxt}
            for (i, l), row in zip(pairs, tensor.next_idx.tolist())
            for a, nxt in enumerate(row)
        ]
    if model.initial_index is not None:
        doc["initial_state"] = model.initial_index
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _controls_doc(model):
    """The per_state controls field: every distinct control value once, in
    order of first appearance, and each state's controls as indices into it."""
    _, first, inverse = np.unique(model.pair_control, axis=0, return_index=True,
                                  return_inverse=True)
    index = np.argsort(np.argsort(first))[inverse.ravel()]
    per_state = np.split(index, model.state_pair_start[1:-1])
    return {"per_state": [idxs.tolist() for idxs in per_state],
            "control_values": model.pair_control[np.sort(first)].tolist()}
