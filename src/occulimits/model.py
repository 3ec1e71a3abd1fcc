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
from dataclasses import dataclass

import numpy as np
from scipy import sparse

NOISE_NORMALIZATION_TOL = 1e-12
ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Raised for malformed model files or invalid builder parameters."""


@dataclass(frozen=True)
class StatePoint:
    """A grid point of the state space with its position in the state list."""

    coords: tuple
    index: int


@dataclass(frozen=True)
class NoiseAtom:
    """One atom of the finite-support noise distribution."""

    id: int
    prob: float


class FiniteModel:
    """Immutable finite model of a controlled stochastic recursion.

    The admissible pairs (y, u) are numbered state by state.  The constructor
    takes the compiled arrays over them: pair_cost, k(y, u) of every pair, and
    exactly one of next_idx, the (n_pairs, n_atoms) state index of every
    pair's image under every noise atom, or kernel, the dense (n_pairs,
    n_states) transition rows of a kernel-mode model.  It refuses with
    ModelError any array it cannot use, freezes every array and builds the
    transition law that transition(model) returns.  Assigning any attribute
    raises.

    Attributes:
        states: tuple of StatePoint.
        controls: per-state tuples of control value tuples.
        noise: tuple of NoiseAtom (empty in kernel mode).
        initial_index: optional distinguished initial state (builders set it).
        pair_state, pair_local: state and local control index of every pair.
        state_pair_start: first pair of every state, then n_pairs.
        pair_cost: k(y, u) of every pair.
    """

    def __init__(self, states, controls, noise, pair_cost, next_idx=None, kernel=None,
                 initial_index=None):
        n_states = len(states)
        if len(controls) != n_states:
            raise ModelError(f"{len(controls)} control lists for {n_states} states")
        sizes = np.array([len(cs) for cs in controls], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        pair_state = np.repeat(np.arange(n_states), sizes)
        n_pairs = int(starts[-1])
        pair_cost = _checked_array("pair_cost", pair_cost, float, (n_pairs,))
        if (next_idx is None) == (kernel is None):
            raise ModelError("exactly one of next_idx and kernel is required")
        if kernel is not None:
            kernel = sparse.csr_matrix(_checked_array("kernel", kernel, float,
                                                      (n_pairs, n_states)))
        else:
            next_idx = _checked_array("next_idx", next_idx, None, (n_pairs, len(noise)))
            if next_idx.dtype.kind not in "iuf" or np.any(next_idx != np.round(next_idx)):
                raise ModelError("next_idx is not integer-valued")
            if np.any((next_idx < 0) | (next_idx >= n_states)):
                raise ModelError(f"next_idx has images outside the {n_states} states")
            next_idx = next_idx.astype(np.int64)
        if initial_index is not None and initial_index not in range(n_states):
            raise ModelError(f"initial_index {initial_index!r} outside the {n_states} states")
        fields = {"states": tuple(states), "controls": tuple(map(tuple, controls)),
                  "noise": tuple(noise), "initial_index": initial_index,
                  "state_pair_start": starts, "pair_state": pair_state,
                  "pair_local": np.arange(n_pairs) - starts[pair_state],
                  "pair_cost": pair_cost,
                  # the law's inputs, read by build_transition_tensor
                  "_next_idx": next_idx, "_kernel": kernel}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_transition", build_transition_tensor(self))

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
        return float(np.max(np.abs(self.pair_cost))) if self.n_pairs else 0.0

    def pair_index(self, state, local):
        return int(self.state_pair_start[state]) + local

    def state_values(self):
        """First coordinate of every state, as a vector (for 1-d models)."""
        return np.array([s.coords[0] for s in self.states])

    def control_value(self, state, local):
        return self.controls[state][local]

    def check_y0(self, y0):
        """Refuse an initial state that is not a state index with ValueError."""
        if not (isinstance(y0, (int, np.integer)) and 0 <= y0 < self.n_states):
            raise ValueError(f"y0={y0!r} is not an index of the {self.n_states} states")

    def nearest_state(self, value):
        """Index of the state whose first coordinate is closest to value."""
        if not math.isfinite(value):
            raise ValueError(f"state value {value!r} is not finite")
        return int(np.argmin(np.abs(self.state_values() - value)))


def _checked_array(name, value, dtype, shape):
    """value as a new array of the given shape, else ModelError."""
    try:
        array = np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{name}: {exc}") from exc
    if array.shape != shape:
        raise ModelError(f"{name} has shape {array.shape}, expected {shape}")
    return array


class TransitionTensor:
    """Transition law P(y'|y,u) of every admissible pair, held as one
    read-only sparse CSR matrix P of shape (n_pairs, n_states) and read the
    same way for both model kinds.

    Dynamics models also keep next_idx, the (n_pairs, n_atoms) image of every
    pair under every noise atom; kernel-row models have next_idx None.
    """

    def __init__(self, model, P, next_idx=None):
        self.model = model
        self.P = P
        self.next_idx = next_idx

    def expect(self, values):
        """E[values(f(y,u,s))] for every pair, as a (n_pairs,) vector."""
        return self.P @ np.asarray(values, dtype=float)

    def push(self, pair_mass):
        """Forward image: sum_(y,u) mass(y,u) P(.|y,u), a vector over states."""
        return self.P.T @ np.asarray(pair_mass, dtype=float)

    def row(self, p):
        """Dense probability row of pair p over states."""
        return self.P[p].toarray().ravel()

    def plan_matrix(self, pair_weights):
        """Sparse (n_states, n_states) law P_pi(y'|y) = sum_u pi(u|y) P(y'|y,u)
        of a stationary plan with per-pair weights pi(u|y)."""
        w = np.asarray(pair_weights, dtype=float)
        on = np.flatnonzero(w)
        to_state = sparse.csr_matrix((w[on], (self.model.pair_state[on], np.arange(len(on)))),
                                     shape=(self.model.n_states, len(on)))
        return to_state @ self.P[on]


def build_transition_tensor(model):
    """Build P(y'|y,u) = sum over noise atoms s with f(y,u,s)=y' of prob(s)
    from the model's image table, or take a kernel-mode model's rows; the
    model constructor calls this once."""
    P, next_idx = model._kernel, model._next_idx
    if P is None:
        n_pairs, n_atoms = next_idx.shape
        probs = np.array([atom.prob for atom in model.noise])
        # atoms sharing an image are summed into one entry
        P = sparse.csr_matrix((np.tile(probs, n_pairs),
                               (np.repeat(np.arange(n_pairs), n_atoms), next_idx.ravel())),
                              shape=(n_pairs, model.n_states))
    for part in (P.data, P.indices, P.indptr):
        part.flags.writeable = False
    return TransitionTensor(model, P, next_idx)


def transition(model):
    """The TransitionTensor of a model, built with the model."""
    return model._transition


def validate(model):
    """Check every FiniteModel invariant; returns a list of violations (empty = valid)."""
    report = []
    dims = {len(sp.coords) for sp in model.states}
    if not dims:
        report.append("model has no states")
    elif len(dims) > 1 or 0 in dims:
        report.append(f"states need one positive coordinate dimension, have {sorted(dims)}")
    seen = set()
    for i, sp in enumerate(model.states):
        if sp.index != i:
            report.append(f"state {i} carries index {sp.index}")
        if sp.index in seen:
            report.append(f"duplicate state index {sp.index}")
        seen.add(sp.index)
        if not all(math.isfinite(c) for c in sp.coords):
            report.append(f"state {i} has non-finite coordinates")
    for i, cs in enumerate(model.controls):
        if len(cs) == 0:
            report.append(f"empty U(y) at state {i}")
    dims = {len(u) for cs in model.controls for u in cs}
    if len(dims) > 1 or 0 in dims:
        report.append(f"controls need one positive dimension, have {sorted(dims)}")
    if not all(math.isfinite(c) for cs in model.controls for u in cs for c in u):
        report.append("control values are not all finite")
    tensor = transition(model)
    if tensor.next_idx is not None:
        total = sum(a.prob for a in model.noise)
        if abs(total - 1.0) > NOISE_NORMALIZATION_TOL:
            report.append(f"noise not normalized (sum={total!r})")
        for a in model.noise:
            if not (0.0 < a.prob <= 1.0):
                report.append(f"noise atom {a.id} has probability {a.prob!r} outside (0,1]")
        if len({a.id for a in model.noise}) != len(model.noise):
            report.append("noise atom ids are not unique")
    elif not np.all(np.isfinite(tensor.P.data)):
        report.append("transition rows contain non-finite entries")
    else:
        if tensor.P.data.min(initial=0.0) < 0:
            report.append("transition rows contain negative entries")
        bad = np.abs(np.asarray(tensor.P.sum(axis=1)).ravel() - 1.0) > ROW_SUM_TOL
        if bad.any():
            report.append(f"{int(bad.sum())} transition rows do not sum to 1")
    if model.n_pairs and not np.all(np.isfinite(model.pair_cost)):
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
    pair_state = np.repeat(np.arange(len(values)), 2)
    # (y u) s for u = -1, +1 per state and s = +1, -1 per atom
    images = (y[pair_state] * np.tile([-1.0, 1.0], len(values)))[:, None] * [1.0, -1.0]
    return FiniteModel(
        states=[StatePoint((v,), i) for i, v in enumerate(values)],
        controls=[((-1.0,), (1.0,))] * len(values),
        noise=[NoiseAtom(0, 0.75), NoiseAtom(1, 0.25)],  # s=+1, s=-1
        pair_cost=y[pair_state], next_idx=np.searchsorted(y, images),
        initial_index=initial_index)


def example1_model(y0):
    """Two-state example-1 model on {-|y0|, +|y0|}, the only states reachable
    from y0, with y0 as its initial state."""
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
    mags = sorted({abs(y) for y in y0s})
    if any(m == 0 or m > 1 for m in mags):
        raise ModelError("family magnitudes must lie in (0, 1]")
    return _sign_flip_model(sorted({v for m in mags for v in (-m, m)}))


def example2_model(m, control_step=None):
    """Dyadic-grid model of y(t+1) = u(t)s(t) with U(y) = [-1,y] / [y,1].

    States are the multiples of 2^-m in [-1, 1].  Each state's control grid
    discretizes its admissible interval with spacing control_step (a multiple
    of the grid step) and always contains the interval endpoints and the point
    y itself.  Noise: s=1 w.p. 1/2, s=1/4 w.p. 1/2.  Cost k(y,u) = y.

    Images u*s snap to the nearest grid point, ties toward 0, preserving sign:
    a strictly positive image never snaps to 0 or below (it floors at +step),
    and symmetrically for negative ones, so the positive and negative orbits
    of the recursion cannot cross through the origin, as in the continuum.
    """
    if m < 2:
        raise ModelError(f"grid exponent m={m} must be >= 2")
    step = 2.0 ** (-m)
    if control_step is None:
        control_step = step
    ratio = control_step / step
    if not math.isfinite(control_step) or control_step <= 0 or \
            abs(ratio - round(ratio)) > 1e-9:
        raise ModelError(f"control_step={control_step!r} is not a positive multiple "
                         f"of the grid step {step!r}")
    n_half = 2 ** m
    n_states = 2 * n_half + 1
    values = np.arange(-n_half, n_half + 1) * step
    lo = np.where(values > 0, values, -1.0)
    hi = np.where(values < 0, values, 1.0)
    # candidate controls: the multiples of control_step in [lo, hi], then
    # lo, hi and y; sorted and deduplicated within each state
    k_lo = np.ceil(lo / control_step - 1e-12).astype(np.int64)
    counts = np.floor(hi / control_step + 1e-12).astype(np.int64) - k_lo + 1
    owner = np.repeat(np.arange(n_states), counts)
    k = k_lo[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    state = np.concatenate([owner, np.tile(np.arange(n_states), 3)])
    u = np.concatenate([k * control_step, lo, hi, values])
    order = np.lexsort((u, state))
    state, u = state[order], u[order]
    fresh = np.ones(len(u), dtype=bool)
    fresh[1:] = (state[1:] != state[:-1]) | (u[1:] != u[:-1])
    pair_state, u = state[fresh], u[fresh]
    images = u[:, None] * [1.0, 0.25]  # s=1, s=1/4
    mag = np.abs(images) / step
    k = np.floor(mag + 0.5)
    k -= k - mag == 0.5
    cuts = np.flatnonzero(np.diff(pair_state)) + 1
    return FiniteModel(
        states=[StatePoint((v,), i) for i, v in enumerate(values.tolist())],
        controls=[list(zip(chunk.tolist())) for chunk in np.split(u, cuts)],
        noise=[NoiseAtom(0, 0.5), NoiseAtom(1, 0.5)],
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
    arrays directly.  Raises ModelError with the offending field or row named
    on any schema violation, and on validation failures.
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
        states = [StatePoint(tuple(_number(c) for c in coords), i)
                  for i, coords in enumerate(doc["states"])]
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
        controls = [list(shared) for _ in states]
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

    noise, next_idx, kernel = [], None, None
    if "dynamics" in doc:
        for row in doc["noise"]:
            try:
                noise.append(NoiseAtom(_index(row["id"]), _number(row["prob"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"field 'noise': bad row {row!r} ({exc})") from exc
        column = {atom.id: a for a, atom in enumerate(noise)}
        if len(column) < len(noise):
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
                             f"noise={noise[a].id})")
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

    model = FiniteModel(states, controls, noise, pair_cost, next_idx, kernel, initial_index)
    problems = validate(model)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def save_model(model, path):
    """Write a FiniteModel back out in the JSON schema accepted by load_model."""
    tensor = transition(model)
    pairs = list(zip(model.pair_state.tolist(), model.pair_local.tolist()))
    doc = {
        "states": [list(sp.coords) for sp in model.states],
        "controls": _controls_doc(model),
        "cost": [{"state": i, "control": l, "value": c}
                 for (i, l), c in zip(pairs, model.pair_cost.tolist())],
    }
    if tensor.next_idx is None:
        rows = iter(tensor.P.toarray().tolist())
        doc["transition"] = [[next(rows) for _ in cs] for cs in model.controls]
    else:
        ids = [a.id for a in model.noise]
        doc["noise"] = [{"id": a.id, "prob": a.prob} for a in model.noise]
        doc["dynamics"] = [
            {"state": i, "control": l, "noise_id": a, "next_state": nxt}
            for (i, l), row in zip(pairs, tensor.next_idx.tolist())
            for a, nxt in zip(ids, row)
        ]
    if model.initial_index is not None:
        doc["initial_state"] = model.initial_index
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _controls_doc(model):
    cvals = []
    seen = {}
    per_state = []
    for cs in model.controls:
        idxs = []
        for u in cs:
            if u not in seen:
                seen[u] = len(cvals)
                cvals.append(list(u))
            idxs.append(seen[u])
        per_state.append(idxs)
    return {"per_state": per_state, "control_values": cvals}
