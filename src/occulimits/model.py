"""Finite controlled stochastic recursions: state grid, controls, noise, dynamics, cost.

A model describes the recursion y(t+1) = f(y(t), u(t), s(t)) on a finite state
list with per-state finite control lists and finite-support i.i.d. noise.  The
transition law P(y'|y,u) is obtained by summing noise-atom probabilities over
atoms mapping (y,u) to y'.  Models loaded from files may instead carry the
transition rows directly (kernel mode).
"""

import json
import math
from dataclasses import dataclass, field

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


@dataclass
class FiniteModel:
    """Finite model of a controlled stochastic recursion.

    Attributes:
        states: ordered list of StatePoint.
        controls: per-state ordered list of control value tuples.
        noise: list of NoiseAtom (empty in kernel mode).
        dynamics: map (state index, local control index, noise id) -> state
            index, complete over admissible triples; None in kernel mode.
        cost: map (state index, local control index) -> cost value; compiled
            into a per-pair array.
        transition_rows: per-pair dense probability rows, only in kernel mode.
        initial_index: optional distinguished initial state (builders set it).
    """

    states: list
    controls: list
    noise: list
    dynamics: dict | None
    cost: dict
    transition_rows: np.ndarray | None = None
    initial_index: int | None = None

    # compiled pair arrays, built once in __post_init__
    pair_state: np.ndarray = field(init=False, repr=False)
    pair_local: np.ndarray = field(init=False, repr=False)
    pair_cost: np.ndarray = field(init=False, repr=False)
    state_pair_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_states = len(self.states)
        starts = np.zeros(n_states + 1, dtype=np.int64)
        for i in range(n_states):
            starts[i + 1] = starts[i] + len(self.controls[i])
        self.state_pair_start = starts
        n_pairs = int(starts[-1])
        self.pair_state = np.repeat(np.arange(n_states), [len(cs) for cs in self.controls])
        self.pair_local = np.concatenate(
            [np.arange(len(cs)) for cs in self.controls]
        ) if n_pairs else np.zeros(0, dtype=np.int64)
        cost = np.zeros(n_pairs)
        for p in range(n_pairs):
            cost[p] = self.cost[(int(self.pair_state[p]), int(self.pair_local[p]))]
        self.pair_cost = cost

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

    def nearest_state(self, value):
        """Index of the state whose first coordinate is closest to value."""
        if not math.isfinite(value):
            raise ValueError(f"state value {value!r} is not finite")
        return int(np.argmin(np.abs(self.state_values() - value)))


class TransitionTensor:
    """Transition law P(y'|y,u) of every admissible pair, held as one sparse
    CSR matrix P of shape (n_pairs, n_states) and read the same way for both
    model kinds.

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

    def row_sums(self):
        return np.asarray(self.P.sum(axis=1)).ravel()

    def min_entry(self):
        """Smallest entry of P, implicit zeros included."""
        return float(self.P.min()) if self.P.shape[0] else 0.0

    def plan_matrix(self, pair_weights):
        """Sparse (n_states, n_states) law P_pi(y'|y) = sum_u pi(u|y) P(y'|y,u)
        of a stationary plan with per-pair weights pi(u|y)."""
        w = np.asarray(pair_weights, dtype=float)
        on = np.flatnonzero(w)
        to_state = sparse.csr_matrix((w[on], (self.model.pair_state[on], np.arange(len(on)))),
                                     shape=(self.model.n_states, len(on)))
        return to_state @ self.P[on]


def build_transition_tensor(model):
    """Build P(y'|y,u) = sum over noise atoms s with f(y,u,s)=y' of prob(s),
    or read it from the kernel rows of a kernel-mode model.

    Raises ModelError naming the offending (state, control, noise) triple when
    the dynamics map leaves the state list.
    """
    if model.transition_rows is not None:
        return TransitionTensor(model, sparse.csr_matrix(
            np.asarray(model.transition_rows, dtype=float)))
    n_pairs = model.n_pairs
    n_atoms = len(model.noise)
    next_idx = np.zeros((n_pairs, n_atoms), dtype=np.int64)
    for p in range(n_pairs):
        s = int(model.pair_state[p])
        l = int(model.pair_local[p])
        for a, atom in enumerate(model.noise):
            key = (s, l, atom.id)
            if key not in model.dynamics:
                raise ModelError(f"dynamics missing for (state={s}, control={l}, noise={atom.id})")
            nxt = model.dynamics[key]
            if not (0 <= nxt < model.n_states):
                raise ModelError(
                    f"dynamics image {nxt} outside state list for "
                    f"(state={s}, control={l}, noise={atom.id})"
                )
            next_idx[p, a] = nxt
    probs = np.array([atom.prob for atom in model.noise])
    # atoms sharing an image are summed into one entry
    P = sparse.csr_matrix((np.tile(probs, n_pairs),
                           (np.repeat(np.arange(n_pairs), n_atoms), next_idx.ravel())),
                          shape=(n_pairs, model.n_states))
    return TransitionTensor(model, P, next_idx)


def transition(model):
    """Memoized TransitionTensor of a model (built on first use)."""
    tensor = getattr(model, "_tensor", None)
    if tensor is None:
        tensor = build_transition_tensor(model)
        model._tensor = tensor
    return tensor


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
    if model.transition_rows is None:
        total = sum(a.prob for a in model.noise)
        if abs(total - 1.0) > NOISE_NORMALIZATION_TOL:
            report.append(f"noise not normalized (sum={total!r})")
        for a in model.noise:
            if not (0.0 < a.prob <= 1.0):
                report.append(f"noise atom {a.id} has probability {a.prob!r} outside (0,1]")
        if len({a.id for a in model.noise}) != len(model.noise):
            report.append("noise atom ids are not unique")
        try:
            transition(model)
        except ModelError as exc:
            report.append(str(exc))
        else:
            if len(model.dynamics) > model.n_pairs * len(model.noise):
                report.append("dynamics has entries outside the admissible triples")
    else:
        rows = np.asarray(model.transition_rows, dtype=float)
        if rows.shape != (model.n_pairs, model.n_states):
            report.append(f"transition rows have shape {rows.shape}, "
                          f"expected {(model.n_pairs, model.n_states)}")
        elif not np.all(np.isfinite(rows)):
            report.append("transition rows contain non-finite entries")
        else:
            if rows.min(initial=0.0) < 0:
                report.append("transition rows contain negative entries")
            bad = np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL
            if bad.any():
                report.append(f"{int(bad.sum())} transition rows do not sum to 1")
    if model.n_pairs and not np.all(np.isfinite(model.pair_cost)):
        report.append("cost table has non-finite entries")
    return report


# ---------------------------------------------------------------------------
# builders for the two reference models
# ---------------------------------------------------------------------------

def _sign_flip_model(values, initial_index=None):
    """Recursion y(t+1) = y(t)u(t)s(t) on a sign-symmetric value list.

    Controls are {-1, +1} at every state, the noise takes s=+1 with
    probability 3/4 and s=-1 with probability 1/4, and the cost is k(y,u) = y.
    The list is closed under the recursion, so no snapping is involved.
    """
    states = [StatePoint((v,), i) for i, v in enumerate(values)]
    controls = [[(-1.0,), (1.0,)] for _ in values]
    noise = [NoiseAtom(0, 0.75), NoiseAtom(1, 0.25)]  # s=+1, s=-1
    s_vals = {0: 1.0, 1: -1.0}
    dynamics = {}
    cost = {}
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            cost[(i, l)] = y
            for atom in noise:
                dynamics[(i, l, atom.id)] = values.index(y * u * s_vals[atom.id])
    return FiniteModel(states=states, controls=controls, noise=noise,
                       dynamics=dynamics, cost=cost, initial_index=initial_index)


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


def _snap_dyadic(value, step):
    """Snap to the nearest multiple of step, ties toward 0, preserving sign.

    A strictly positive value never snaps to 0 or below (it floors at +step),
    and symmetrically for negative values; this keeps the positive and
    negative orbits of the recursion y(t+1) = u(t)s(t) from crossing through
    the origin, as in the continuum.
    """
    if value == 0.0:
        return 0.0
    mag = abs(value) / step
    k = math.floor(mag + 0.5)
    if k - mag == 0.5:  # exact tie, round toward 0
        k -= 1
    if k == 0:
        k = 1
    return math.copysign(k * step, value)


def example2_model(m, control_step=None):
    """Dyadic-grid model of y(t+1) = u(t)s(t) with U(y) = [-1,y] / [y,1].

    States are the multiples of 2^-m in [-1, 1].  Each state's control grid
    discretizes its admissible interval with spacing control_step (a multiple
    of the grid step) and always contains the interval endpoints and the point
    y itself.  Noise: s=1 w.p. 1/2, s=1/4 w.p. 1/2.  Cost k(y,u) = y.  Images
    u*s are snapped to the grid sign-preservingly with ties toward 0.
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
    values = [i * step for i in range(-n_half, n_half + 1)]
    index_of = {v: i for i, v in enumerate(values)}
    states = [StatePoint((v,), i) for i, v in enumerate(values)]

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
    noise = [NoiseAtom(0, 0.5), NoiseAtom(1, 0.5)]  # s=1, s=1/4
    s_vals = {0: 1.0, 1: 0.25}
    dynamics = {}
    cost = {}
    for i, y in enumerate(values):
        for l, (u,) in enumerate(controls[i]):
            cost[(i, l)] = y
            for atom in noise:
                dynamics[(i, l, atom.id)] = index_of[_snap_dyadic(u * s_vals[atom.id], step)]
    return FiniteModel(states=states, controls=controls, noise=noise,
                       dynamics=dynamics, cost=cost)


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
    """A JSON number as a float, never a bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def load_model(path):
    """Load and validate a FiniteModel from a JSON model file.

    The file carries either a (dynamics + noise) pair or an explicit dense
    transition tensor; see README for the schema.  Raises ModelError with the
    offending field named on any schema violation, and on validation failures.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
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

    cost = {}
    for row in doc["cost"]:
        try:
            key, value = (_index(row["state"]), _index(row["control"])), _number(row["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"field 'cost': bad row {row!r} ({exc})") from exc
        if key in cost:
            raise ModelError(f"field 'cost': duplicate row {row!r}")
        cost[key] = value
    n_pairs_expected = {(i, l) for i in range(len(states)) for l in range(len(controls[i]))}
    if set(cost) != n_pairs_expected:
        missing = sorted(n_pairs_expected - set(cost))[:3]
        extra = sorted(set(cost) - n_pairs_expected)[:3]
        raise ModelError(f"field 'cost': incomplete table (missing {missing}, extra {extra})")

    noise = []
    dynamics = None
    transition_rows = None
    if "dynamics" in doc:
        for row in doc.get("noise", []):
            try:
                noise.append(NoiseAtom(_index(row["id"]), _number(row["prob"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"field 'noise': bad row {row!r} ({exc})") from exc
        dynamics = {}
        for row in doc["dynamics"]:
            try:
                key = (_index(row["state"]), _index(row["control"]), _index(row["noise_id"]))
                nxt = _index(row["next_state"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"field 'dynamics': bad row {row!r} ({exc})") from exc
            if key in dynamics:
                raise ModelError(f"field 'dynamics': duplicate row {row!r}")
            dynamics[key] = nxt
    else:
        tens = doc["transition"]
        rows = []
        try:
            for i in range(len(states)):
                for l in range(len(controls[i])):
                    rows.append([_number(v) for v in tens[i][l]])
            transition_rows = np.array(rows)
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

    model = FiniteModel(states=states, controls=controls, noise=noise,
                        dynamics=dynamics, cost=cost,
                        transition_rows=transition_rows,
                        initial_index=initial_index)
    problems = validate(model)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def save_model(model, path):
    """Write a FiniteModel back out in the JSON schema accepted by load_model."""
    doc = {
        "states": [list(sp.coords) for sp in model.states],
        "controls": _controls_doc(model),
        "cost": [{"state": i, "control": l, "value": model.cost[(i, l)]}
                 for i in range(model.n_states) for l in range(len(model.controls[i]))],
    }
    if model.transition_rows is not None:
        tens = []
        p = 0
        for i in range(model.n_states):
            tens.append([list(map(float, model.transition_rows[p + l]))
                         for l in range(len(model.controls[i]))])
            p += len(model.controls[i])
        doc["transition"] = tens
    else:
        doc["noise"] = [{"id": a.id, "prob": a.prob} for a in model.noise]
        doc["dynamics"] = [
            {"state": s, "control": l, "noise_id": a, "next_state": nxt}
            for (s, l, a), nxt in sorted(model.dynamics.items())
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
