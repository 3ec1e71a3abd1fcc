"""Dense equality-form LP kernel: min c'x s.t. Ax = b, x >= 0, with duals.

Two-phase primal simplex on the full tableau.  Rows are equilibrated by their
max norm, phase 1 drives artificial variables out, and a deterministic
least-index (Bland) pivot rule is engaged once degeneracy is detected, so
repeated solves of the same program are bit-for-bit identical.  Artificial
columns are kept through phase 2 with entry barred; the dual multipliers are
read off their reduced costs.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

PIVOT_TOL = 1e-9
PHASE1_TOL = 1e-8
DEGENERATE_STREAK = 32
MAX_ITERATIONS = 200_000

FEAS_TOL = 1e-8        # ||Ax - b||_inf <= FEAS_TOL * (1 + ||b||_inf)
NEG_X_TOL = 1e-10
GAP_TOL = 1e-7         # |c'x - b'y| <= GAP_TOL * (1 + |c'x|)
REDUCED_COST_TOL = 1e-8
SLACKNESS_TOL = 1e-7


class LpError(RuntimeError):
    """Raised when the solve cannot produce a certified solution."""


@dataclass
class LinearProgram:
    """min c'x subject to A x = b, x >= 0; A is a dense array or a scipy.sparse
    matrix, which is kept sparse."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = (self.A.astype(float, copy=False) if sparse.issparse(self.A)
                  else np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise LpError(f"inconsistent dimensions: A is {m}x{n}, "
                          f"c has {self.c.shape}, b has {self.b.shape}")
        entries = self.A.data if sparse.issparse(self.A) else self.A
        if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.c))):
            raise LpError("non-finite entries in LP data")


@dataclass
class LpSolution:
    """Solver output; when status == 'optimal' the certificate holds.

    x is the primal point, y_dual one multiplier per constraint satisfying
    zero duality gap, nonnegative reduced costs and complementary slackness
    within the kernel tolerances.
    """

    status: str
    x: np.ndarray
    y_dual: np.ndarray
    objective: float

    def certificate_violations(self, lp):
        """Max violation of each optimality condition, for auditing."""
        r = lp.A @ self.x - lp.b
        reduced = lp.c - lp.A.T @ self.y_dual
        return {
            "primal_feasibility": float(np.max(np.abs(r), initial=0.0)),
            "nonnegativity": float(max(0.0, -np.min(self.x, initial=0.0))),
            "duality_gap": float(abs(lp.c @ self.x - lp.b @ self.y_dual)),
            "dual_feasibility": float(max(0.0, -np.min(reduced, initial=0.0))),
            "slackness": float(np.max(np.abs(self.x * reduced), initial=0.0)),
        }


def solve_lp(lp):
    """Solve the LP, returning primal optimum and dual multipliers.

    Returns an LpSolution with status 'optimal', 'infeasible' (phase-1
    optimum above tolerance; y_dual then carries the phase-1 multipliers) or
    'unbounded'.
    """
    A = lp.A.toarray() if sparse.issparse(lp.A) else lp.A.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = A.shape

    # row equilibration by max norm; dual unscaling factor per row
    scale = np.maximum(np.max(np.abs(A), axis=1, initial=0.0), np.abs(b))
    scale[scale == 0.0] = 1.0
    A /= scale[:, None]
    b /= scale
    sign = np.where(b < 0, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign
    dual_factor = sign / scale

    # tableau: original columns, artificial identity, rhs
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b
    basis = np.arange(n, n + m)

    # phase 1: minimize the sum of artificials; artificials never re-enter
    z = np.concatenate([-T[:, :n].sum(axis=0), np.zeros(m)])
    obj = float(b.sum())
    allowed = np.ones(n + m, dtype=bool)
    allowed[n:] = False
    z, obj, basis, status = _pivot_loop(T, z, obj, basis, allowed)
    if status == "unbounded":  # cannot happen in phase 1; defensive
        raise LpError("phase 1 reported unbounded")
    if obj > PHASE1_TOL:
        y = (1.0 - z[n:n + m]) * dual_factor
        return LpSolution(status="infeasible", x=np.zeros(n),
                          y_dual=y, objective=float("nan"))

    # pivot basic artificials out where an original column allows it
    for i in range(m):
        if basis[i] >= n:
            cols = np.nonzero(np.abs(T[i, :n]) > PIVOT_TOL)[0]
            if len(cols):
                _pivot(T, z, basis, i, int(cols[0]))
    # rows still led by an artificial are redundant (zeroed over original
    # columns by the loop above); they stay basic at 0 and never move

    # phase 2
    cb = np.zeros(m)
    inside = basis < n
    cb[inside] = c[basis[inside]]
    z = np.concatenate([c, np.zeros(m)]) - cb @ T[:, :n + m]
    obj = float(cb @ T[:, -1])
    z, obj, basis, status = _pivot_loop(T, z, obj, basis, allowed)
    if status == "unbounded":
        return LpSolution(status="unbounded", x=np.zeros(n),
                          y_dual=np.zeros(m), objective=float("-inf"))

    x = np.zeros(n)
    inside = basis < n
    x[basis[inside]] = T[inside, -1]
    y = -z[n:n + m] * dual_factor
    sol = LpSolution(status="optimal", x=x, y_dual=y, objective=float(c @ x))
    check_certificate(lp, sol)
    return sol


def _pivot_loop(T, z, obj, basis, allowed):
    """Run simplex pivots until optimal or unbounded; returns final state."""
    bland = False
    stall = 0
    for _ in range(MAX_ITERATIONS):
        eligible = np.where(allowed & (z < -PIVOT_TOL))[0]
        if len(eligible) == 0:
            return z, obj, basis, "optimal"
        if bland:
            j = int(eligible[0])
        else:
            j = int(eligible[np.argmin(z[eligible])])
        col = T[:, j]
        pos = np.where(col > PIVOT_TOL)[0]
        if len(pos) == 0:
            return z, obj, basis, "unbounded"
        ratios = T[pos, -1] / col[pos]
        best = np.min(ratios)
        ties = pos[np.nonzero(ratios <= best + 1e-12)[0]]
        # smallest basis label among ties keeps Bland's rule exact
        i = int(ties[np.argmin(basis[ties])])
        if best <= 1e-12:
            stall += 1
            if stall >= DEGENERATE_STREAK:
                bland = True
        else:
            stall = 0
        obj += z[j] * T[i, -1] / T[i, j]
        _pivot(T, z, basis, i, j)
    raise LpError("simplex iteration limit exceeded")


def _pivot(T, z, basis, i, j):
    T[i, :] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i, :])
    z -= z[j] * T[i, :-1]
    basis[i] = j


def check_certificate(lp, sol):
    """Raise LpError unless sol meets all five optimality conditions on lp
    within this module's tolerance table."""
    v = sol.certificate_violations(lp)
    limits = {
        "primal_feasibility": FEAS_TOL * (1.0 + float(np.max(np.abs(lp.b), initial=0.0))),
        "nonnegativity": NEG_X_TOL,
        "duality_gap": GAP_TOL * (1.0 + abs(sol.objective)),
        "dual_feasibility": REDUCED_COST_TOL,
        "slackness": SLACKNESS_TOL,
    }
    bad = {k: v[k] for k in v if v[k] > limits[k]}
    if bad:
        raise LpError(f"optimality certificate failed: {bad}")


def dump_lp(lp):
    """Plain-text (c, A, b) dump for external cross-checking; not a stable format."""
    A = lp.A.toarray() if sparse.issparse(lp.A) else lp.A
    lines = ["c " + " ".join(f"{v:.17g}" for v in lp.c)]
    for i in range(A.shape[0]):
        lines.append("A " + " ".join(f"{v:.17g}" for v in A[i]) + f" | {lp.b[i]:.17g}")
    return "\n".join(lines)
