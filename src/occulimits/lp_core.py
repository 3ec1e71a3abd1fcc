"""Equality-form linear programs, min c'x s.t. Ax = b, x >= 0, solved by
HiGHS and returned only under a five-condition optimality certificate.

LinearProgram holds the data (c, A, b), A dense or scipy.sparse.  solve_lp
runs scipy's HiGHS with HIGHS_OPTIONS, and certified_solution turns its
result into an LpSolution whose primal x and duals y (c - A'y >= 0) must pass
check_certificate: primal feasibility, nonnegativity, duality gap, dual
feasibility and complementary slackness, within the tolerance table below.
programs solves the measure LPs through the same conversion.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

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
    within the tolerances of check_certificate.
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
    """Solve the LP with HiGHS, returning primal optimum and dual multipliers.

    Returns an LpSolution with status 'optimal' (certified), 'infeasible' or
    'unbounded' (x and y_dual then zero); any other HiGHS status raises
    LpError.
    """
    return certified_solution(lp, linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None),
                                          method="highs", options=HIGHS_OPTIONS))


def certified_solution(lp, res):
    """The LpSolution of the HiGHS result res for lp; an optimal one only
    after it passes check_certificate."""
    status = HIGHS_STATUS.get(res.status)
    if status is None:
        raise LpError(f"HiGHS reported {res.message!r}")
    m, n = lp.A.shape
    if status != "optimal":
        return LpSolution(status=status, x=np.zeros(n), y_dual=np.zeros(m),
                          objective=float("nan" if status == "infeasible" else "-inf"))
    sol = LpSolution(status=status, x=res.x, y_dual=res.eqlin.marginals,
                     objective=float(lp.c @ res.x))
    check_certificate(lp, sol)
    return sol


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
