"""Headline comparisons: sandwich-bound reports, long-run optimality
verification against a dual certificate, dual recovery from the 1/T
expansion of v_T, and the Abel/Cesaro window utilities.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import dp, measures, programs
from .model import transition

STRONG_DUALITY_TOL = 1e-6
SANDWICH_PAD = 1e-6
ABEL_TAIL = 1e-14
ABEL_SEARCH_CAP = 10_000_000


class CertificateError(ValueError):
    """The supplied dual violates the certificate inequalities."""


@dataclass
class BoundsReport:
    """Per-initial-state record of the value curves against the LP bounds."""

    y0: int
    vT_curve: list                 # (T, v_T(y0)) pairs
    heps_curve: list               # (eps, h_eps(y0)) pairs
    k_star_y0: float
    d_star_y0: float
    k_star: float
    sandwich_ok: bool
    gap: float
    xi_mass: float
    strong_duality: bool
    endpoints_ok: bool | None = None
    out_of_sandwich: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "y0": self.y0,
            "vT_curve": [[t, v] for t, v in self.vT_curve],
            "heps_curve": [[e, h] for e, h in self.heps_curve],
            "k_star_y0": self.k_star_y0,
            "d_star_y0": self.d_star_y0,
            "k_star": self.k_star,
            "gap": self.gap,
            "xi_mass": self.xi_mass,
            "sandwich_ok": self.sandwich_ok,
            "strong_duality": self.strong_duality,
            "endpoints_ok": self.endpoints_ok,
        }

    def csv_rows(self):
        """Flat rows: kind, parameter, value, k_star_y0, d_star_y0, in_sandwich."""
        rows = []
        bad = {(kind, param) for kind, param, _ in self.out_of_sandwich}
        for t, v in self.vT_curve:
            rows.append(("vT", t, v, self.k_star_y0, self.d_star_y0,
                         ("vT", t) not in bad))
        for e, h in self.heps_curve:
            rows.append(("heps", e, h, self.k_star_y0, self.d_star_y0,
                         ("heps", e) not in bad))
        return rows


def bounds_report(model, y0, Ts, epss, user_slack=None):
    """Assemble v_T and h_eps curves for y0 and check them against the LP
    sandwich d*(y0) - slack <= value <= k*(y0) + slack.

    slack is 2M(1 + mass(xi*))/T per horizon point and 2M eps (1 + mass(xi*))
    per discount point, padded by 1e-6.  When the duality gap vanishes and a
    user slack is given, the curve endpoints are additionally compared to
    k*(y0) at that slack, which must be finite and nonnegative.
    """
    model.check_y0(y0)
    if user_slack is not None and not (math.isfinite(user_slack) and user_slack >= 0):
        raise ValueError(f"user_slack={user_slack!r} must be finite and nonnegative")
    Ts = list(Ts)
    epss = list(epss)
    if not Ts or Ts[0] < 1 or any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise ValueError("Ts must be nonempty, increasing and at least 1")
    if not epss or any(not (0 < e < 1) for e in epss) or \
            any(b >= a for a, b in zip(epss, epss[1:])):
        raise ValueError("epss must be nonempty, in (0,1) and decreasing")
    curve, _ = dp.finite_horizon_values(model, Ts[-1])
    vT_curve = [(t, float(curve[t - 1].values[y0])) for t in Ts]
    heps_curve = []
    for eps in epss:
        h, _ = dp.discounted_values(model, eps)
        heps_curve.append((eps, float(h.values[y0])))

    aug = programs.augmented_lp(model, y0)
    stat = programs.stationary_lp(model)
    k_star_y0 = aug.optimal_value
    d_star_y0 = aug.dual.mu
    xi_mass = aug.xi.total_mass
    big_m = model.cost_bound

    out = []
    for t, v in vT_curve:
        slack = 2.0 * big_m * (1.0 + xi_mass) / t + SANDWICH_PAD
        if not (d_star_y0 - slack <= v <= k_star_y0 + slack):
            out.append(("vT", t, v))
    for eps, h in heps_curve:
        slack = 2.0 * big_m * eps * (1.0 + xi_mass) + SANDWICH_PAD
        if not (d_star_y0 - slack <= h <= k_star_y0 + slack):
            out.append(("heps", eps, h))

    gap = k_star_y0 - d_star_y0
    strong = abs(gap) <= STRONG_DUALITY_TOL
    endpoints_ok = None
    if strong and user_slack is not None:
        endpoints_ok = (abs(vT_curve[-1][1] - k_star_y0) <= user_slack
                        and abs(heps_curve[-1][1] - k_star_y0) <= user_slack)
    return BoundsReport(y0=y0, vT_curve=vT_curve, heps_curve=heps_curve,
                        k_star_y0=k_star_y0, d_star_y0=d_star_y0,
                        k_star=stat.optimal_value, sandwich_ok=not out,
                        gap=gap, xi_mass=xi_mass, strong_duality=strong,
                        endpoints_ok=endpoints_ok, out_of_sandwich=out)


@dataclass
class OptimalityVerdict:
    """Outcome of the trajectory optimality conditions for one plan."""

    certified: bool
    pointwise_residual: float   # worst on-support Bellman-equality defect
    stationarity_residual: float  # worst |E[psi(y(t))] - psi(y0)|
    certificate_violation: float


def check_window(T0, t_max, tol):
    """Refuse an empty certification window T0..t_max, or a tolerance that is
    not finite and positive, with ValueError."""
    if not 0 <= T0 <= t_max:
        raise ValueError(f"certification window T0={T0}..t_max={t_max} is empty "
                         f"or starts before 0")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol={tol!r} must be finite and positive")


def verify_long_run_optimality(model, plan, dual, y0, T0, t_max, tol):
    """Check the sufficient optimality conditions for a plan along its law.

    Requires the dual to satisfy the certificate inequalities within tol
    (raises CertificateError otherwise), then verifies, for t in [T0, t_max]
    and every pair carrying law mass > tol,

        |k(y,u) + (psi(y0) - psi(y)) + E[eta(f(y,u,s))] - eta(y) - mu| <= tol

    and the psi-stationarity |E[psi(y(t))] - psi(y0)| <= tol.  The window
    must be nonempty, 0 <= T0 <= t_max, and tol finite and positive, else
    ValueError.  A staged plan must cover every stage 0..t_max
    (Plan.pair_weights raises ValueError for a shorter one); unlike
    prg_detect, this check does not cycle it.
    """
    check_window(T0, t_max, tol)
    pointwise, psi_slack = dual.slacks(model, y0)
    v1, v2 = programs.worst_violation(pointwise), programs.worst_violation(psi_slack)
    if max(v1, v2) > tol:
        raise CertificateError(f"certificate inequalities violated by "
                               f"{max(v1, v2):.3e} (> tol {tol:g})")
    worst1 = worst2 = 0.0
    for mu, law in islice(measures.pair_laws(model, plan, y0, t_max + 1), T0, None):
        worst2 = max(worst2, abs(float(mu @ dual.psi) - dual.psi[y0]))
        worst1 = max(worst1, float(np.max(np.abs(pointwise[law > tol]), initial=0.0)))
    certified = worst1 <= tol and worst2 <= tol
    return OptimalityVerdict(certified=certified, pointwise_residual=worst1,
                             stationarity_residual=worst2,
                             certificate_violation=max(v1, v2))


@dataclass
class ExpansionDual:
    """Candidate dual (psi, eta) extracted from the 1/T expansion of v_T."""

    psi: np.ndarray
    eta: np.ndarray
    residual: float


def dual_from_expansion(model, Ts):
    """Estimate v from v_T by two-point Richardson extrapolation in 1/T and
    set eta_T = T (v_T - v); report the Bellman-identity residual

        | inf over pairs of {k(y,u) - v(y) + E[eta(f(y,u,s))] - eta(y)} |

    A small residual certifies (psi, eta) = (v, eta_T) as a near-optimal dual
    pair.  Uses the two largest horizons in Ts.
    """
    Ts = sorted(Ts)
    if len(Ts) < 2:
        raise ValueError("need at least two horizons")
    curve, _ = dp.finite_horizon_values(model, Ts[-1])
    t1, t2 = Ts[-2], Ts[-1]
    v1 = curve[t1 - 1].values
    v2 = curve[t2 - 1].values
    v = (t2 * v2 - t1 * v1) / (t2 - t1)
    eta = t2 * (v2 - v)
    tensor = transition(model)
    bellman = model.pair_cost - v[model.pair_state] + tensor.expect(eta) - eta[model.pair_state]
    return ExpansionDual(psi=v, eta=eta, residual=abs(float(bellman.min())))


def abel_window(g, M, eps, delta):
    """First horizon T at which the running average of g drops under its
    Abel mean: (1/T) sum_{t<T} g(t) < sigma + delta + 2M/T, with
    sigma = eps sum (1-eps)^t g(t).

    g is a callable oracle for a sequence bounded by M.  The search starts at
    the guaranteed lower bound ceil(delta / ((4M + 4|sigma| + delta)
    (-ln(1-eps)))) and moves upward; existence is guaranteed, so exceeding
    the search cap raises RuntimeError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps={eps!r} outside (0, 1)")
    if delta <= 0 or M < 0:
        raise ValueError("delta must be positive and M nonnegative")
    n_terms = max(1, math.ceil((math.log(ABEL_TAIL) - math.log(max(M, 1e-300)))
                               / math.log1p(-eps)))
    values = {}

    def g_at(t):
        if t not in values:
            values[t] = float(g(t))
            if abs(values[t]) > M + 1e-12:
                raise ValueError(f"|g({t})| = {values[t]!r} exceeds the bound M={M}")
        return values[t]

    sigma = eps * sum((1.0 - eps) ** t * g_at(t) for t in range(n_terms))
    t_start = max(1, math.ceil(delta / ((4 * M + 4 * abs(sigma) + delta)
                                        * (-math.log1p(-eps)))))
    partial = sum(g_at(t) for t in range(t_start))
    for T in range(t_start, ABEL_SEARCH_CAP):
        if partial / T < sigma + delta + 2.0 * M / T:
            return T
        partial += g_at(T)
    raise RuntimeError("abel_window search cap exceeded; the lemma promises a witness")


def cesaro_window(g, T, delta):
    """Smallest start T* such that every window average beginning at T* stays
    under the full average plus delta:

        (1/S) sum_{t<S} g(T* + t) <= sigma + delta  for all S <= T - T*,

    with sigma the average of the first T terms.  Exhaustive scan; existence
    is guaranteed.
    """
    seq = np.asarray(list(g), dtype=float)
    if len(seq) < T:
        raise ValueError(f"sequence of length {len(seq)} is shorter than T={T}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    prefix = np.concatenate([[0.0], np.cumsum(seq[:T])])
    sigma = prefix[T] / T
    for t_star in range(T):
        lengths = np.arange(1, T - t_star + 1)
        means = (prefix[t_star + 1:T + 1] - prefix[t_star]) / lengths
        if np.all(means <= sigma + delta):
            return t_star
    raise RuntimeError("cesaro_window found no start; the lemma promises one")
