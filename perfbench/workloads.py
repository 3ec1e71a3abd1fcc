"""The benchmark's workloads: seeded inputs, one op each, and the check
that decides whether an op's output is right.  BENCHMARK.json names the
ones the benchmark runs by default; the others are for runs by hand.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come from a numpy Generator seeded by the
run's ``--seed``; the library only ever sees the generated inputs.

Inputs whose cost varies a lot (the grid point ``y0``, the discount ``eps``)
come from a Weyl sequence with a seeded start: any n consecutive ops cover
the input range within about 1/n of evenly.  A run holds only a handful of
ops on the heavy workloads, and independent draws would make its median
depend on the seed more than on the program.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from occulimits import cli, dp, measures, model as model_mod, programs, suite

GOLDEN = (5 ** 0.5 - 1) / 2

# grid, grid7 and midgrid: the README's heaviest CLI command at m = 8, 7 and 5
GRID_T = "1,16,128"
GRID_EPS = "0.5,0.1"
K_STAR_TOL = 1e-8

# suite: acceptance criteria 3 and 4 on one random model
SUITE_SEED_RANGE = 10_000
SUITE_T = 5000
SUITE_EPS = 1e-4
DUALITY_TOL = 1e-6
LIMIT_TOL = 5e-3

# discount: VI plus discounted occupation on a prebuilt m=8 grid
DISCOUNT_M = 8
DISCOUNT_EPS = (0.01, 0.03)
TAIL_TOL = 1e-13
IDENTITY_TOL = 1e-8


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's check.

    ``exact`` is True when the violated condition holds for every correct
    output (an identity or certificate), and False when it is one of the
    acceptance suite's convergence tolerances, which a correct answer on a
    slowly mixing model can exceed.
    """

    def __init__(self, what, exact=True):
        super().__init__(what)
        self.exact = exact


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable      # (out_dir) -> state reused by every op
    inputs: Callable     # (numpy Generator) -> endless iterator of op inputs
    op: Callable         # (state, input) -> output
    check: Callable      # (input, output) -> None, raises CheckFailed


def weyl(rng):
    """Endless values in [0, 1): u, u + g, u + 2g, ... mod 1, with u seeded
    and g the golden ratio's fractional part."""
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


# ---------------------------------------------------------------------------
# grid, grid7 and midgrid
# ---------------------------------------------------------------------------

def grid_k_star(m, y0):
    """Analytic k*(y0) of example 2 on the 2^-m grid.

    Negative states stay negative and average -5/8; positive states can hold
    the smallest positive point 2^-m.  From 0 every control in [-1, 1] is
    admissible, so the negative orbit is reachable and k*(0) = -5/8.
    """
    return -0.625 if y0 <= 0 else 2.0 ** -m


def _grid_setup(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return {"out": os.path.join(out_dir, "bounds.json")}


def _grid_inputs(m):
    n_half = 2 ** m

    def inputs(rng):
        for u in weyl(rng):
            index = min(int(u * (2 * n_half + 1)), 2 * n_half)
            yield index, (index - n_half) / n_half
    return inputs


def _grid_op(m):
    def op(state, inp):
        _, y0 = inp
        out = state["out"]
        if os.path.exists(out):
            os.remove(out)
        rc = cli.main(["bounds", "--builtin", "example2", "--m", str(m),
                       "--y0", repr(y0), "--T", GRID_T, "--eps", GRID_EPS,
                       "--format", "json", "--output", out])
        if rc != 0:
            return {"rc": rc}
        with open(out, encoding="utf-8") as fh:
            return {"rc": rc, "doc": json.load(fh)}
    return op


def _grid_check(m):
    def check(inp, result):
        index, y0 = inp
        if result["rc"] != 0:
            raise CheckFailed(f"exit code {result['rc']}")
        doc = result["doc"]
        if doc["y0"] != index:
            raise CheckFailed(f"y0={y0} snapped to state {doc['y0']}, not {index}")
        if doc["sandwich_ok"] is not True:
            raise CheckFailed("sandwich_ok is not true")
        if doc["strong_duality"] is not True:
            raise CheckFailed("strong_duality is not true")
        err = abs(doc["k_star_y0"] - grid_k_star(m, y0))
        if not err <= K_STAR_TOL:
            raise CheckFailed(f"k*(y0) off its analytic value by {err:.3e}")
    return check


def _grid_workload(name, m):
    return Workload(name=name, setup=_grid_setup,
                    inputs=_grid_inputs(m), op=_grid_op(m), check=_grid_check(m))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_inputs(rng):
    while True:
        yield int(rng.integers(SUITE_SEED_RANGE))


def suite_op(state, model_seed):
    m = suite.random_model(model_seed)
    k_star = programs.stationary_lp(m).optimal_value
    curve, _ = dp.finite_horizon_values(m, SUITE_T)
    h = [programs.discounted_stationary_lp(m, SUITE_EPS, y0).optimal_value
         for y0 in range(m.n_states)]
    aug = [programs.augmented_lp(m, y0) for y0 in range(m.n_states)]
    return {"k_star": k_star, "v": curve[-1].values, "h": np.array(h),
            "k_y0": np.array([a.optimal_value for a in aug]),
            "d_y0": np.array([a.dual.mu for a in aug])}


def suite_check(model_seed, r):
    gap = float(np.max(np.abs(r["d_y0"] - r["k_y0"])))
    if not gap <= DUALITY_TOL:
        raise CheckFailed(f"|d*(y0) - k*(y0)| = {gap:.3e}")
    for label, value in (("v_5000", r["v"]), ("h", r["h"])):
        dev = float(np.max(np.abs(value - r["k_y0"])))
        if not dev <= LIMIT_TOL:
            raise CheckFailed(f"|{label} - k*(y0)| = {dev:.3e}", exact=False)
    dev = abs(float(np.min(r["v"])) - r["k_star"])
    if not dev <= LIMIT_TOL:
        raise CheckFailed(f"|min v_5000 - k*| = {dev:.3e}", exact=False)


# ---------------------------------------------------------------------------
# discount
# ---------------------------------------------------------------------------

def _discount_setup(out_dir):
    mdl = model_mod.example2_model(DISCOUNT_M)
    model_mod.transition(mdl)
    return {"model": mdl}


def _discount_inputs(rng):
    lo, hi = np.log(DISCOUNT_EPS[0]), np.log(DISCOUNT_EPS[1])
    n_states = 2 ** (DISCOUNT_M + 1) + 1
    for u in weyl(rng):
        yield int(rng.integers(n_states)), float(np.exp(lo + u * (hi - lo)))


def discount_op(state, inp):
    y0, eps = inp
    mdl = state["model"]
    h, plan = dp.discounted_values(mdl, eps)
    gamma = measures.discounted_occupation(mdl, plan, y0, eps, TAIL_TOL)
    residual = programs.membership_residuals(mdl, gamma, "W_eps", eps=eps, y0=y0)
    return {"h_y0": float(h.values[y0]), "integral": gamma.integrate(mdl.pair_cost),
            "residual": residual}


def discount_check(inp, r):
    if not r["residual"] <= IDENTITY_TOL:
        raise CheckFailed(f"W_eps membership residual {r['residual']:.3e}")
    err = abs(r["integral"] - r["h_y0"])
    if not err <= IDENTITY_TOL:
        raise CheckFailed(f"|int k dgamma - h_eps(y0)| = {err:.3e}")


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    _grid_workload("grid", 8),
    _grid_workload("grid7", 7),
    _grid_workload("midgrid", 5),
    Workload(name="suite", setup=lambda out_dir: {}, inputs=_suite_inputs,
             op=suite_op, check=suite_check),
    Workload(name="discount", setup=_discount_setup, inputs=_discount_inputs,
             op=discount_op, check=discount_check),
)}
