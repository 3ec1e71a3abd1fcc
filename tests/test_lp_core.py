import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import OptimizeResult

from occulimits import lp_core, programs
from occulimits.lp_core import LinearProgram, LpError, solve_lp
from occulimits.suite import random_model

from _oracles import bfs_enumeration_optimum


def test_min_first_coordinate():
    lp = LinearProgram(c=[1.0, 0.0], A=[[1.0, 1.0]], b=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x, [0.0, 1.0])


def test_scalar_dual():
    lp = LinearProgram(c=[-1.0], A=[[1.0]], b=[1.0])
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.y_dual[0] == pytest.approx(-1.0, abs=1e-12)


def _random_feasible_bounded(rng, m, n):
    A = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n))
    x0[rng.random(n) < 0.4] = 0.0
    b = A @ x0
    y0 = rng.normal(size=m)
    c = A.T @ y0 + np.abs(rng.normal(size=n)) * (rng.random(n) > 0.3)
    return LinearProgram(c=c, A=A, b=b)


def test_seeded_6x10_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    lp = _random_feasible_bounded(rng, 6, 10)
    sol = solve_lp(lp)
    oracle = bfs_enumeration_optimum(lp.c, lp.A, lp.b)
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_infeasible_reported():
    lp = LinearProgram(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"


def test_unbounded_reported():
    lp = LinearProgram(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


def test_redundant_rows_handled():
    # second row is twice the first
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-10)


def test_resolve_is_bitwise_deterministic():
    rng = np.random.default_rng(7)
    lp = _random_feasible_bounded(rng, 5, 12)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y_dual, b.y_dual)
    assert a.objective == b.objective


def test_dimension_mismatch_raises():
    with pytest.raises(LpError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])
    with pytest.raises(LpError):
        LinearProgram(c=[np.nan], A=[[1.0]], b=[1.0])


@pytest.mark.parametrize("data", [
    {"c": ["1", "2"], "A": [[True, True]], "b": ["1"]},
    {"c": ["1", "2"], "A": [[1.0, 1.0]], "b": [1.0]},
    {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": ["1"]},
    {"c": [1.0, 2.0], "A": [[True, True]], "b": [1.0]},
    {"c": [1.0, 2.0], "A": sparse.csr_matrix(np.array([[True, True]])), "b": [1.0]},
    {"c": [True, False], "A": [[1.0, 1.0]], "b": [1.0]},
], ids=["strings_and_bools", "c_strings", "b_strings", "A_bools", "A_sparse_bools", "c_bools"])
def test_lp_data_that_is_not_numbers_is_refused(data):
    # a string used to be parsed and a bool read as 0 or 1, so the first
    # case solved to x = [1, 0]
    with pytest.raises(LpError, match="is not numeric"):
        solve_lp(LinearProgram(**data))


def test_a_one_dimensional_A_is_refused():
    with pytest.raises(LpError, match=r"A has shape \(2,\), not one of two dimensions"):
        LinearProgram(c=[1.0, 2.0], A=[1.0, 1.0], b=[1.0])


# condition: (its tolerance, (c, A, b), x, y), a certificate that fails that
# condition alone
CERTIFICATE_FAULTS = {
    # A x - b = 1e-6 on a column of reduced cost 0 with y = 0: no gap, no slack
    "primal_feasibility": ("FEAS_TOL", ([0.0, 1.0], [[1.0, 1.0]], [1.0]),
                           [1.0 + 1e-6, 0.0], [0.0]),
    # x_2 = -1e-6 on a column of reduced cost 0, with A x = b
    "nonnegativity": ("NEG_X_TOL", ([0.0, 0.0], [[1.0, 1.0]], [1.0]),
                      [1.0 + 1e-6, -1e-6], [0.0]),
    # reduced cost -1e-6 on a column where x is 0, and b'y = c'x
    "dual_feasibility": ("REDUCED_COST_TOL",
                         ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]], [1.0, 0.0]),
                         [1.0, 0.0, 0.0], [1.0, 1e-6]),
    # x_2 r_2 = 1e-5: past the absolute 1e-7 of slackness, inside the gap's
    # relative 1e-7 (1 + 1000)
    "slackness": ("SLACKNESS_TOL", ([1000.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1e-5]),
                  [1.0, 1e-5], [1000.0, 0.0]),
}


@pytest.mark.parametrize("condition", sorted(CERTIFICATE_FAULTS))
def test_a_fault_in_one_certificate_condition_is_caught(condition, monkeypatch):
    tol, (c, A, b), x, y = CERTIFICATE_FAULTS[condition]
    lp = LinearProgram(c=c, A=A, b=b)
    sol = lp_core.LpSolution("optimal", np.array(x), np.array(y), float(lp.c @ np.array(x)))
    with pytest.raises(LpError) as info:
        lp_core.check_certificate(lp, sol)
    assert re.findall(r"'(\w+)':", str(info.value)) == [condition]
    # with its own limit at infinity the certificate passes: no other condition fails
    monkeypatch.setattr(lp_core, tol, np.inf)
    lp_core.check_certificate(lp, sol)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=3, max_value=9))
def test_certificate_invariants_hold(seed, m, extra):
    n = m + extra
    rng = np.random.default_rng(seed)
    lp = _random_feasible_bounded(rng, m, n)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    v = sol.certificate_violations(lp)
    b_scale = 1.0 + np.max(np.abs(lp.b), initial=0.0)
    assert v["primal_feasibility"] <= 1e-8 * b_scale
    assert v["nonnegativity"] <= 1e-10
    assert v["duality_gap"] <= 1e-7 * (1.0 + abs(sol.objective))
    assert v["dual_feasibility"] <= 1e-8
    assert v["slackness"] <= 1e-7


def test_degenerate_lp_terminates():
    # zero-rhs rows force degenerate pivots; optimum parks all mass on x4
    A = np.array([[1.0, -1.0, 0.0, 0.0],
                  [0.0, 1.0, -1.0, 0.0],
                  [1.0, 1.0, 1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    lp = LinearProgram(c=[1.0, 2.0, 3.0, 0.0], A=A, b=b)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-10)


def test_nan_dual_fails_the_certificate():
    # min x, x = 1: the optimum x = 1 with dual y = 1 passes; a NaN dual made
    # every comparison against a limit False and passed too
    lp = LinearProgram(c=[1.0], A=[[1.0]], b=[1.0])
    lp_core.check_certificate(lp, lp_core.LpSolution("optimal", np.array([1.0]),
                                                     np.array([1.0]), 1.0))
    with pytest.raises(LpError, match="duality_gap"):
        lp_core.check_certificate(lp, lp_core.LpSolution("optimal", np.array([1.0]),
                                                         np.array([np.nan]), 1.0))


def test_solve_lp_is_the_measure_lp_solver():
    # the stationary LP [B; 1'] x = e_n of suite models, solved both ways
    for seed in range(10):
        m = random_model(seed)
        op, b = programs._constraints(m, "W")
        lp = LinearProgram(c=m.pair_cost, A=programs._lp_matrix(op), b=b)
        sol = solve_lp(lp)
        x, y, method = programs._solve(LinearProgram(c=m.pair_cost, A=op, b=b), "stationary LP")
        assert sol.status == "optimal" and method == "highs"
        assert np.array_equal(sol.x, x) and np.array_equal(sol.y_dual, y), seed
        assert sol.objective == float(lp.c @ x)


def test_an_operator_lp_is_checked_not_solved():
    # an operator gives only A x and A'y; HiGHS needs entries
    m = random_model(2)
    lp = LinearProgram(m.pair_cost, *programs._constraints(m, "W"))
    with pytest.raises(LpError, match="solve_lp needs the entries of A, and this "
                                      "LinearProgram's A is a LinearOperator"):
        solve_lp(lp)


def test_unrecognised_highs_status_raises(monkeypatch):
    def stopped(*args, **kwargs):
        return OptimizeResult(status=1, success=False, x=None,
                              message="HiGHS stopped at its iteration limit")

    monkeypatch.setattr(lp_core, "linprog", stopped)
    with pytest.raises(LpError, match="iteration limit"):
        solve_lp(LinearProgram(c=[1.0], A=[[1.0]], b=[1.0]))
