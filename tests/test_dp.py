import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from occulimits import dp
from occulimits.dp import (Plan, discounted_values, evaluate_plan_average,
                           evaluate_plan_discounted, finite_horizon_values,
                           greedy_feedback_from_eta)
from occulimits.model import example1_model, example2_model, transition
from occulimits.programs import SolverError
from occulimits.suite import random_model, random_stationary_plan

from _oracles import value_iteration, with_cost


def constant_cost_model(c=0.7):
    m = random_model(11)
    return with_cost(m, np.full(m.n_pairs, c))


def test_example1_finite_horizon_closed_form():
    m = example1_model(0.5)
    i = m.initial_index
    curve, _ = finite_horizon_values(m, 50)
    assert curve[2].values[i] == pytest.approx(0.0, abs=1e-14)  # v_3(0.5)
    for t in (1, 2, 5, 17, 50):
        assert curve[t - 1].values[i] == pytest.approx(-0.25 + 0.75 / t, abs=1e-13)


def test_example2_v1_is_cost():
    m = example2_model(8)
    curve, _ = finite_horizon_values(m, 1)
    assert curve[0].values[m.nearest_state(0.5)] == pytest.approx(0.5, abs=1e-15)


def test_constant_cost_vT_constant():
    m = constant_cost_model(0.7)
    curve, _ = finite_horizon_values(m, 20)
    for vf in curve:
        assert np.allclose(vf.values, 0.7, atol=1e-13)


def test_vT_bounded_by_M():
    m = random_model(5)
    curve, _ = finite_horizon_values(m, 40)
    for vf in curve:
        assert np.max(np.abs(vf.values)) <= m.cost_bound + 1e-12


def test_bellman_inequality_every_pair():
    # T v_T(y) <= k(y,u) + (T-1) E[v_{T-1}(f(y,u,s))] for all admissible pairs
    m = random_model(9)
    tensor = transition(m)
    curve, _ = finite_horizon_values(m, 12)
    prev = np.zeros(m.n_states)
    for t, vf in enumerate(curve, start=1):
        rhs = m.pair_cost + (t - 1) * tensor.expect(prev)
        lhs = t * vf.values[m.pair_state]
        assert np.all(lhs <= rhs + 1e-10)
        prev = vf.values


def test_example1_discounted_closed_form():
    m = example1_model(0.5)
    i = m.initial_index
    h, _ = discounted_values(m, 0.1)
    assert h.values[i] == pytest.approx(-0.175, abs=1e-9)

    m1 = example1_model(1.0)
    h1, _ = discounted_values(m1, 0.5)
    assert h1.values[m1.initial_index] == pytest.approx(0.25, abs=1e-9)


def test_constant_cost_h_constant():
    m = constant_cost_model(0.7)
    for eps in (0.5, 0.05):
        h, _ = discounted_values(m, eps)
        assert np.allclose(h.values, 0.7, atol=1e-9)
        assert np.max(np.abs(h.values)) <= m.cost_bound + 1e-9


def test_greedy_plan_achieves_h():
    m = random_model(13)
    eps = 0.2
    h, plan = discounted_values(m, eps, tol=1e-11)
    for y0 in range(m.n_states):
        achieved = evaluate_plan_discounted(m, plan, y0, eps, tail_tol=1e-14)
        assert achieved == pytest.approx(h.values[y0], abs=1e-9)


def test_greedy_feedback_closed_form_eta_example1():
    m = example1_model(0.5)
    vals = m.state_values()
    eta = vals + np.abs(vals) / 2.0
    plan = greedy_feedback_from_eta(m, eta)
    # +1 on the negative state, -1 on the positive state
    assert m.control_value(0, int(plan.selector[0])) == (1.0,)
    assert m.control_value(1, int(plan.selector[1])) == (-1.0,)


def test_greedy_feedback_closed_form_eta_example2():
    m = example2_model(8)
    vals = m.state_values()
    eta = np.where(vals <= 0, vals + 5.0 / 8.0, 8.0 / 3.0 * vals)
    plan = greedy_feedback_from_eta(m, eta)
    i = m.nearest_state(-0.5)
    j = m.nearest_state(0.5)
    assert m.control_value(i, int(plan.selector[i])) == (-1.0,)
    assert m.control_value(j, int(plan.selector[j])) == (0.5,)


def test_greedy_feedback_zero_eta_is_myopic():
    m = random_model(17)
    plan = greedy_feedback_from_eta(m, np.zeros(m.n_states))
    for i in range(m.n_states):
        costs = m.pair_cost[m.state_pair_start[i]:m.state_pair_start[i + 1]]
        assert int(plan.selector[i]) == int(np.argmin(costs))


def test_staged_plan_reproduces_vT():
    m = random_model(21)
    T = 9
    curve, plan = finite_horizon_values(m, T)
    for y0 in range(m.n_states):
        val = evaluate_plan_average(m, plan, y0, T)
        assert val == pytest.approx(curve[-1].values[y0], abs=1e-12)


def test_example1_constant_plans_hand_expectation():
    # Oracle: from y0=+0.5, y(1) = 0.5*u*s with s=+1 w.p. 3/4, s=-1 w.p. 1/4.
    # u=-1: E[y(1)] = 0.75*(-0.5) + 0.25*(+0.5) = -0.25, average (0.5-0.25)/2
    # u=+1: E[y(1)] = 0.75*(+0.5) + 0.25*(-0.5) = +0.25, average (0.5+0.25)/2
    m = example1_model(0.5)
    i = m.initial_index
    down = Plan(kind="stationary_deterministic", selector=np.array([0, 0]))
    up = Plan(kind="stationary_deterministic", selector=np.array([1, 1]))
    assert evaluate_plan_average(m, down, i, 2) == pytest.approx(0.125, abs=1e-15)
    assert evaluate_plan_average(m, up, i, 2) == pytest.approx(0.375, abs=1e-15)


def test_constant_cost_any_plan():
    m = constant_cost_model(0.7)
    plan = random_stationary_plan(m, 3, randomized=True)
    assert evaluate_plan_average(m, plan, 0, 25) == pytest.approx(0.7, abs=1e-12)


def test_staged_too_short_rejected():
    m = random_model(2)
    _, plan = finite_horizon_values(m, 3)
    with pytest.raises(ValueError, match="shorter than"):
        evaluate_plan_average(m, plan, 0, 5)


def test_plan_model_mismatch():
    m = random_model(2)
    bad = Plan(kind="stationary_deterministic", selector=np.array([99] * m.n_states))
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_plan_average(m, bad, 0, 2)


def test_randomized_plan_with_nan_row_is_rejected():
    # abs(nan - 1) > tol is False, so a sum test alone lets a NaN row through
    m = example1_model(0.5)
    plan = Plan(kind="stationary_randomized", selector=[[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="bad probability row at state 0"):
        plan.check_against(m)
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_plan_discounted(m, plan, 0, 0.1)


def test_value_curve_csv_rows():
    from occulimits.dp import value_curve_csv_rows
    m = example1_model(0.5)
    curve, _ = finite_horizon_values(m, 3)
    rows = value_curve_csv_rows(m, curve)
    assert len(rows) == 3 * m.n_states
    assert rows[0][0] == 1 and rows[0][1] == "-0.5"
    h, _ = discounted_values(m, 0.5)
    hrows = value_curve_csv_rows(m, [h], parameters=[0.5])
    assert hrows[1] == (0.5, "0.5", pytest.approx(0.125, abs=1e-9))


def test_discounted_values_input_checks():
    m = random_model(2)
    with pytest.raises(ValueError):
        discounted_values(m, 1.5)
    with pytest.raises(ValueError):
        discounted_values(m, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        finite_horizon_values(m, 0)


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3])
def test_policy_iteration_matches_value_iteration(eps):
    models = [random_model(seed) for seed in range(50)]
    models += [example1_model(0.5), example2_model(4)]
    for m in models:
        h, plan = discounted_values(m, eps)
        h_vi, sel_vi = value_iteration(m, eps)
        assert np.max(np.abs(h.values - h_vi)) <= 1e-9
        assert np.array_equal(plan.selector, sel_vi)


def test_tampered_values_fail_bellman_certificate(monkeypatch):
    # a uniform shift c leaves every improvement decision unchanged but
    # leaves a Bellman residual of eps*c
    monkeypatch.setattr(dp, "spsolve", lambda a, b: spsolve(a, b) + 1e-6)
    with pytest.raises(SolverError, match="Bellman residual"):
        discounted_values(random_model(13), 0.1)


def test_policy_iteration_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(dp, "PI_ITERATION_CAP", 0)
    with pytest.raises(SolverError, match="cap"):
        discounted_values(random_model(13), 0.1)
