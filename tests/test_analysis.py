import numpy as np
import pytest

from occulimits.analysis import (CertificateError, abel_window, bounds_report,
                                 cesaro_window, dual_from_expansion,
                                 verify_long_run_optimality)
from occulimits.dp import Plan, finite_horizon_values, greedy_feedback_from_eta
from occulimits.measures import (discounted_occupation, occupation_measure, pair_laws,
                                 propagate)
from occulimits.model import TransitionTensor, example1_model, example2_model
from occulimits.programs import (DualCertificate, GMeasure, augmented_lp,
                                 discounted_stationary_lp, membership_residuals)
from occulimits.suite import random_model

from _oracles import with_cost


def test_bounds_report_example1():
    m = example1_model(0.5)
    rep = bounds_report(m, m.initial_index, [1, 10, 100], [0.5, 0.1, 0.01],
                        user_slack=0.05)
    assert rep.k_star_y0 == pytest.approx(-0.25, abs=1e-8)
    assert rep.d_star_y0 == pytest.approx(-0.25, abs=1e-8)
    assert rep.k_star == pytest.approx(-0.25, abs=1e-8)
    assert rep.sandwich_ok and rep.strong_duality and rep.endpoints_ok
    for t, v in rep.vT_curve:
        assert v == pytest.approx(-0.25 + 0.75 / t, abs=1e-12)
    rows = rep.csv_rows()
    assert len(rows) == 6 and all(r[-1] for r in rows)


def test_bounds_report_example2_negative():
    m = example2_model(8)
    i = m.nearest_state(-0.5)
    rep = bounds_report(m, i, [1, 16, 128], [0.5, 0.1])
    assert rep.k_star_y0 == pytest.approx(-0.625, abs=1e-8)
    assert rep.d_star_y0 == pytest.approx(-0.625, abs=1e-8)
    assert rep.sandwich_ok
    for t, v in rep.vT_curve:
        assert v == pytest.approx(-0.625 + (-0.5 + 0.625) / t, abs=1e-10)


def test_bounds_report_constant_cost():
    m = random_model(41)
    m = with_cost(m, np.full(m.n_pairs, 0.2))
    rep = bounds_report(m, 0, [1, 10], [0.5, 0.25])
    assert rep.k_star_y0 == pytest.approx(0.2, abs=1e-8)
    assert rep.d_star_y0 == pytest.approx(0.2, abs=1e-8)
    assert rep.k_star == pytest.approx(0.2, abs=1e-8)
    assert abs(rep.gap) <= 1e-8 and rep.sandwich_ok


def test_bounds_report_input_validation():
    m = example1_model(0.5)
    with pytest.raises(ValueError):
        bounds_report(m, 1, [10, 5], [0.1])
    with pytest.raises(ValueError):
        bounds_report(m, 1, [5, 10], [0.1, 0.5])


def test_verify_example1_closed_form_dual():
    m = example1_model(0.5)
    dual = DualCertificate(mu=-0.25, psi=-np.abs(m.state_values()) / 2,
                           eta=m.state_values() + np.abs(m.state_values()) / 2)
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 0]))
    verdict = verify_long_run_optimality(m, plan, dual, m.initial_index,
                                         T0=1, t_max=50, tol=1e-9)
    assert verdict.certified
    assert verdict.pointwise_residual <= 1e-12
    assert verdict.stationarity_residual <= 1e-12


def test_verify_example2_closed_form_dual_grid_tolerance():
    m = example2_model(8)
    vals = m.state_values()
    psi = np.where(vals <= 0, -5.0 / 8.0, 0.0)
    eta = np.where(vals <= 0, vals + 5.0 / 8.0, 8.0 / 3.0 * vals)
    dual = DualCertificate(mu=-5.0 / 8.0, psi=psi, eta=eta)
    sel = []
    for i, v in enumerate(vals):
        us = [u[0] for u in m.controls[i]]
        sel.append(us.index(-1.0) if v <= 0 else us.index(v))
    plan = Plan(kind="stationary_deterministic", selector=np.array(sel))
    verdict = verify_long_run_optimality(m, plan, dual, m.nearest_state(-0.5),
                                         T0=1, t_max=60, tol=5e-3)
    assert verdict.certified
    assert verdict.pointwise_residual <= 1e-10
    assert verdict.stationarity_residual <= 1e-10


def test_verify_flipped_plan_fails():
    m = example1_model(0.5)
    res = augmented_lp(m, m.initial_index)
    flipped = Plan(kind="stationary_deterministic", selector=np.array([0, 1]))
    verdict = verify_long_run_optimality(m, flipped, res.dual, m.initial_index,
                                         T0=1, t_max=50, tol=1e-8)
    assert not verdict.certified
    assert verdict.pointwise_residual >= 0.25


def test_verify_computes_each_slack_once(monkeypatch):
    # one expect for the family-1 slack, one for the family-2 slack
    m = example2_model(5)
    y0 = m.nearest_state(-0.5)
    aug = augmented_lp(m, y0)
    plan = greedy_feedback_from_eta(m, aug.dual.eta)
    calls = []
    expect = TransitionTensor.expect
    monkeypatch.setattr(TransitionTensor, "expect",
                        lambda self, values: calls.append(1) or expect(self, values))
    verify_long_run_optimality(m, plan, aug.dual, y0, T0=1, t_max=60, tol=1e-8)
    assert len(calls) == 2


def test_verify_rejects_invalid_certificate():
    m = example1_model(0.5)
    bad = DualCertificate(mu=5.0, psi=np.zeros(2), eta=np.zeros(2))
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 0]))
    with pytest.raises(CertificateError):
        verify_long_run_optimality(m, plan, bad, 1, T0=1, t_max=10, tol=1e-8)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_verify_refuses_vacuous_tolerance(tol):
    # at tol=inf the flipped plan used to certify against this junk dual,
    # whose certificate inequalities are violated by 165.5
    m = example1_model(0.5)
    junk = DualCertificate(mu=5.0, psi=np.array([3.0, -7.0]), eta=np.array([100.0, -100.0]))
    flipped = Plan(kind="stationary_deterministic", selector=np.array([0, 1]))
    with pytest.raises(ValueError, match="must be finite and positive"):
        verify_long_run_optimality(m, flipped, junk, m.initial_index,
                                   T0=1, t_max=50, tol=tol)


@pytest.mark.parametrize("user_slack", [np.inf, np.nan, -0.5])
def test_bounds_report_refuses_unusable_user_slack(user_slack):
    m = example1_model(0.5)
    with pytest.raises(ValueError, match="user_slack"):
        bounds_report(m, m.initial_index, [1, 10], [0.5], user_slack=user_slack)


def _uniform_plan(m):
    return Plan(kind="stationary_deterministic", selector=np.zeros(m.n_states, dtype=int))


Y0_ENTRY_POINTS = {
    "pair_laws": lambda m, y0: next(pair_laws(m, _uniform_plan(m), y0, 5)),
    "propagate": lambda m, y0: propagate(m, _uniform_plan(m), y0, 5),
    "occupation_measure": lambda m, y0: occupation_measure(m, _uniform_plan(m), y0, 5),
    "discounted_occupation": lambda m, y0: discounted_occupation(
        m, _uniform_plan(m), y0, 0.1, tail_tol=1e-12),
    "discounted_stationary_lp": lambda m, y0: discounted_stationary_lp(m, 0.1, y0),
    "augmented_lp": augmented_lp,
    "membership_residuals_W_eps": lambda m, y0: membership_residuals(
        m, GMeasure(np.full(m.n_pairs, 1.0 / m.n_pairs)), "W_eps", eps=0.1, y0=y0),
    "membership_residuals_Omega": lambda m, y0: membership_residuals(
        m, np.zeros(m.n_pairs), "Omega", y0=y0, xi=np.zeros(m.n_pairs)),
    "slacks": lambda m, y0: DualCertificate(
        mu=0.0, psi=np.zeros(m.n_states), eta=np.zeros(m.n_states)).slacks(m, y0),
    "bounds_report": lambda m, y0: bounds_report(m, y0, [1, 10], [0.5]),
}


@pytest.mark.parametrize("entry", sorted(Y0_ENTRY_POINTS))
@pytest.mark.parametrize("y0", [-1, 17, 1.0], ids=["below", "above", "float"])
def test_out_of_range_y0_is_refused(entry, y0):
    # -1 used to wrap to the last state, 17 and 1.0 to escape as IndexError
    m = example2_model(3)
    assert m.n_states == 17
    with pytest.raises(ValueError, match=rf"y0={y0} is not an index of the 17 states"):
        Y0_ENTRY_POINTS[entry](m, y0)


@pytest.mark.parametrize("t_max", [3, 10])
def test_verify_refuses_staged_plan_shorter_than_window(t_max):
    # the 3-stage plan has no stage t_max: refused, never scored with stage 0's weights
    m = example1_model(0.5)
    _, plan = finite_horizon_values(m, 3)
    dual = augmented_lp(m, m.initial_index).dual
    with pytest.raises(ValueError, match="shorter"):
        verify_long_run_optimality(m, plan, dual, m.initial_index,
                                   T0=1, t_max=t_max, tol=1e-8)


def test_dual_from_expansion_example1():
    m = example1_model(0.5)
    out = dual_from_expansion(m, [200, 400])
    vals = m.state_values()
    assert np.allclose(out.psi, -np.abs(vals) / 2, atol=1e-9)
    assert np.allclose(out.eta, vals + np.abs(vals) / 2, atol=1e-9)
    assert out.residual <= 1e-9


def test_dual_from_expansion_example2_step_function():
    m = example2_model(8)
    out = dual_from_expansion(m, [1000, 2000])
    vals = m.state_values()
    target = np.where(vals <= 0, -5.0 / 8.0, 0.0)
    assert np.max(np.abs(out.psi - target)) <= 0.02


def test_dual_from_expansion_constant_cost():
    m = random_model(43)
    m = with_cost(m, np.full(m.n_pairs, 0.45))
    out = dual_from_expansion(m, [64, 128])
    assert np.allclose(out.psi, 0.45, atol=1e-12)
    assert np.allclose(out.eta, 0.0, atol=1e-10)
    assert out.residual <= 1e-10


def test_abel_window_constant_sequence():
    T = abel_window(lambda t: 0.4, M=1.0, eps=0.1, delta=0.5)
    assert T >= 1
    # independent re-check of the inequality at the returned T
    sigma = 0.4
    assert 0.4 < sigma + 0.5 + 2.0 / T


def test_abel_window_alternating():
    g = lambda t: (-1.0) ** t
    eps, delta, M = 0.1, 0.5, 1.0
    T = abel_window(g, M=M, eps=eps, delta=delta)
    sigma = eps * sum((1 - eps) ** t * g(t) for t in range(3000))
    avg = sum(g(t) for t in range(T)) / T
    assert avg < sigma + delta + 2 * M / T


def test_abel_window_rejects_bound_violation():
    with pytest.raises(ValueError, match="exceeds the bound"):
        abel_window(lambda t: 2.0, M=1.0, eps=0.1, delta=0.5)


def test_cesaro_window_constant():
    assert cesaro_window([1.0] * 16, T=16, delta=0.25) == 0


def test_cesaro_window_hand_pattern():
    # g = (2, -2, 0, 0, 0, 0, 0, 0), sigma = 0; T*=0 fails (window [2]),
    # T*=1 passes: every window average from index 1 is <= 0 <= sigma + delta
    g = [2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert cesaro_window(g, T=8, delta=0.5) == 1


@pytest.mark.parametrize("seed", [0, 7, 19, 33])
def test_bounds_report_sandwich_on_suite_models(seed):
    m = random_model(seed)
    rep = bounds_report(m, 0, [1, 8, 64, 512], [0.5, 0.2, 0.05])
    assert rep.sandwich_ok, rep.out_of_sandwich
    assert abs(rep.gap) <= 1e-6


def test_cesaro_window_independent_recheck():
    rng = np.random.default_rng(0)
    g = rng.uniform(-1, 1, size=60)
    T, delta = 60, 0.2
    t_star = cesaro_window(g, T=T, delta=delta)
    sigma = np.mean(g[:T])
    for s in range(1, T - t_star + 1):
        assert np.mean(g[t_star:t_star + s]) <= sigma + delta + 1e-12
    # minimality: every smaller start has a violating window
    for t0 in range(t_star):
        assert any(np.mean(g[t0:t0 + s]) > sigma + delta
                   for s in range(1, T - t0 + 1))
