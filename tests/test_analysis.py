import dataclasses
import itertools
import json

import numpy as np
import pytest

from occulimits import dp, programs
from occulimits.analysis import (SANDWICH_PAD, CertificateError, abel_window, bounds_report,
                                 cesaro_window, check_window, dual_from_expansion,
                                 verify_long_run_optimality)
from occulimits.cli import main
from occulimits.dp import (Plan, discounted_values, finite_horizon_values,
                          greedy_feedback_from_eta)
from occulimits.measures import (check_eps, discounted_occupation, occupation_measure,
                                 pair_laws, prg_detect, propagate)
from occulimits.model import (FiniteModel, TransitionTensor, example1_model,
                              example2_model)
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


@pytest.mark.parametrize("kind", ["vT", "heps"])
def test_a_value_past_its_slack_leaves_the_sandwich(monkeypatch, capsys, kind):
    # one point of one curve is moved past its slack, v_T(y0) at T = 10
    # above k*(y0) or h_eps(y0) at eps = 0.1 below d*(y0): the report lists
    # that point alone and bounds exits 4
    m = example1_model(0.5)
    y0, Ts, epss = m.initial_index, [1, 10, 100], [0.5, 0.1, 0.01]
    clean = bounds_report(m, y0, Ts, epss)
    assert clean.sandwich_ok and clean.out_of_sandwich == []
    scale = 2.0 * m.cost_bound * (1.0 + clean.xi_mass)
    if kind == "vT":
        param, name = 10, "finite_horizon_values"
        moved = clean.k_star_y0 + 2.0 * (scale / param + SANDWICH_PAD)
    else:
        param, name = 0.1, "discounted_values"
        moved = clean.d_star_y0 - 2.0 * (scale * param + SANDWICH_PAD)
    solve = getattr(dp, name)

    def tampered(model, arg, *rest):
        result, plan = solve(model, arg, *rest)
        vf = result[param - 1] if kind == "vT" else result
        if kind == "vT" or arg == param:
            vf.values = vf.values.copy()
            vf.values[y0] = moved
        return result, plan

    monkeypatch.setattr(dp, name, tampered)
    rep = bounds_report(m, y0, Ts, epss)
    assert rep.sandwich_ok is False
    assert rep.out_of_sandwich == [(kind, param, moved)]
    assert [r[-1] for r in rep.csv_rows()] == [r[:2] != (kind, param) for r in rep.csv_rows()]
    code = main(["bounds", "--builtin", "example1", "--y0", "0.5", "--T", "1,10,100",
                 "--eps", "0.5,0.1,0.01", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 4
    doc = json.loads(out)
    assert doc["sandwich_ok"] is False and [param, moved] in doc[f"{kind}_curve"]
    assert err.endswith("sandwich_ok=False\n")


def test_a_duality_gap_past_its_tolerance_is_not_strong(monkeypatch):
    # d*(y0) = mu is moved 1e-5 below k*(y0): strong duality fails, and the
    # curve endpoints are not compared to k*(y0), though a user slack is given
    m = example1_model(0.5)
    y0, Ts, epss = m.initial_index, [1, 10, 100], [0.5, 0.1, 0.01]
    assert bounds_report(m, y0, Ts, epss, user_slack=0.05).endpoints_ok is True
    solve = programs.augmented_lp

    def shifted(model, y, *rest):
        res = solve(model, y, *rest)
        return dataclasses.replace(res, dual=dataclasses.replace(res.dual, mu=res.dual.mu - 1e-5))

    monkeypatch.setattr(programs, "augmented_lp", shifted)
    rep = bounds_report(m, y0, Ts, epss, user_slack=0.05)
    assert rep.gap == pytest.approx(1e-5, rel=1e-6) and rep.sandwich_ok
    assert rep.strong_duality is False and rep.endpoints_ok is None


def test_bounds_report_input_validation():
    m = example1_model(0.5)
    with pytest.raises(ValueError):
        bounds_report(m, 1, [10, 5], [0.1])
    with pytest.raises(ValueError):
        bounds_report(m, 1, [5, 10], [0.1, 0.5])


def test_verify_example1_closed_form_dual():
    m = example1_model(0.5)
    dual = DualCertificate(mu=-0.25, psi=-np.abs(m.states[:, 0]) / 2,
                           eta=m.states[:, 0] + np.abs(m.states[:, 0]) / 2)
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 2]))
    verdict = verify_long_run_optimality(m, plan, dual, m.initial_index,
                                         T0=1, t_max=50, tol=1e-9)
    assert verdict.certified
    assert verdict.pointwise_residual <= 1e-12
    assert verdict.stationarity_residual <= 1e-12


def test_verify_example2_closed_form_dual_grid_tolerance():
    m = example2_model(8)
    vals = m.states[:, 0]
    psi = np.where(vals <= 0, -5.0 / 8.0, 0.0)
    eta = np.where(vals <= 0, vals + 5.0 / 8.0, 8.0 / 3.0 * vals)
    dual = DualCertificate(mu=-5.0 / 8.0, psi=psi, eta=eta)
    sel = []
    for i, v in enumerate(vals):
        us = m.pair_control[m.pair_state == i, 0].tolist()
        sel.append(m.state_pair_start[i] + (us.index(-1.0) if v <= 0 else us.index(v)))
    plan = Plan(kind="stationary_deterministic", selector=np.array(sel))
    verdict = verify_long_run_optimality(m, plan, dual, m.nearest_state(-0.5),
                                         T0=1, t_max=60, tol=5e-3)
    assert verdict.certified
    assert verdict.pointwise_residual <= 1e-10
    assert verdict.stationarity_residual <= 1e-10


def test_verify_flipped_plan_fails():
    m = example1_model(0.5)
    res = augmented_lp(m, m.initial_index)
    flipped = Plan(kind="stationary_deterministic", selector=np.array([0, 3]))
    verdict = verify_long_run_optimality(m, flipped, res.dual, m.initial_index,
                                         T0=1, t_max=50, tol=1e-8)
    assert not verdict.certified
    assert verdict.pointwise_residual >= 0.25


def test_verify_fails_a_dual_whose_psi_drifts_along_the_plan():
    # state 0 moves to the absorbing state 1, and psi = (0, 1): both
    # families hold, family 1 is tight at state 1, the plan's support from
    # t = 1 on, but E[psi(y_t)] = 1 != psi(y0) = 0, so only the
    # stationarity residual refuses the plan
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0],
                    noise=[1.0], pair_cost=[0.0, 0.0], next_idx=[[1], [1]])
    dual = DualCertificate(mu=-1.0, psi=np.array([0.0, 1.0]), eta=np.zeros(2))
    plan = Plan(kind="stationary_deterministic", selector=np.array([0, 1]))
    family1, family2 = dual.slacks(m, 0)
    assert family1.tolist() == [1.0, 0.0] and family2.tolist() == [1.0, 0.0]
    verdict = verify_long_run_optimality(m, plan, dual, 0, T0=1, t_max=10, tol=1e-9)
    assert verdict.certificate_violation == 0.0 and verdict.pointwise_residual == 0.0
    assert verdict.stationarity_residual == 1.0 and not verdict.certified


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


@pytest.mark.parametrize("m_exp", [4, 5])
def test_greedy_plan_of_the_built_dual_certifies_on_every_state(m_exp):
    # with an LP-vertex dual, 15 of 33 and 31 of 65 states failed here; the
    # dual built from policy iteration certifies all, y0 = 0 included
    m = example2_model(m_exp)
    failed = []
    for y0 in range(m.n_states):
        aug = augmented_lp(m, y0)
        plan = greedy_feedback_from_eta(m, aug.dual.eta)
        verdict = verify_long_run_optimality(m, plan, aug.dual, y0, T0=1, t_max=50,
                                             tol=1e-6)
        if not verdict.certified:
            failed.append(y0)
    assert failed == []


def test_greedy_plan_avoids_a_tie_that_leaves_the_optimal_gain():
    # from state 0, control 0 pays -10 and moves to the absorbing state 2
    # (gain 1); control 1 moves to the absorbing state 1 (gain 0).  At the
    # least M that makes family 1 hold, eta ties both controls and the
    # lowest index picks control 0
    m = FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 0, 1, 2],
                    pair_control=[0.0, 1.0, 0.0, 0.0],
                    noise=[1.0], pair_cost=[-10.0, 0.0, 0.0, 1.0],
                    next_idx=[[2], [1], [1], [2]])
    aug = augmented_lp(m, 0)
    assert aug.optimal_value == 0.0
    plan = greedy_feedback_from_eta(m, aug.dual.eta)
    assert plan.selector.tolist() == [1, 2, 3]  # control 1 of state 0
    assert verify_long_run_optimality(m, plan, aug.dual, 0, T0=1, t_max=10,
                                      tol=1e-9).certified


def test_verify_rejects_invalid_certificate():
    m = example1_model(0.5)
    bad = DualCertificate(mu=5.0, psi=np.zeros(2), eta=np.zeros(2))
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 2]))
    with pytest.raises(CertificateError):
        verify_long_run_optimality(m, plan, bad, 1, T0=1, t_max=10, tol=1e-8)


def test_nan_certificate_fails_its_check():
    # max(0.0, nan) is 0.0, so a NaN mu used to report no violation at all
    m = example1_model(0.5)
    good = augmented_lp(m, m.initial_index).dual
    nan_mu = DualCertificate(mu=np.nan, psi=good.psi, eta=good.eta)
    v1, v2 = nan_mu.violations(m, m.initial_index)
    assert np.isnan(v1) and v2 == 0.0
    plan = greedy_feedback_from_eta(m, good.eta)
    assert verify_long_run_optimality(m, plan, good, m.initial_index, T0=1, t_max=10,
                                      tol=1e-8).certified
    with pytest.raises(CertificateError):
        verify_long_run_optimality(m, plan, nan_mu, m.initial_index, T0=1, t_max=10,
                                   tol=1e-8)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_verify_refuses_vacuous_tolerance(tol):
    # at tol=inf the flipped plan used to certify against this junk dual,
    # whose certificate inequalities are violated by 165.5
    m = example1_model(0.5)
    junk = DualCertificate(mu=5.0, psi=np.array([3.0, -7.0]), eta=np.array([100.0, -100.0]))
    flipped = Plan(kind="stationary_deterministic", selector=np.array([0, 3]))
    with pytest.raises(ValueError, match="must be finite and positive"):
        verify_long_run_optimality(m, flipped, junk, m.initial_index,
                                   T0=1, t_max=50, tol=tol)


MISSHAPEN_DUALS = {
    "eta_column": (np.zeros(2), np.zeros((2, 1))),
    "psi_one_entry": (np.zeros(1), np.zeros(2)),
    "psi_three_entries": (np.zeros(3), np.zeros(2)),
    "eta_one_entry": (np.zeros(2), np.zeros(1)),
    "eta_three_entries": (np.zeros(2), np.zeros(3)),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_DUALS))
def test_certificate_refuses_misshapen_psi_or_eta(case):
    # a (2, 1) eta used to broadcast into a 4x4 family-1 slack, and a
    # one-entry psi escaped as a bare IndexError
    m = example1_model(0.5)
    psi, eta = MISSHAPEN_DUALS[case]
    dual = DualCertificate(mu=-0.25, psi=psi, eta=eta)
    refusal = rf"^{case.split('_')[0]} has shape \(.+\), expected \(2,\)$"
    with pytest.raises(ValueError, match=refusal):
        dual.slacks(m, m.initial_index)
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 2]))
    with pytest.raises(ValueError, match=refusal):
        verify_long_run_optimality(m, plan, dual, m.initial_index, T0=1, t_max=10, tol=1e-6)


# bools and non-numbers in place of example 1's closed-form dual
NON_NUMERIC_DUALS = {
    "mu_bool": {"mu": True},
    "mu_numpy_bool": {"mu": np.False_},
    "mu_string": {"mu": "-0.25"},
    "mu_none": {"mu": None},
    "psi_bool": {"psi": np.array([True, False])},
    "psi_strings": {"psi": np.array(["-0.25", "-0.25"])},
    "eta_bool": {"eta": [False, True]},
    "eta_objects": {"eta": np.array([None, 0.75], dtype=object)},
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC_DUALS))
def test_certificate_refuses_bool_and_non_numeric_duals(case):
    # a bool psi used to escape as numpy's bare TypeError ("numpy boolean
    # subtract"), and a bool mu or eta to be read as 0 and 1
    m = example1_model(0.5)
    vals = m.states[:, 0]
    closed_form = {"mu": -0.25, "psi": -np.abs(vals) / 2, "eta": vals + np.abs(vals) / 2}
    dual = DualCertificate(**{**closed_form, **NON_NUMERIC_DUALS[case]})
    plan = Plan(kind="stationary_deterministic", selector=np.array([1, 2]))
    checks = (lambda: dual.slacks(m, m.initial_index),
              lambda: dual.violations(m, m.initial_index),
              lambda: verify_long_run_optimality(m, plan, dual, m.initial_index,
                                                 T0=1, t_max=10, tol=1e-9))
    for check in checks:
        with pytest.raises(ValueError, match=r"^(mu|psi|eta) of dtype \S+ is not numeric$"):
            check()
    assert verify_long_run_optimality(m, plan, DualCertificate(**closed_form), m.initial_index,
                                      T0=1, t_max=10, tol=1e-9).certified


@pytest.mark.parametrize("entries", [1, 2, 4], ids=["one", "n_states", "n_pairs"])
def test_certificate_refuses_an_array_mu(entries):
    # a mu of one or n_pairs entries used to broadcast into the family-1
    # slack, and one of n_states entries failed with numpy's broadcast text
    m = example1_model(0.5)
    vals = m.states[:, 0]
    dual = DualCertificate(mu=np.full(entries, -0.25), psi=-np.abs(vals) / 2,
                           eta=vals + np.abs(vals) / 2)
    for check in (dual.slacks, dual.violations):
        with pytest.raises(ValueError, match=rf"^mu has shape \({entries},\), expected \(\)$"):
            check(m, m.initial_index)
    assert DualCertificate(-0.25, dual.psi, dual.eta).violations(m, m.initial_index) == (0, 0)


@pytest.mark.parametrize("user_slack", [np.inf, np.nan, -0.5])
def test_bounds_report_refuses_unusable_user_slack(user_slack):
    m = example1_model(0.5)
    with pytest.raises(ValueError, match="user_slack"):
        bounds_report(m, m.initial_index, [1, 10], [0.5], user_slack=user_slack)


def _uniform_plan(m):
    return Plan(kind="stationary_deterministic", selector=m.state_pair_start[:-1])


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
@pytest.mark.parametrize("y0", [-1, 17, 1.0, True], ids=["below", "above", "float", "bool"])
def test_out_of_range_y0_is_refused(entry, y0):
    # -1 used to wrap to the last state, 17 and 1.0 to escape as IndexError,
    # True to be read as state 1
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
    vals = m.states[:, 0]
    assert np.allclose(out.psi, -np.abs(vals) / 2, atol=1e-9)
    assert np.allclose(out.eta, vals + np.abs(vals) / 2, atol=1e-9)
    assert out.residual <= 1e-9


def test_dual_from_expansion_example2_step_function():
    m = example2_model(8)
    out = dual_from_expansion(m, [1000, 2000])
    vals = m.states[:, 0]
    target = np.where(vals <= 0, -5.0 / 8.0, 0.0)
    assert np.max(np.abs(out.psi - target)) <= 0.02


def test_dual_from_expansion_constant_cost():
    m = random_model(43)
    m = with_cost(m, np.full(m.n_pairs, 0.45))
    out = dual_from_expansion(m, [64, 128])
    assert np.allclose(out.psi, 0.45, atol=1e-12)
    assert np.allclose(out.eta, 0.0, atol=1e-10)
    assert out.residual <= 1e-10


@pytest.mark.parametrize("Ts", [[0, 5], [-3, 5], [10, 10], [4, 10, 10]])
def test_dual_from_expansion_refuses_unusable_horizons(Ts):
    # [0, 5] used to read v_5 as v_0, [10, 10] to divide by zero
    with pytest.raises(ValueError, match="must be >= 1|must differ"):
        dual_from_expansion(example2_model(3), Ts)


@pytest.mark.parametrize("Ts", [[1, 2.5, 4], [1, True, 4]])
def test_dual_from_expansion_refuses_non_integer_horizons(Ts):
    # 2.5 used to escape as a TypeError from indexing the curve, and True
    # to be read as the horizon 1
    with pytest.raises(ValueError, match=r"T=.* is not an integer horizon"):
        dual_from_expansion(example2_model(3), Ts)


@pytest.mark.parametrize("Ts", [[1.5, 3], [True, 3], [1, 2.5, 3]])
def test_bounds_report_refuses_non_integer_horizons(Ts):
    # [1.5, 3] used to raise a bare TypeError, and [True, 3] to report the
    # horizon True, which JSON writes as true
    with pytest.raises(ValueError, match=r"T=.* is not an integer horizon"):
        bounds_report(example1_model(0.5), 1, Ts, [0.5])


@pytest.mark.parametrize("window, name", [((True, 10), "T0"), ((0.5, 10), "T0"),
                                          ((1, 2.5), "t_max"), ((1, True), "t_max")])
def test_verify_refuses_non_integer_window(window, name):
    # t_max=2.5 used to raise a TypeError from range, T0=True to be read as
    # 1 and T0=0.5 to fail with islice's message
    m = example1_model(0.5)
    dual = augmented_lp(m, m.initial_index).dual
    plan = greedy_feedback_from_eta(m, dual.eta)
    T0, t_max = window
    with pytest.raises(ValueError, match=rf"{name}=.* is not an integer horizon"):
        verify_long_run_optimality(m, plan, dual, m.initial_index, T0=T0, t_max=t_max,
                                   tol=1e-8)


# entry point: (its horizons or discounts as a callable, the argument's
# name, unusable numbers and the message they keep, values that are not numbers)
NOT_A_NUMBER_CASES = {
    "bounds_report_T": (lambda m, Ts: bounds_report(m, 1, Ts, [0.5]), "T",
                        [0, 10], "increasing and at least 1", [["a", 3], [None]]),
    "bounds_report_eps": (lambda m, epss: bounds_report(m, 1, [1, 3], epss), "eps",
                          [0.1, 0.5], "nonempty and decreasing", [["x"], [0.5, None]]),
    "check_window_T0": (lambda m, T0: check_window(T0, 5, 1e-6), "T0",
                        -1, "starts before 0", ["a", None]),
    "check_window_t_max": (lambda m, t_max: check_window(0, t_max, 1e-6), "t_max",
                           -1, "is empty", ["a", None]),
    "dual_from_expansion": (lambda m, Ts: dual_from_expansion(m, Ts), "T",
                            [10, 10], "must differ", [[None, 3], ["a", 3]]),
    "check_eps": (lambda m, eps: check_eps(eps), "eps", 1.5, "outside", ["x", None]),
}


@pytest.mark.parametrize("entry", sorted(NOT_A_NUMBER_CASES))
def test_a_horizon_or_discount_that_is_not_a_number_is_refused(entry):
    # each of these used to escape as a bare TypeError from an order or
    # range check; numbers still meet those checks and their messages
    call, name, number, message, not_numbers = NOT_A_NUMBER_CASES[entry]
    m = example1_model(0.5)
    with pytest.raises(ValueError, match=message):
        call(m, number)
    for value in not_numbers:
        with pytest.raises(ValueError, match=rf"{name}=.* is not a number"):
            call(m, value)


# entry point: (a callable taking the argument, the argument's name); each
# is called with a string, None and True, except user_slack, whose None is
# its default
NOT_A_POSITIVE_NUMBER_CASES = {
    "discounted_values_tol": (lambda m, v: discounted_values(m, 0.1, tol=v), "tol"),
    "prg_detect_tol": (lambda m, v: prg_detect(m, _myopic(m), 0, 10, tol=v), "tol"),
    "discounted_occupation_tail_tol": (
        lambda m, v: discounted_occupation(m, _myopic(m), 0, 0.1, tail_tol=v), "tail_tol"),
    "check_window_tol": (lambda m, v: check_window(0, 5, v), "tol"),
    "abel_window_delta": (lambda m, v: abel_window(lambda t: 0.4, 1.0, 0.1, v), "delta"),
    "abel_window_M": (lambda m, v: abel_window(lambda t: 0.4, v, 0.1, 0.5), "M"),
    "cesaro_window_delta": (lambda m, v: cesaro_window([0.4] * 5, 5, v), "delta"),
    "bounds_report_user_slack": (
        lambda m, v: bounds_report(m, 1, [1, 3], [0.5], user_slack=v), "user_slack"),
}
NOT_NUMBERS = {"string": "x", "None": None, "bool": True}


def _myopic(m):
    return greedy_feedback_from_eta(m, np.zeros(m.n_states))


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in sorted(NOT_A_POSITIVE_NUMBER_CASES) for kind in NOT_NUMBERS
    if (entry, kind) != ("bounds_report_user_slack", "None")])
def test_a_tolerance_or_bound_that_is_not_a_number_is_refused(entry, kind):
    # a string or None used to escape as a bare TypeError from math.isfinite,
    # and True to be read as 1.0
    call, name = NOT_A_POSITIVE_NUMBER_CASES[entry]
    value = NOT_NUMBERS[kind]
    with pytest.raises(ValueError, match=rf"{name}={value!r} (is not a number|must be)"):
        call(example1_model(0.5), value)


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


@pytest.mark.parametrize("T,delta,problem", [
    (0, 0.5, "T=0 must be >= 1"), (-2, 0.5, "T=-2 must be >= 1"),
    (2.5, 0.5, "T=2.5 is not an integer"), (4, float("nan"), "delta=nan must be finite"),
    (4, float("inf"), "delta=inf must be finite"), (4, 0.0, "delta=0.0 must be finite")],
    ids=["T0", "T-2", "T2.5", "delta_nan", "delta_inf", "delta0"])
def test_cesaro_window_refuses_unusable_parameters(T, delta, problem):
    # T=0 used to divide 0/0, T=-2 and delta=nan to raise "the lemma promises one"
    with pytest.raises(ValueError, match=problem):
        cesaro_window([1.0] * 8, T=T, delta=delta)


@pytest.mark.parametrize("M,delta,problem", [
    (float("inf"), 0.5, "M=inf must be finite"), (float("nan"), 0.5, "M=nan must be finite"),
    (-1.0, 0.5, "M=-1.0 must be finite"), (1.0, float("inf"), "delta=inf must be finite"),
    (1.0, float("nan"), "delta=nan must be finite"), (1.0, 0.0, "delta=0.0 must be finite")],
    ids=["M_inf", "M_nan", "M-1", "delta_inf", "delta_nan", "delta0"])
def test_abel_window_refuses_unusable_parameters(M, delta, problem):
    # M=inf used to escape as OverflowError, M=nan and delta=inf as
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=problem):
        abel_window(lambda t: 0.0, M=M, eps=0.1, delta=delta)


@pytest.mark.parametrize("bad_t", [0, 3, 40])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_window_utilities_refuse_non_finite_values(bad_t, value):
    # abel_window let a NaN past its |g(t)| > M test and failed with "cannot
    # convert float NaN to integer" or its search cap; cesaro_window blamed
    # the lemma on NaNs and returned 0 on infinities
    seq = [0.25] * 48
    seq[bad_t] = float(value)
    with pytest.raises(ValueError, match=rf"g\({bad_t}\) = {value} is not finite"):
        abel_window(lambda t: seq[t] if t < len(seq) else 0.25, M=1.0, eps=0.5, delta=0.1)
    with pytest.raises(ValueError, match=rf"g\({bad_t}\) = {value} is not finite"):
        cesaro_window(seq, T=48, delta=0.1)
    if bad_t:  # only the first T terms are read
        assert cesaro_window(seq, T=bad_t, delta=0.1) == 0


@pytest.mark.parametrize("bad_t", [0, 2])
@pytest.mark.parametrize("value, dtype", [("0.5", "<U3"), (True, "bool"), (np.True_, "bool"),
                                          (None, "object"), ([0.5], None)],
                         ids=["string", "bool", "numpy_bool", "none", "list"])
def test_window_utilities_refuse_bool_and_non_numeric_terms(bad_t, value, dtype):
    # strings used to be parsed as numbers and bools read as 0 and 1
    seq = [0.25] * 8
    seq[bad_t] = value
    refusal = (rf"^g\({bad_t}\) of dtype {dtype} is not numeric$" if dtype
               else rf"^g\({bad_t}\) has shape \(1,\), expected \(\)$")
    with pytest.raises(ValueError, match=refusal):
        cesaro_window(seq, T=8, delta=0.1)
    with pytest.raises(ValueError, match=refusal):
        abel_window(lambda t: seq[t] if t < len(seq) else 0.25, M=1.0, eps=0.5, delta=0.1)
    if bad_t:  # only the first T terms are read
        assert cesaro_window(seq, T=bad_t, delta=0.1) == 0


def test_window_utilities_refuse_the_terms_they_used_to_read():
    # cesaro_window returned 2 on the strings and 1 on the bools, and
    # abel_window 1 on the string
    with pytest.raises(ValueError, match=r"^g\(0\) of dtype <U1 is not numeric$"):
        cesaro_window(["1", "2", "0.5"], 3, 0.1)
    with pytest.raises(ValueError, match=r"^g\(0\) of dtype bool is not numeric$"):
        cesaro_window([True, False, True], 3, 0.1)
    with pytest.raises(ValueError, match=r"^g\(0\) of dtype <U3 is not numeric$"):
        abel_window(lambda t: "0.5", 1.0, 0.5, 0.1)


@pytest.mark.parametrize("seed", [0, 7, 19, 33])
def test_bounds_report_sandwich_on_suite_models(seed):
    m = random_model(seed)
    rep = bounds_report(m, 0, [1, 8, 64, 512], [0.5, 0.2, 0.05])
    assert rep.sandwich_ok, rep.out_of_sandwich
    assert abs(rep.gap) <= 1e-6


def test_cesaro_window_reads_only_its_first_T_terms():
    # it used to read the whole iterator, so an endless one never returned
    def four_terms():
        yield from [1.0, 0.0, 0.0, 0.0]
        raise AssertionError("term T+1 was read")

    assert cesaro_window(four_terms(), T=4, delta=0.1) == 1
    assert cesaro_window(itertools.repeat(0.5), 3, 0.1) == 0
    with pytest.raises(ValueError, match="sequence of length 3 is shorter than T=4"):
        cesaro_window(iter([0.5] * 3), 4, 0.1)


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
