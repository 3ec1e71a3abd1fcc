"""Acceptance gate: every criterion at its stated tolerance, one printed
pass line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from itertools import product

import numpy as np
import pytest

from occulimits.analysis import abel_window, cesaro_window, verify_long_run_optimality
from occulimits.dp import (Plan, discounted_values, evaluate_plan_average,
                           finite_horizon_values, greedy_feedback_from_eta)
from occulimits.lp_core import LinearProgram, solve_lp
from occulimits.measures import discounted_occupation, occupation_measure
from occulimits.model import (FiniteModel, NoiseAtom, StatePoint,
                              example1_model, example1_family_model,
                              example2_model)
from occulimits.programs import (augmented_lp, discounted_stationary_lp,
                                 membership_residuals, stationary_lp)
from occulimits.suite import random_model, random_stationary_plan

from _oracles import bfs_enumeration_optimum, brute_force_finite_horizon

SUITE_SEEDS = range(50)
_suite_cache = {}


def suite_data():
    """Shared computations over the 50-model random suite (criteria 3-5)."""
    if _suite_cache:
        return _suite_cache
    t0 = time.perf_counter()
    records = []
    for seed in SUITE_SEEDS:
        m = random_model(seed)
        k_star = stationary_lp(m).optimal_value
        curve, _ = finite_horizon_values(m, 5000)
        v5000 = curve[-1].values
        h = np.array([discounted_stationary_lp(m, 1e-4, y0).optimal_value
                      for y0 in range(m.n_states)])
        aug = [augmented_lp(m, y0) for y0 in range(m.n_states)]
        records.append({"model": m, "k_star": k_star, "v5000": v5000, "h": h,
                        "k_y0": np.array([a.optimal_value for a in aug]),
                        "d_y0": np.array([a.dual.mu for a in aug])})
    _suite_cache["records"] = records
    _suite_cache["runtime"] = time.perf_counter() - t0
    return _suite_cache


def test_criterion_1_example1_exact():
    t0 = time.perf_counter()
    worst = {"v": 0.0, "h": 0.0, "lp": 0.0, "aug": 0.0, "gamma": 0.0}
    for y0 in (0.25, 0.5, 1.0):
        m = example1_model(y0)
        i = m.initial_index
        a = abs(y0)
        curve, _ = finite_horizon_values(m, 1000)
        got = np.array([curve[T - 1].values[i] for T in range(1, 1001)])
        exact = -a / 2 + (y0 + a / 2) / np.arange(1, 1001)
        worst["v"] = max(worst["v"], float(np.max(np.abs(got - exact))))
        for eps in (0.5, 0.1, 0.01, 1e-3):
            h, _ = discounted_values(m, eps)
            h_exact = -a / 2 + eps * (y0 + a / 2)
            worst["h"] = max(worst["h"], abs(float(h.values[i]) - h_exact))
            lp = discounted_stationary_lp(m, eps, i)
            worst["lp"] = max(worst["lp"], abs(lp.optimal_value - float(h.values[i])))
        aug = augmented_lp(m, i)
        worst["aug"] = max(worst["aug"], abs(aug.optimal_value + a / 2),
                           abs(aug.dual.mu + a / 2))
        target = np.zeros(4)
        target[m.pair_index(0, 1)] = 0.75
        target[m.pair_index(1, 0)] = 0.25
        worst["gamma"] = max(worst["gamma"],
                             float(np.max(np.abs(aug.gamma.weights - target))))
    runtime = time.perf_counter() - t0
    assert worst["v"] <= 1e-12
    assert worst["h"] <= 1e-9
    assert worst["lp"] <= 1e-7
    assert worst["aug"] <= 1e-8
    assert worst["gamma"] <= 1e-8
    assert runtime < 1.0
    print(f"ACCEPTANCE 1: PASS - example 1 exact (v {worst['v']:.1e}, "
          f"h {worst['h']:.1e}, k*(eps,y0) {worst['lp']:.1e}, "
          f"k*=d* {worst['aug']:.1e}, gamma {worst['gamma']:.1e}, "
          f"runtime {runtime:.2f}s < 1s)")


def _example2_errors(m_exp, control_step):
    model = example2_model(m_exp, control_step)
    curve, _ = finite_horizon_values(model, 2000)
    v2000 = curve[-1].values
    v_err, k_err = {}, {}
    for y in (-1.0, -0.5, -2.0 ** -8, 2.0 ** -8, 0.5, 1.0):
        i = model.nearest_state(y)
        target = -5.0 / 8.0 if y <= 0 else 0.0
        v_err[y] = abs(float(v2000[i]) - target)
        k_err[y] = abs(augmented_lp(model, i).optimal_value - target)
    return v_err, k_err


def test_criterion_2_example2_grid():
    t0 = time.perf_counter()
    v8, k8 = _example2_errors(8, 2.0 ** -8)
    v10, k10 = _example2_errors(10, 2.0 ** -7)
    runtime = time.perf_counter() - t0
    for y in v8:
        assert v8[y] <= 0.02 and k8[y] <= 0.02
        assert v10[y] <= v8[y] + 1e-6, f"v error grew at y0={y}"
        assert k10[y] <= k8[y] + 1e-6, f"k* error grew at y0={y}"
    assert runtime < 60.0
    print(f"ACCEPTANCE 2: PASS - example 2 grids (worst v err m8 "
          f"{max(v8.values()):.1e} m10 {max(v10.values()):.1e}, worst k* err "
          f"m8 {max(k8.values()):.1e} m10 {max(k10.values()):.1e}, "
          f"runtime {runtime:.1f}s < 60s)")


def test_criterion_3_sandwich_suite():
    data = suite_data()
    worst_gap = worst_order = worst_v = worst_h = 0.0
    for rec in data["records"]:
        worst_order = max(worst_order, float(np.max(rec["d_y0"] - rec["k_y0"])))
        worst_gap = max(worst_gap, float(np.max(np.abs(rec["d_y0"] - rec["k_y0"]))))
        worst_v = max(worst_v, float(np.max(np.abs(rec["v5000"] - rec["k_y0"]))))
        worst_h = max(worst_h, float(np.max(np.abs(rec["h"] - rec["k_y0"]))))
    assert worst_order <= 1e-7          # d*(y0) <= k*(y0) + 1e-7
    assert worst_gap <= 1e-6            # zero finite-LP duality gap
    assert worst_v <= 5e-3
    assert worst_h <= 5e-3
    assert data["runtime"] < 120.0
    print(f"ACCEPTANCE 3: PASS - 50-model sandwich (gap {worst_gap:.1e}, "
          f"|v5000-k*(y0)| {worst_v:.1e}, |h-k*(y0)| {worst_h:.1e}, "
          f"suite runtime {data['runtime']:.1f}s < 120s)")


def test_criterion_4_ergodic_limits():
    data = suite_data()
    worst_v = worst_h = 0.0
    for rec in data["records"]:
        worst_v = max(worst_v, abs(float(np.min(rec["v5000"])) - rec["k_star"]))
        worst_h = max(worst_h, abs(float(np.min(rec["h"])) - rec["k_star"]))
    fam = example1_family_model([0.25, 0.5, 0.75, 1.0])
    k_star = stationary_lp(fam).optimal_value
    curve, _ = finite_horizon_values(fam, 5000)
    h = np.array([discounted_stationary_lp(fam, 1e-4, y0).optimal_value
                  for y0 in range(fam.n_states)])
    worst_v = max(worst_v, abs(float(np.min(curve[-1].values)) - k_star))
    worst_h = max(worst_h, abs(float(np.min(h)) - k_star))
    assert worst_v <= 5e-3
    assert worst_h <= 5e-3
    print(f"ACCEPTANCE 4: PASS - ergodic limits (|min v5000 - k*| {worst_v:.1e}, "
          f"|min h - k*| {worst_h:.1e})")


def test_criterion_5_occupational_membership():
    data = suite_data()
    models = [rec["model"] for rec in data["records"]]
    rng = np.random.default_rng(123)
    worst_res = 0.0
    for j in range(200):
        m = models[j % len(models)]
        plan = random_stationary_plan(m, 1000 + j, randomized=bool(j % 2))
        y0 = int(rng.integers(0, m.n_states))
        eps = float(rng.uniform(0.05, 0.5))
        g = discounted_occupation(m, plan, y0, eps, tail_tol=1e-13)
        worst_res = max(worst_res, membership_residuals(m, g, "W_eps",
                                                        eps=eps, y0=y0))
    worst_id = 0.0
    for j in range(200):
        m = models[(3 * j) % len(models)]
        T = int(rng.integers(1, 150))
        if j % 3 == 2:
            sel = [np.array([int(rng.integers(0, len(cs))) for cs in m.controls])
                   for _ in range(T)]
            plan = Plan(kind="staged", selector=sel)
        else:
            plan = random_stationary_plan(m, 2000 + j, randomized=bool(j % 2))
        y0 = int(rng.integers(0, m.n_states))
        gamma = occupation_measure(m, plan, y0, T)
        lhs = gamma.integrate(m.pair_cost)
        rhs = evaluate_plan_average(m, plan, y0, T)
        worst_id = max(worst_id, abs(lhs - rhs))
    assert worst_res <= 1e-8
    assert worst_id <= 1e-12
    print(f"ACCEPTANCE 5: PASS - 200 W(eps,y0) residuals (worst {worst_res:.1e})"
          f" and 200 time-average identities (worst {worst_id:.1e})")


def test_criterion_6_brute_force_oracle():
    # pairs (state, control) = (0, 0), (0, 1), (1, 0), (1, 1); one image per atom
    m = FiniteModel(states=[StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
                    controls=[[(0.0,), (1.0,)]] * 2,
                    noise=[NoiseAtom(0, 0.625), NoiseAtom(1, 0.375)],
                    pair_cost=[0.5, -0.25, 0.75, -0.5],
                    next_idx=[[0, 1], [1, 1], [1, 0], [0, 0]])
    curve, _ = finite_horizon_values(m, 3)
    worst = 0.0
    for y0 in range(2):
        oracle = brute_force_finite_horizon(m, y0, 3)
        worst = max(worst, abs(float(curve[-1].values[y0]) - oracle))
    assert worst <= 1e-14
    print(f"ACCEPTANCE 6: PASS - v_3 equals the 64-plan exhaustive oracle "
          f"(worst gap {worst:.1e})")


def test_criterion_7_optimality_certification():
    worst = 0.0
    for y0 in (0.25, 0.5, 1.0):
        m = example1_model(y0)
        i = m.initial_index
        aug = augmented_lp(m, i)
        plan = greedy_feedback_from_eta(m, aug.dual.eta)
        verdict = verify_long_run_optimality(m, plan, aug.dual, i,
                                             T0=1, t_max=60, tol=1e-8)
        assert verdict.certified, f"example1 y0={y0} not certified"
        worst = max(worst, verdict.pointwise_residual, verdict.stationarity_residual)
    m2 = example2_model(8)
    for y in (-1.0, -0.5, -2.0 ** -8):
        i = m2.nearest_state(y)
        aug = augmented_lp(m2, i)
        plan = greedy_feedback_from_eta(m2, aug.dual.eta)
        verdict = verify_long_run_optimality(m2, plan, aug.dual, i,
                                             T0=1, t_max=60, tol=1e-8)
        assert verdict.certified, f"example2 y0={y} not certified"
        worst = max(worst, verdict.pointwise_residual, verdict.stationarity_residual)
    m = example1_model(0.5)
    aug = augmented_lp(m, m.initial_index)
    flipped = Plan(kind="stationary_deterministic", selector=np.array([0, 1]))
    bad = verify_long_run_optimality(m, flipped, aug.dual, m.initial_index,
                                     T0=1, t_max=60, tol=1e-8)
    assert not bad.certified and bad.pointwise_residual >= 0.25
    print(f"ACCEPTANCE 7: PASS - greedy-from-dual certified on examples 1 and 2 "
          f"(worst residual {worst:.1e}); flipped plan fails at "
          f"{bad.pointwise_residual:.3f} >= 0.25")


def test_criterion_8_window_lemmas():
    failures = 0
    for i in range(100):
        rng = np.random.default_rng(10_000 + i)
        values = rng.choice([-1.0, 1.0], size=4096)
        g = lambda t: values[t] if t < len(values) else values[-1]
        eps = (0.1, 0.01)[i % 2]
        delta = (0.5, 0.1)[(i // 2) % 2]
        T = abel_window(g, M=1.0, eps=eps, delta=delta)
        # independent re-evaluation of both sides
        n = int(np.ceil(np.log(1e-16) / np.log1p(-eps)))
        sigma = eps * sum((1 - eps) ** t * g(t) for t in range(n))
        lhs = sum(g(t) for t in range(T)) / T
        if not lhs < sigma + delta + 2.0 / T:
            failures += 1
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        T = int(rng.integers(20, 200))
        seq = rng.uniform(-1, 1, size=T)
        delta = (0.5, 0.1, 0.05)[i % 3]
        t_star = cesaro_window(seq, T=T, delta=delta)
        sigma = float(np.mean(seq))
        for s in range(1, T - t_star + 1):
            if float(np.mean(seq[t_star:t_star + s])) > sigma + delta + 1e-12:
                failures += 1
                break
    assert failures == 0
    print("ACCEPTANCE 8: PASS - 100 Abel + 100 Cesaro window witnesses "
          "re-verified independently, zero failures")


def test_criterion_9_lp_kernel_oracle():
    sizes = [(3 + i % 7, (3 + i % 7) + 3 + (3 * i) % 6) for i in range(98)]
    sizes += [(12, 20), (12, 20)]
    worst_obj = worst_gap = worst_slack = 0.0
    for i, (m_rows, n_cols) in enumerate(sizes):
        rng = np.random.default_rng(40_000 + i)
        A = rng.normal(size=(m_rows, n_cols))
        x0 = np.abs(rng.normal(size=n_cols))
        x0[rng.random(n_cols) < 0.4] = 0.0
        b = A @ x0
        y0 = rng.normal(size=m_rows)
        c = A.T @ y0 + np.abs(rng.normal(size=n_cols)) * (rng.random(n_cols) > 0.3)
        lp = LinearProgram(c=c, A=A, b=b)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        oracle = bfs_enumeration_optimum(c, A, b)
        worst_obj = max(worst_obj, abs(sol.objective - oracle))
        v = sol.certificate_violations(lp)
        worst_gap = max(worst_gap, v["duality_gap"])
        worst_slack = max(worst_slack, v["slackness"])
    assert worst_obj <= 1e-9
    assert worst_gap <= 1e-9
    assert worst_slack <= 1e-9
    print(f"ACCEPTANCE 9: PASS - 100 LPs vs basic-solution enumeration "
          f"(worst objective gap {worst_obj:.1e}, duality gap {worst_gap:.1e}, "
          f"slackness {worst_slack:.1e})")
