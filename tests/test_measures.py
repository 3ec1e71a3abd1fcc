import numpy as np
import pytest

from occulimits.dp import Plan, evaluate_plan_average, finite_horizon_values
from occulimits.measures import (canonical_test_family, discounted_occupation,
                                 hausdorff, occupation_measure, pair_laws,
                                 prg_detect, propagate, rho)
from occulimits.model import (FiniteModel, NoiseAtom, StatePoint,
                              example1_model, example2_model, transition)
from occulimits.programs import GMeasure, membership_residuals
from occulimits.suite import random_model, random_stationary_plan

from _oracles import truncated_discounted_occupation


def example1_optimal_plan(m):
    # +1 on the negative state (local 1), -1 on the positive state (local 0)
    return Plan(kind="stationary_deterministic", selector=np.array([1, 0]))


def test_example1_law_stationary_from_t1():
    m = example1_model(0.5)
    path = propagate(m, example1_optimal_plan(m), m.initial_index, 30)
    for t in range(1, 31):
        assert np.allclose(path.mu[t], [0.75, 0.25], atol=1e-14)


def test_deterministic_permutation_point_mass_path():
    # 3-cycle under a single atom: point mass stays a point mass
    m = FiniteModel(states=[StatePoint((float(i),), i) for i in range(3)],
                    controls=[[(0.0,)]] * 3, noise=[NoiseAtom(0, 1.0)],
                    pair_cost=[0.0] * 3, next_idx=[[1], [2], [0]])
    plan = Plan(kind="stationary_deterministic", selector=np.zeros(3, dtype=int))
    path = propagate(m, plan, 0, 6)
    for t in range(7):
        assert np.allclose(path.mu[t], np.roll([1.0, 0.0, 0.0], t % 3))


def test_two_state_two_step_hand_law():
    # single control per state, P(.|0) = (0.3, 0.7), P(.|1) = (0.6, 0.4)
    # mu_1 = (0.3, 0.7); mu_2 = (0.3*0.3 + 0.7*0.6, 0.3*0.7 + 0.7*0.4) = (0.51, 0.49)
    rows = np.array([[0.3, 0.7], [0.6, 0.4]])
    m = FiniteModel(states=[StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
                    controls=[[(0.0,)], [(0.0,)]], noise=[], pair_cost=[0.0, 0.0],
                    kernel=rows)
    plan = Plan(kind="stationary_deterministic", selector=np.zeros(2, dtype=int))
    path = propagate(m, plan, 0, 2)
    assert np.allclose(path.mu[1], [0.3, 0.7], atol=1e-15)
    assert np.allclose(path.mu[2], [0.51, 0.49], atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_pair_laws_match_the_reference_recursion(seed):
    m = random_model(seed)
    _, plan = finite_horizon_values(m, 10)  # ten stages: enough for mu_0..mu_10
    laws = list(pair_laws(m, plan, 0, 10))
    assert len(laws) == 10
    mu = np.zeros(m.n_states)
    mu[0] = 1.0
    for t, (mu_t, law) in enumerate(laws):
        assert np.array_equal(mu_t, mu)
        assert np.array_equal(law, mu[m.pair_state] * plan.pair_weights(m, t))
        mu = transition(m).P.T @ law
    path = propagate(m, plan, 0, 10)
    assert np.array_equal(path.mu, np.vstack([mu_t for mu_t, _ in laws] + [mu]))


def test_pair_laws_check_the_plan_before_any_law():
    m = example1_model(0.5)
    laws = pair_laws(m, Plan(kind="stationary_deterministic", selector=np.array([2, 0])), 0, 0)
    with pytest.raises(ValueError, match="bad deterministic selector"):
        next(laws)


@pytest.mark.parametrize("entry", [
    lambda m, plan: prg_detect(m, plan, m.initial_index, t_max=10),
    lambda m, plan: discounted_occupation(m, plan, m.initial_index, 0.1, tail_tol=1e-13)],
    ids=["prg_detect", "discounted_occupation"])
def test_empty_staged_plan_is_refused(entry):
    with pytest.raises(ValueError, match="at least one stage"):
        entry(example1_model(0.5), Plan(kind="staged", selector=[]))


def test_example1_occupation_converges():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    T = 4000
    gamma = occupation_measure(m, plan, m.initial_index, T)
    # pairs: (-0.5,-1), (-0.5,+1), (0.5,-1), (0.5,+1)
    target = np.array([0.0, 0.75, 0.25, 0.0])
    assert np.max(np.abs(gamma.weights - target)) <= 1.0 / T


def test_occupation_T1_point_mass():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    gamma = occupation_measure(m, plan, m.initial_index, 1)
    assert gamma.weights[m.pair_index(1, 0)] == 1.0
    assert gamma.total_mass == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_occupation_integral_equals_plan_average(seed):
    m = random_model(seed)
    plan = random_stationary_plan(m, seed + 100, randomized=bool(seed % 2))
    T = 37
    gamma = occupation_measure(m, plan, 0, T)
    lhs = gamma.integrate(m.pair_cost)
    rhs = evaluate_plan_average(m, plan, 0, T)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("seed", [4, 5])
def test_time_average_identity_for_test_functions(seed):
    # int q dgamma == (1/T) sum_t E[q(y(t), u(t))] for arbitrary tables q
    m = random_model(seed)
    plan = random_stationary_plan(m, seed, randomized=True)
    T = 23
    gamma = occupation_measure(m, plan, 0, T)
    path = propagate(m, plan, 0, T)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        q = rng.uniform(-1, 1, size=m.n_pairs)
        direct = sum(float((path.mu[t][m.pair_state] * plan.pair_weights(m)) @ q)
                     for t in range(T)) / T
        assert gamma.integrate(q) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_occupation_residual_telescopes(seed):
    # the W-defect of an occupation measure is exactly (mu_0 - mu_T)/T
    m = random_model(seed)
    plan = random_stationary_plan(m, seed)
    T = 19
    gamma = occupation_measure(m, plan, 0, T)
    path = propagate(m, plan, 0, T)
    tensor = transition(m)
    marg = np.zeros(m.n_states)
    np.add.at(marg, m.pair_state, gamma.weights)
    defect = marg - tensor.push(gamma.weights)
    assert np.max(np.abs(defect - (path.mu[0] - path.mu[T]) / T)) <= 1e-12
    assert membership_residuals(m, gamma, "W") <= 2 * m.cost_bound / T + 1e-12


def test_example1_discounted_occupation_value():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    g = discounted_occupation(m, plan, m.initial_index, 0.1, tail_tol=1e-13)
    assert g.integrate(m.pair_cost) == pytest.approx(-0.175, abs=1e-11)
    assert g.total_mass == pytest.approx(1.0, abs=1e-15)


def test_absorbing_state_discounted_point_mass():
    m = FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[(0.0,)]],
                    noise=[NoiseAtom(0, 1.0)], pair_cost=[0.5], next_idx=[[0]])
    plan = Plan(kind="stationary_deterministic", selector=np.zeros(1, dtype=int))
    for eps in (0.9, 0.05):
        g = discounted_occupation(m, plan, 0, eps, tail_tol=1e-12)
        assert g.weights[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_discounted_occupation_in_W_eps(seed):
    m = random_model(seed)
    plan = random_stationary_plan(m, seed, randomized=True)
    eps = 0.15
    g = discounted_occupation(m, plan, 1 % m.n_states, eps, tail_tol=1e-13)
    res = membership_residuals(m, g, "W_eps", eps=eps, y0=1 % m.n_states)
    assert res <= 1e-9


@pytest.mark.parametrize("randomized", [False, True])
def test_discounted_occupation_matches_truncated_series(randomized):
    for seed in range(20):
        m = random_model(seed)
        plan = random_stationary_plan(m, seed, randomized=randomized)
        y0 = seed % m.n_states
        for eps in (0.5, 0.1, 1e-2):
            g = discounted_occupation(m, plan, y0, eps, tail_tol=1e-13)
            ref = truncated_discounted_occupation(m, plan, y0, eps, tail_tol=1e-14)
            assert np.max(np.abs(g.weights - ref)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_staged_discounted_occupation_matches_stationary_solve(seed):
    # 120 repeats of one stationary selector leave a tail of 0.7^120 < 1e-18,
    # so the staged sum and the stationary solve must agree
    m = random_model(seed)
    plan = random_stationary_plan(m, seed)
    staged = Plan(kind="staged", selector=[plan.selector] * 120)
    y0 = seed % m.n_states
    g = discounted_occupation(m, staged, y0, 0.3, tail_tol=1e-12)
    ref = discounted_occupation(m, plan, y0, 0.3, tail_tol=1e-12)
    assert np.max(np.abs(g.weights - ref.weights)) <= 1e-12


def test_rho_zero_and_symmetry():
    m = random_model(12)
    fam = canonical_test_family(m)
    rng = np.random.default_rng(0)
    w1 = rng.dirichlet(np.ones(m.n_pairs))
    w2 = rng.dirichlet(np.ones(m.n_pairs))
    g1, g2 = GMeasure(w1), GMeasure(w2)
    assert rho(g1, g1, fam) == 0.0
    assert rho(g1, g2, fam) == pytest.approx(rho(g2, g1, fam), abs=1e-15)
    assert rho(g1, g2, fam) > 0


def test_rho_point_masses_hand_value():
    # 1-d states/controls: family is 1, y, u, y^2, yu, u^2, y^3, ... normalized.
    # Point masses at pair a=(y=0, u=0) and b=(y=1, u=0) on a 2-state model:
    # normalized monomial gap is 1 for every pure power of y, 0 otherwise.
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = FiniteModel(states=[StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
                    controls=[[(0.0,)], [(0.0,)]], noise=[], pair_cost=[0.0, 0.0],
                    kernel=rows)
    fam = canonical_test_family(m)
    g_a = GMeasure(np.array([1.0, 0.0]))
    g_b = GMeasure(np.array([0.0, 1.0]))
    # surviving monomials in grlex order: 1, y, y^2, y^3 (all u-powers vanish)
    # gaps: 0, 1, 1, 1 at weights 2^-1..2^-4
    expected = 0.0 / 2 + 1.0 / 4 + 1.0 / 8 + 1.0 / 16
    assert rho(g_a, g_b, fam) == pytest.approx(expected, abs=1e-15)


def test_hausdorff_cases():
    m = random_model(14)
    fam = canonical_test_family(m)
    rng = np.random.default_rng(1)
    a, b, c = (GMeasure(rng.dirichlet(np.ones(m.n_pairs))) for _ in range(3))
    assert hausdorff([a, b], [a, b], fam) == 0.0
    assert hausdorff([a], [b], fam) == pytest.approx(rho(a, b, fam), abs=1e-15)
    # {a} vs {a,b}: the asymmetric direction dominates, rho_H = rho(a,b)
    assert hausdorff([a], [a, b], fam) == pytest.approx(rho(a, b, fam), abs=1e-15)
    # brute force the directed sup-inf values for {a,b} vs {a,c}
    directed_fwd = max(min(rho(a, a, fam), rho(a, c, fam)),
                       min(rho(b, a, fam), rho(b, c, fam)))
    directed_back = max(min(rho(a, a, fam), rho(a, b, fam)),
                        min(rho(c, a, fam), rho(c, b, fam)))
    assert hausdorff([a, b], [a, c], fam) == pytest.approx(
        max(directed_fwd, directed_back), abs=1e-15)


def test_prg_example1():
    m = example1_model(0.5)
    rep = prg_detect(m, example1_optimal_plan(m), m.initial_index, t_max=20)
    assert rep.is_prg and rep.T0 == 1 and rep.period == 1


def test_prg_example2_negative_start():
    m = example2_model(6)
    vals = m.state_values()
    sel = []
    for i, v in enumerate(vals):
        us = [u[0] for u in m.controls[i]]
        sel.append(us.index(-1.0) if v <= 0 else us.index(v))
    plan = Plan(kind="stationary_deterministic", selector=np.array(sel))
    rep = prg_detect(m, plan, m.nearest_state(-0.5), t_max=20)
    assert rep.is_prg and rep.T0 == 1 and rep.period == 1


def exact_positive_orbit_model(levels=20):
    # states 0.5 * 4^-j with u = y the only control; the orbit never snaps,
    # it keeps spreading binomially, so no finite period emerges
    values = [0.5 * 0.25 ** j for j in range(levels)]
    states = [StatePoint((v,), i) for i, v in enumerate(values)]
    return FiniteModel(states=states, controls=[[(v,)] for v in values],
                       noise=[NoiseAtom(0, 0.5), NoiseAtom(1, 0.5)], pair_cost=values,
                       next_idx=[[i, min(i + 1, levels - 1)] for i in range(levels)])


def test_prg_not_detected_on_exact_positive_orbit():
    m = exact_positive_orbit_model()
    plan = Plan(kind="stationary_deterministic", selector=np.zeros(m.n_states, dtype=int))
    rep = prg_detect(m, plan, 0, t_max=30)
    assert not rep.is_prg


def test_prg_staged_plan_cycles():
    # deterministic 3-cycle with a single control: the cycled one-stage plan
    # generates a period-3 law from t=0
    m = FiniteModel(states=[StatePoint((float(i),), i) for i in range(3)],
                    controls=[[(0.0,)]] * 3, noise=[NoiseAtom(0, 1.0)],
                    pair_cost=[0.0] * 3, next_idx=[[1], [2], [0]])
    plan = Plan(kind="staged", selector=[np.zeros(3, dtype=int)])
    rep = prg_detect(m, plan, 0, t_max=12)
    assert rep.is_prg and rep.T0 == 0 and rep.period == 3


def test_prg_two_stage_plan_cycles_example1():
    # stage 0 plays +1 on the negative state and -1 on the positive one, stage
    # 1 the opposite; from +0.5 the pair law alternates from t=1 on
    m = example1_model(0.5)
    plan = Plan(kind="staged", selector=[np.array([1, 0]), np.array([0, 1])])
    rep = prg_detect(m, plan, m.nearest_state(0.5), t_max=20)
    assert rep.is_prg and rep.T0 == 1 and rep.period == 2


def test_prg_input_check():
    m = example1_model(0.5)
    with pytest.raises(ValueError):
        prg_detect(m, example1_optimal_plan(m), 0, t_max=1)


def test_family_sup_norm_bound():
    m = random_model(15)
    fam = canonical_test_family(m)
    assert 1 <= len(fam) <= 32
    for q in fam.tables:
        assert np.max(np.abs(q)) <= 1.0 + 1e-12
