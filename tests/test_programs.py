import numpy as np
import pytest

from occulimits.dp import discounted_values
from occulimits.measures import discounted_occupation
from occulimits.model import (FiniteModel, StatePoint, example1_model,
                              example1_family_model, example2_model)
from occulimits.programs import (GMeasure, SolverError, augmented_lp,
                                 discounted_stationary_lp,
                                 membership_residuals, stationary_lp)
from occulimits.suite import random_model, random_stationary_plan

from _oracles import stationary_average_oracle, with_cost


def constant_cost(model, c):
    return with_cost(model, np.full(model.n_pairs, c))


def test_stationary_example1_class_matches_policy_enumeration():
    m = example1_model(0.5)
    res = stationary_lp(m)
    assert res.optimal_value == pytest.approx(-0.25, abs=1e-10)
    assert res.optimal_value == pytest.approx(stationary_average_oracle(m), abs=1e-9)
    assert res.gamma.total_mass == pytest.approx(1.0, abs=1e-9)
    assert membership_residuals(m, res.gamma, "W") <= 1e-9


def test_stationary_full_family_reaches_minus_half():
    fam = example1_family_model([0.25, 0.5, 0.75, 1.0])
    res = stationary_lp(fam)
    assert res.optimal_value == pytest.approx(-0.5, abs=1e-10)


def test_stationary_constant_cost():
    m = constant_cost(random_model(23), 0.3)
    res = stationary_lp(m)
    assert res.optimal_value == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stationary_matches_policy_enumeration_random(seed):
    m = random_model(seed, max_states=4, max_controls=3)
    res = stationary_lp(m)
    assert res.optimal_value == pytest.approx(stationary_average_oracle(m), abs=1e-8)


def test_discounted_example1_values():
    m = example1_model(0.5)
    i = m.initial_index
    res = discounted_stationary_lp(m, 0.1, i)
    assert res.optimal_value == pytest.approx(-0.175, abs=1e-10)
    for eps in (0.35, 0.02, 0.6):
        res = discounted_stationary_lp(m, eps, i)
        assert res.optimal_value == pytest.approx(-0.25 + 0.75 * eps, abs=1e-9)


def test_discounted_constant_cost():
    m = constant_cost(random_model(29), -0.4)
    for eps in (0.5, 0.1):
        for y0 in range(m.n_states):
            res = discounted_stationary_lp(m, eps, y0)
            assert res.optimal_value == pytest.approx(-0.4, abs=1e-9)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_discounted_lp_equals_dp_oracle(seed):
    m = random_model(seed)
    for eps in (0.5, 0.2):
        h, _ = discounted_values(m, eps, tol=1e-11)
        for y0 in range(m.n_states):
            res = discounted_stationary_lp(m, eps, y0)
            assert res.optimal_value == pytest.approx(h.values[y0], abs=1e-7)


def test_augmented_example1():
    m = example1_model(0.5)
    i = m.initial_index
    res = augmented_lp(m, i)
    assert res.optimal_value == pytest.approx(-0.25, abs=1e-10)
    assert res.dual.mu == pytest.approx(-0.25, abs=1e-8)
    target = np.zeros(4)
    target[m.pair_index(0, 1)] = 0.75
    target[m.pair_index(1, 0)] = 0.25
    assert np.allclose(res.gamma.weights, target, atol=1e-9)
    assert res.xi is not None and res.xi.total_mass > 0
    assert membership_residuals(m, res.gamma, "Omega", y0=i, xi=res.xi) <= 1e-8


def test_augmented_example2_negative_start():
    m = example2_model(8)
    i = m.nearest_state(-0.5)
    res = augmented_lp(m, i)
    assert res.optimal_value == pytest.approx(-5.0 / 8.0, abs=1e-8)
    w = res.gamma.weights
    half = [(m.nearest_state(-1.0), -1.0), (m.nearest_state(-0.25), -1.0)]
    covered = 0.0
    for state, u in half:
        us = [c[0] for c in m.controls[state]]
        p = m.pair_index(state, us.index(u))
        assert w[p] == pytest.approx(0.5, abs=1e-8)
        covered += w[p]
    assert covered == pytest.approx(res.gamma.total_mass, abs=1e-8)


def test_augmented_example2_positive_start():
    m = example2_model(8)
    i = m.nearest_state(0.5)
    res = augmented_lp(m, i)
    assert abs(res.optimal_value) <= 0.02
    support = res.gamma.support(tol=1e-9)
    states = {float(m.states[int(m.pair_state[p])].coords[0]) for p in support}
    assert all(abs(s) <= 2.0 ** -7 for s in states)


def test_augmented_theta_perturbation():
    m = example1_model(0.5)
    i = m.initial_index
    base = augmented_lp(m, i)
    theta_small = np.full(m.n_pairs, 0.01)
    theta_big = np.full(m.n_pairs, 0.05)
    small = augmented_lp(m, i, theta=theta_small)
    big = augmented_lp(m, i, theta=theta_big)
    assert base.optimal_value <= small.optimal_value + 1e-8
    assert small.optimal_value <= big.optimal_value + 1e-8
    assert small.dual.mu == pytest.approx(small.optimal_value, abs=1e-7)
    # objective decomposition: value = int k dgamma + int theta dxi
    recon = small.gamma.integrate(m.pair_cost) + small.xi.integrate(theta_small)
    assert recon == pytest.approx(small.optimal_value, abs=1e-8)


def test_theta_validation():
    m = example1_model(0.5)
    with pytest.raises(ValueError):
        augmented_lp(m, 0, theta=np.full(m.n_pairs, -1.0))
    with pytest.raises(ValueError):
        augmented_lp(m, 0, theta=np.ones(3))


@pytest.mark.parametrize("seed", [8, 9, 10, 11])
def test_ordering_and_duality_random(seed):
    m = random_model(seed)
    stat = stationary_lp(m)
    k_star = stat.optimal_value
    assert membership_residuals(m, stat.gamma, "W") <= 1e-8
    for y0 in range(m.n_states):
        res = augmented_lp(m, y0)
        assert k_star <= res.optimal_value + 1e-8
        assert res.dual.mu == pytest.approx(res.optimal_value, abs=1e-7)
        v1, v2 = res.dual.violations(m, y0)
        assert max(v1, v2) <= 1e-7
        assert membership_residuals(m, res.gamma, "Omega", y0=y0, xi=res.xi) <= 1e-8
        disc = discounted_stationary_lp(m, 0.1, y0)
        assert membership_residuals(m, disc.gamma, "W_eps", eps=0.1, y0=y0) <= 1e-8


@pytest.mark.parametrize("seed", [797, 870, 1328, 1908])
def test_suite_models_once_refused_by_dense_simplex(seed):
    # the dense simplex failed its certificate on these models' augmented LPs
    # (797, 870, 1328) and called 1908's stationary LP infeasible
    m = random_model(seed)
    stat = stationary_lp(m)
    assert max(stat.dual.violations(m, 0)) <= 1e-7
    for y0 in range(m.n_states):
        res = augmented_lp(m, y0)
        assert abs(res.optimal_value - res.dual.mu) <= 1e-9
        assert max(res.dual.violations(m, y0)) <= 1e-7
    h, _ = discounted_values(m, 1e-4)
    for y0 in range(m.n_states):
        assert discounted_stationary_lp(m, 1e-4, y0).optimal_value == \
            pytest.approx(h.values[y0], abs=1e-9)


def test_augmented_solve_is_bitwise_deterministic():
    m = example2_model(5)
    for y0 in (m.nearest_state(-0.5), m.nearest_state(0.5)):
        a, b = augmented_lp(m, y0), augmented_lp(m, y0)
        for x, y in ((a.gamma.weights, b.gamma.weights), (a.xi.weights, b.xi.weights),
                     (a.dual.mu, b.dual.mu), (a.dual.psi, b.dual.psi),
                     (a.dual.eta, b.dual.eta)):
            assert np.array_equal(x, y)


def test_membership_discounted_occupation():
    m = random_model(31)
    plan = random_stationary_plan(m, 1)
    eps = 0.3
    g = discounted_occupation(m, plan, 0, eps, tail_tol=1e-13)
    assert membership_residuals(m, g, "W_eps", eps=eps, y0=0) <= 1e-9


def test_membership_uniform_on_skewed_kernel():
    # hand defect: marginal (.5,.5); pushed (.45+.25, .05+.25) = (.7,.3)
    rows = np.array([[0.9, 0.1], [0.5, 0.5]])
    m = FiniteModel(states=[StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
                    controls=[[(0.0,)], [(0.0,)]], noise=[], pair_cost=[0.0, 0.0],
                    kernel=rows)
    res = membership_residuals(m, GMeasure(np.array([0.5, 0.5])), "W")
    assert res == pytest.approx(0.2, abs=1e-12)


def test_membership_dimension_mismatch():
    m = example1_model(0.5)
    with pytest.raises(ValueError, match="weights"):
        membership_residuals(m, GMeasure(np.ones(3)), "W")
    with pytest.raises(ValueError, match="kind"):
        membership_residuals(m, GMeasure(np.ones(m.n_pairs)), "X")


@pytest.mark.parametrize("seed", [2, 6, 17])
def test_support_function_convergence_of_discounted_sets(seed):
    # the union over initial states of the discounted-stationary sets
    # converges to the stationary set; checked through support functions
    # given by random cost tables rather than by enumerating extreme measures
    base = random_model(seed)
    rng = np.random.default_rng(seed + 500)
    for _ in range(3):
        m = with_cost(base, rng.uniform(-1, 1, size=base.n_pairs))
        k_star = stationary_lp(m).optimal_value
        dev = {}
        for eps in (1e-2, 1e-4):
            best = min(discounted_stationary_lp(m, eps, y0).optimal_value
                       for y0 in range(m.n_states))
            dev[eps] = abs(best - k_star)
        assert dev[1e-4] <= 5e-3
        assert dev[1e-4] <= dev[1e-2] + 1e-9
        # the finite-horizon side of the same support-function check
        from occulimits.dp import finite_horizon_values
        curve, _ = finite_horizon_values(m, 5000)
        assert abs(float(np.min(curve[-1].values)) - k_star) <= 5e-3


def test_concurrent_solves_match_sequential():
    from concurrent.futures import ThreadPoolExecutor
    m = random_model(37)
    sequential = [augmented_lp(m, y0).optimal_value for y0 in range(m.n_states)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda y0: augmented_lp(m, y0).optimal_value,
                                 range(m.n_states)))
    assert threaded == sequential


def test_program_result_json():
    m = example1_model(0.5)
    doc = augmented_lp(m, m.initial_index).to_json_dict(m)
    assert doc["status"] == "optimal"
    assert {"state", "control", "weight"} <= set(doc["gamma"][0])
    assert set(doc["dual"]) == {"mu", "psi", "eta"}
    assert len(doc["dual"]["psi"]) == m.n_states
