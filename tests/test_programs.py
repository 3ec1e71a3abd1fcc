import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from scipy import sparse

from occulimits import dp, lp_core, measures, programs
from occulimits.analysis import bounds_report
from occulimits.dp import discounted_values
from occulimits.measures import discounted_occupation
from occulimits.model import (FiniteModel, example1_model, example1_family_model,
                              example2_model, transition)
from occulimits.programs import (GMeasure, SolverError, augmented_lp,
                                 discounted_stationary_lp,
                                 membership_residuals, stationary_lp)
from occulimits.suite import random_model, random_stationary_plan

from _oracles import (law_matrix, membership_oracle, no_policy_iteration, rebuilt,
                      stationary_average_oracle, with_cost)


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
    target[1] = 0.75  # (-0.5, +1), pair 1
    target[2] = 0.25  # (0.5, -1), pair 2
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
        p, = np.flatnonzero((m.pair_state == state) & (m.pair_control[:, 0] == u))
        assert w[p] == pytest.approx(0.5, abs=1e-8)
        covered += w[p]
    assert covered == pytest.approx(res.gamma.total_mass, abs=1e-8)


def test_augmented_example2_positive_start():
    m = example2_model(8)
    i = m.nearest_state(0.5)
    res = augmented_lp(m, i)
    assert abs(res.optimal_value) <= 0.02
    support = res.gamma.support(tol=1e-9)
    states = set(m.states[m.pair_state[support], 0].tolist())
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
    for y0 in range(m.n_states):
        a, b = augmented_lp(m, y0), augmented_lp(m, y0)
        assert a.method == "constructed"
        for x, y in ((a.gamma.weights, b.gamma.weights), (a.xi.weights, b.xi.weights),
                     (a.dual.mu, b.dual.mu), (a.dual.psi, b.dual.psi),
                     (a.dual.eta, b.dual.eta)):
            assert np.array_equal(x, y)
    a, b = stationary_lp(m), stationary_lp(m)
    assert np.array_equal(a.gamma.weights, b.gamma.weights)
    assert a.dual.mu == b.dual.mu and np.array_equal(a.dual.eta, b.dual.eta)


def test_membership_discounted_occupation():
    m = random_model(31)
    plan = random_stationary_plan(m, 1)
    eps = 0.3
    g = discounted_occupation(m, plan, 0, eps, tail_tol=1e-13)
    assert membership_residuals(m, g, "W_eps", eps=eps, y0=0) <= 1e-9


def test_membership_uniform_on_skewed_kernel():
    # hand defect: marginal (.5,.5); pushed (.45+.25, .05+.25) = (.7,.3)
    rows = np.array([[0.9, 0.1], [0.5, 0.5]])
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0], noise=[],
                    pair_cost=[0.0, 0.0], kernel=rows)
    res = membership_residuals(m, GMeasure(np.array([0.5, 0.5])), "W")
    assert res == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("eps", [1.5, 0.0, -0.2])
def test_membership_refuses_a_bad_eps(eps):
    # these eps used to give residuals 1.4, 0.1 and 0.3 instead of an error
    m = example2_model(3)
    g = discounted_occupation(m, random_stationary_plan(m, 0), 2, 0.1, tail_tol=1e-13)
    assert membership_residuals(m, g, "W_eps", eps=0.1, y0=2) <= 1e-9
    with pytest.raises(ValueError, match="outside"):
        membership_residuals(m, g, "W_eps", eps=eps, y0=2)


def test_membership_dimension_mismatch():
    m = example1_model(0.5)
    with pytest.raises(ValueError, match=r"^measure has shape \(3,\), expected \(4,\)$"):
        membership_residuals(m, GMeasure(np.ones(3)), "W")
    with pytest.raises(ValueError, match="kind"):
        membership_residuals(m, GMeasure(np.ones(m.n_pairs)), "X")


@pytest.mark.parametrize("kind, unread", [("W", "eps"), ("W", "y0"), ("W", "xi"),
                                          ("W_eps", "xi"), ("Omega", "eps")])
def test_membership_refuses_an_argument_its_kind_does_not_read(kind, unread):
    # W with eps=0.1, y0=0 read the decay 0.9 and returned 0.09999999999999987
    # on this discounted occupation, and W_eps passed an all-NaN xi silently
    m = random_model(3)
    _, plan = discounted_values(m, 0.1)
    gamma = discounted_occupation(m, plan, 0, 0.1, tail_tol=1e-13)
    args = {"eps": 0.1, "y0": 0, "xi": np.full(m.n_pairs, np.nan)}
    reads = {"W": (), "W_eps": ("eps", "y0"), "Omega": ("xi", "y0")}[kind]
    with pytest.raises(ValueError, match=f"does not read {unread}"):
        membership_residuals(m, gamma, kind, **{name: args[name] for name in (*reads, unread)})


def test_membership_of_a_nan_xi_is_nan():
    # the Omega residual took a Python max over its blocks, which skipped a
    # NaN block after the first, so a NaN xi read as a member (6.7e-16)
    m = random_model(3)
    res = augmented_lp(m, 0)
    xi = res.xi.weights.copy()
    xi[0] = np.nan
    assert np.isnan(membership_residuals(m, res.gamma, "Omega", y0=0, xi=xi))


def _membership_cases(m, rng):
    """(gamma, kind, eps, y0, xi) for every set: the LP answers and
    discounted occupations, which are members, and random weights, whose
    residuals are far from 0."""
    yield stationary_lp(m).gamma, "W", None, None, None
    for eps in (0.5, 0.1, 0.01):
        _, plan = discounted_values(m, eps)
        for y0 in range(m.n_states):
            g = discounted_occupation(m, plan, y0, eps, tail_tol=1e-13)
            yield g, "W_eps", eps, y0, None
            yield rng.random(m.n_pairs), "W_eps", eps, y0, None
    for y0 in range(m.n_states):
        res = augmented_lp(m, y0)
        yield res.gamma, "W", None, None, None
        yield res.gamma, "Omega", None, y0, res.xi
        yield rng.random(m.n_pairs), "W", None, None, None
        yield rng.random(m.n_pairs), "Omega", None, y0, rng.random(m.n_pairs)


def test_membership_is_the_hand_written_balance_residual():
    # |A x - b| on the LP's own (A, b) against the balance equations
    # written out by hand: the same sums in the same order, bit for bit
    rng = np.random.default_rng(18)
    models = [random_model(seed) for seed in range(50)]
    models += [example1_model(0.5), example2_model(4), example2_model(5)]
    count = 0
    for m in models:
        for gamma, kind, eps, y0, xi in _membership_cases(m, rng):
            got = membership_residuals(m, gamma, kind, eps=eps, y0=y0, xi=xi)
            want = membership_oracle(m, gamma, kind, eps=eps, y0=y0, xi=xi)
            assert got == want or (np.isnan(got) and np.isnan(want)), (kind, eps, y0)
            count += 1
    assert count == 3703


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
    assert doc["method"] == "constructed"
    assert {"state", "control", "weight"} <= set(doc["gamma"][0])
    assert set(doc["dual"]) == {"mu", "psi", "eta"}
    assert len(doc["dual"]["psi"]) == m.n_states


def _example_cases():
    """(name, model, initial states): suite seeds 0-49 and example 1 at
    every state, example 2 at every state for m = 4 and 5 and at criterion
    2's six points for m = 8 and for m = 10 with control step 2^-7."""
    for seed in range(50):
        m = random_model(seed)
        yield f"suite {seed}", m, range(m.n_states)
    for y0 in (0.25, 0.5, 1.0):
        m = example1_model(y0)
        yield f"example1 {y0}", m, range(m.n_states)
    for m_exp in (4, 5):
        m = example2_model(m_exp)
        yield f"example2 m={m_exp}", m, range(m.n_states)
    for m_exp, step in ((8, None), (10, 2.0 ** -7)):
        m = example2_model(m_exp, step)
        yield f"example2 m={m_exp}", m, [m.nearest_state(y) for y in
                                         (-1.0, -0.5, -2.0 ** -8, 2.0 ** -8, 0.5, 1.0)]


def test_no_measure_lp_falls_back_to_highs():
    fallbacks = []
    for name, m, y0s in _example_cases():
        results = [stationary_lp(m)] + [augmented_lp(m, y0) for y0 in y0s]
        fallbacks += [name for r in results if r.method != "constructed"]
    assert fallbacks == []


def test_constructed_values_match_highs(monkeypatch):
    # the HiGHS references: augmented_lp with a zero theta, and
    # stationary_lp with policy iteration switched off on a rebuilt model
    worst = 0.0
    for name, m, y0s in _example_cases():
        if m.n_states > 65:
            continue
        for y0 in y0s:
            got = augmented_lp(m, y0)
            ref = augmented_lp(m, y0, theta=np.zeros(m.n_pairs))
            assert (got.method, ref.method) == ("constructed", "highs")
            worst = max(worst, abs(got.optimal_value - ref.optimal_value),
                        abs(got.dual.mu - ref.dual.mu))
        got = stationary_lp(m)
        with monkeypatch.context() as patch:
            patch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
            ref = stationary_lp(rebuilt(m))
        assert (got.method, ref.method) == ("constructed", "highs")
        worst = max(worst, abs(got.optimal_value - ref.optimal_value),
                    abs(got.dual.mu - ref.dual.mu))
    assert worst <= 1e-8


def test_bounds_on_every_example2_m5_state():
    m = example2_model(5)
    for y0 in range(m.n_states):
        report = bounds_report(m, y0, [1, 16, 128], [0.5, 0.1])
        k_star = 2.0 ** -5 if m.states[y0, 0] > 0 else -0.625
        assert report.sandwich_ok and report.strong_duality, y0
        assert report.k_star_y0 == k_star and report.k_star == -0.625, y0


_POLICY_ITERATION = dp.average_cost_policy_iteration


def _counted_policy_iteration(monkeypatch, solve):
    """Patch dp.average_cost_policy_iteration with solve; returns the list
    that gets one entry per call."""
    calls = []

    def counted(model):
        calls.append(1)
        return solve(model)

    monkeypatch.setattr(dp, "average_cost_policy_iteration", counted)
    return calls


def _nan_bias(model):
    return dataclasses.replace(_POLICY_ITERATION(model), bias=np.full(model.n_states, np.nan))


def _gain_one_too_high(model):
    sol = _POLICY_ITERATION(model)
    return dataclasses.replace(sol, gain=sol.gain + 1.0)


def test_non_finite_policy_iteration_falls_back(monkeypatch):
    m = random_model(8)
    want = augmented_lp(m, 0)
    _counted_policy_iteration(monkeypatch, _nan_bias)
    fresh = rebuilt(m)  # m keeps its first solve
    got = augmented_lp(fresh, 0)
    assert got.method == "highs"
    assert got.optimal_value == pytest.approx(want.optimal_value, abs=1e-9)
    assert stationary_lp(fresh).method == "highs"


def test_a_shared_solution_gives_the_same_results(monkeypatch):
    # a second call on a model reads its kept solve, a rebuilt model solves
    # afresh, and all give the same bits
    calls = _counted_policy_iteration(monkeypatch, _POLICY_ITERATION)
    m = random_model(5)
    for first, kept, fresh in ((stationary_lp(m), stationary_lp(m), stationary_lp(rebuilt(m))),
                               (augmented_lp(m, 1), augmented_lp(m, 1),
                                augmented_lp(rebuilt(m), 1))):
        for other in (kept, fresh):
            assert other.method == first.method == "constructed"
            assert other.optimal_value == first.optimal_value
            assert np.array_equal(other.gamma.weights, first.gamma.weights)
            assert np.array_equal(other.dual.eta, first.dual.eta)
    assert len(calls) == 3


def test_a_spoiled_solution_falls_back_to_highs(monkeypatch):
    # a NaN bias fails the finiteness check, a finite gain one too high the
    # duality gap of the certificate
    m = random_model(8)
    want = augmented_lp(m, 0)
    for spoil in (_nan_bias, _gain_one_too_high):
        calls = _counted_policy_iteration(monkeypatch, spoil)
        fresh = rebuilt(m)
        got = augmented_lp(fresh, 0)
        assert (want.method, got.method) == ("constructed", "highs"), spoil
        assert got.optimal_value == pytest.approx(want.optimal_value, abs=1e-9)
        assert stationary_lp(fresh).method == "highs"
        assert len(calls) == 1


def test_policy_iteration_runs_once_per_model(monkeypatch):
    calls = _counted_policy_iteration(monkeypatch, _POLICY_ITERATION)
    m = random_model(8)
    results = [stationary_lp(m)] + [augmented_lp(m, y0) for y0 in range(m.n_states)]
    assert [r.method for r in results] == ["constructed"] * len(results)
    assert len(calls) == 1
    augmented_lp(m, 0, theta=np.zeros(m.n_pairs))
    bounds_report(m, 0, [1, 10], [0.5])
    assert len(calls) == 1


def test_a_failing_policy_iteration_runs_once(monkeypatch):
    calls = _counted_policy_iteration(monkeypatch, no_policy_iteration)
    m = random_model(5)
    results = [stationary_lp(m)] + [augmented_lp(m, y0) for y0 in range(m.n_states)]
    assert [r.method for r in results] == ["highs"] * len(results)
    assert len(calls) == 1


def test_the_kept_solution_does_not_keep_its_model_alive():
    m = random_model(5)
    stationary_lp(m)
    sol = programs.average_cost_solution(m)
    model_ref, sol_ref = weakref.ref(m), weakref.ref(sol)
    del m, sol
    gc.collect()
    assert model_ref() is None and sol_ref() is None


def test_the_kept_solution_is_read_only():
    m = random_model(5)
    sol = programs.average_cost_solution(m)
    assert programs.average_cost_solution(m) is sol
    chain = sol.chain
    for name, a in (("gain", sol.gain), ("bias", sol.bias), ("selector", sol.plan.selector),
                    ("label", chain.label), ("rec", chain.rec), ("tra", chain.tra)):
        assert not a.flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        sol.gain[0] = 0.0
    # the constructions read it without writing
    assert stationary_lp(m).method == augmented_lp(m, 0).method == "constructed"


def _block_matrix(model, kind, decay=1.0):
    """The measure LP matrices as scipy.sparse block arithmetic builds them."""
    n_pairs = model.n_pairs
    E = sparse.csc_matrix((np.ones(n_pairs), model.pair_state, np.arange(n_pairs + 1)),
                          shape=(model.n_states, n_pairs))
    B = E - decay * law_matrix(model).T
    ones = np.ones((1, n_pairs))
    return {"W_eps": B,
            "W": sparse.vstack([B, ones]),
            "Omega": sparse.bmat([[B, None], [ones, None], [E, B]])}[kind].tocsc()


# each measure set with its eps: W, Omega, and W_eps at two discounts
SETS = (("W", None), ("Omega", None), ("W_eps", 0.1), ("W_eps", 1e-3))


def test_lp_matrices_equal_the_block_construction():
    models = [random_model(seed) for seed in range(50)]
    models += [example1_model(0.5), example1_family_model([0.25, 0.5, 1.0])]
    models += [example2_model(m) for m in (3, 5, 7)]
    # a certain self-loop: its balance entry 1 - 1 cancels and is dropped
    models.append(FiniteModel(states=[0.0, 1.0], pair_state=[0, 1, 1],
                              pair_control=[0.0, 0.0, 1.0],
                              noise=[], pair_cost=[1.0, 2.0, 3.0],
                              kernel=[[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    for m in models:
        for kind, eps in SETS:
            op, _ = programs._constraints(m, kind, eps=eps)
            assert op.decay == (1.0 if eps is None else 1.0 - eps)
            got, want = programs._lp_matrix(op), _block_matrix(m, kind, op.decay)
            assert type(got) is type(want) and got.shape == want.shape
            assert got.has_canonical_format
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (kind, part)


def test_lp_operator_products_match_the_assembled_matrix():
    # A x and A'y of the matrix-free operator against _lp_matrix's.  The
    # matrix merges E - P^T into entries like 1 - P(y|y,u), whose products
    # cancel, so the bound is stated against the unmerged magnitude
    # (E + decay P^T)|x|: each side adds at most `terms` products of the
    # row, each sum within terms * eps of that magnitude
    models = [random_model(seed) for seed in range(50)]
    models += [example1_model(0.5)] + [example2_model(m) for m in (3, 4, 5, 6, 7)]
    # a certain self-loop: its balance entry 1 - 1 cancels in the matrix
    models.append(FiniteModel(states=[0.0, 1.0], pair_state=[0, 1, 1],
                              pair_control=[0.0, 0.0, 1.0],
                              noise=[], pair_cost=[1.0, 2.0, 3.0],
                              kernel=[[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    rng = np.random.default_rng(17)
    for m in models:
        for kind, eps in SETS:
            op, b = programs._constraints(m, kind, eps=eps)
            A = programs._lp_matrix(op)
            assert op.shape == A.shape and b.shape == (A.shape[0],)
            unmerged = _block_matrix(m, kind, -op.decay)
            x, y = rng.standard_normal(A.shape[1]), rng.standard_normal(A.shape[0])
            for got, want, mag, terms in (
                    (op @ x, A @ x, unmerged @ np.abs(x), 2 * np.diff(unmerged.tocsr().indptr)),
                    (op.T @ y, A.T @ y, unmerged.T @ np.abs(y), 2 * np.diff(unmerged.indptr))):
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 2 * terms * np.finfo(float).eps * mag), \
                    (kind, m.n_states)


def test_constructed_lps_assemble_no_matrix(monkeypatch):
    # the constructed pairs are certified on the operator; the matrix is
    # assembled only for HiGHS
    def refused(*args, **kwargs):
        raise AssertionError("_lp_matrix called on a constructed LP")

    monkeypatch.setattr(programs, "_lp_matrix", refused)
    for seed in range(50):
        m = random_model(seed)
        assert stationary_lp(m).method == "constructed"
        for y0 in range(m.n_states):
            assert augmented_lp(m, y0).method == "constructed", (seed, y0)


def test_a_forced_fallback_assembles_solves_and_certifies(monkeypatch):
    assembled, solved, checked = [], [], []
    lp_matrix, linprog, check = programs._lp_matrix, programs.linprog, lp_core.check_certificate

    def counted_matrix(op):
        assembled.append(op.kind)
        return lp_matrix(op)

    def counted_linprog(*args, **kwargs):
        solved.append(sparse.issparse(kwargs["A_eq"]))
        return linprog(*args, **kwargs)

    def counted_check(lp, sol):
        checked.append(type(lp.A))
        return check(lp, sol)

    monkeypatch.setattr(programs, "_lp_matrix", counted_matrix)
    monkeypatch.setattr(programs, "linprog", counted_linprog)
    monkeypatch.setattr(lp_core, "check_certificate", counted_check)
    m = random_model(3)
    res = augmented_lp(m, 0, theta=np.zeros(m.n_pairs))
    assert res.method == "highs" and res.dual is not None
    assert discounted_stationary_lp(m, 0.1, 0).method == "highs"
    assert assembled == ["Omega", "W_eps"] and solved == [True, True]
    assert checked == [programs._MeasureOperator] * 2


@pytest.mark.parametrize("theta", [lambda n: -5.0, lambda n: np.zeros(n - 1),
                                   lambda n: np.full(n, -1.0),
                                   lambda n: np.append(np.zeros(n - 1), np.nan),
                                   lambda n: np.append(np.zeros(n - 1), np.inf)],
                         ids=["scalar", "short", "negative", "nan", "inf"])
def test_the_certificate_refuses_the_theta_augmented_lp_refuses(theta):
    m = random_model(3)
    res = augmented_lp(m, 0)
    bad = theta(m.n_pairs)
    with pytest.raises(ValueError) as refused:
        augmented_lp(m, 0, bad)
    for check in (res.dual.slacks, res.dual.violations):
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            check(m, 0, bad)


@pytest.mark.parametrize("theta", [lambda n: np.zeros(n, dtype=bool),
                                   lambda n: np.zeros(n).astype(str), lambda n: [None] * n],
                         ids=["bools", "strings", "none"])
def test_a_bool_or_non_numeric_theta_is_refused(theta):
    # bools used to be read as 0 and 1 and strings parsed as numbers, and
    # HiGHS solved either; a None was read as NaN and refused as unbounded
    m = random_model(3)
    res = augmented_lp(m, 0)
    bad = theta(m.n_pairs)
    refusal = r"^theta of dtype \S+ is not numeric$"
    with pytest.raises(ValueError, match=refusal):
        augmented_lp(m, 0, bad)
    for check in (res.dual.slacks, res.dual.violations):
        with pytest.raises(ValueError, match=refusal):
            check(m, 0, bad)


@pytest.mark.parametrize("weights", [lambda n: ["1"] * n, lambda n: np.ones(n, dtype=bool),
                                     lambda n: GMeasure(np.full(n, "0.5"))],
                         ids=["strings", "bools", "measure_of_strings"])
@pytest.mark.parametrize("argument", ["gamma", "xi"])
def test_membership_refuses_bool_and_non_numeric_weights(weights, argument):
    # ["1"] * n used to be parsed as weights (88.0 on example 2 at m=3, as
    # gamma of W) and bools read as 0 and 1
    m = example2_model(3)
    res = augmented_lp(m, 0)
    given = {"gamma": res.gamma, "xi": res.xi}
    assert membership_residuals(m, given["gamma"], "Omega", y0=0, xi=given["xi"]) <= 1e-8
    given[argument] = weights(m.n_pairs)
    name = "measure" if argument == "gamma" else "xi"
    with pytest.raises(ValueError, match=rf"^{name} of dtype \S+ is not numeric$"):
        membership_residuals(m, given["gamma"], "Omega", y0=0, xi=given["xi"])
    if argument == "gamma":
        with pytest.raises(ValueError, match=r"^measure of dtype \S+ is not numeric$"):
            membership_residuals(m, given["gamma"], "W")


def test_a_check_that_only_reads_an_array_does_not_copy_it(monkeypatch):
    # numeric_array used to copy every argument it checked; GMeasure.integrate,
    # membership_residuals and DualCertificate.slacks only read theirs, so a
    # float64 argument of the right shape is checked as it is, while the
    # LinearProgram a caller builds still keeps copies of c, A and b
    m = example2_model(4)
    res = augmented_lp(m, 0)
    read = []

    def spy(name, value, *args):
        array = numeric_array(name, value, *args)
        if isinstance(value, np.ndarray):
            read.append((name, np.shares_memory(array, value)))
        return array

    numeric_array = programs.numeric_array
    for module in (measures, programs):
        monkeypatch.setattr(module, "numeric_array", spy)
    theta = np.ones(m.n_pairs)
    res.gamma.integrate(m.pair_cost)
    membership_residuals(m, res.gamma.weights, "Omega", y0=0, xi=res.xi)
    res.dual.slacks(m, 0, theta)
    assert read == [("table", True), ("measure", True), ("xi", True), ("psi", True),
                    ("eta", True), ("theta", True)]
    c, A, b = np.ones(2), np.ones((1, 2)), np.ones(1)
    lp = lp_core.LinearProgram(c, A, b)
    assert not any(np.shares_memory(x, y) for x, y in ((lp.c, c), (lp.A, A), (lp.b, b)))


def test_cost_at_highs_infinity_is_refused_by_name():
    # HiGHS reads |c| >= 1e20 as infinite and used to stop with "HiGHS
    # Status 15: Unknown"; this model's construction misses its certificate
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0],
                    noise=[0.25, 0.75], pair_cost=[1e20, -1e20], next_idx=[[0, 1], [1, 0]])
    with pytest.raises(SolverError, match=r"stationary LP: a cost of magnitude 1e\+20 is "
                                          r"at or above HiGHS's infinite_cost \(1e\+20\)"):
        stationary_lp(m)


def test_program_result_method_is_read_only():
    m = example1_model(0.5)
    res = augmented_lp(m, m.initial_index)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.method = "highs"
    assert discounted_stationary_lp(m, 0.1, 0).to_json_dict(m)["method"] == "highs"


def test_a_failing_dual_check_raises_without_highs(monkeypatch):
    # the constructed pair passes the LP certificate, so only the dual check
    # fails; HiGHS would read its certificate off the same reduced costs
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    def violated(self, model, y0, theta=None):
        return np.full(model.n_pairs, -1.0), np.zeros(model.n_pairs)

    m = random_model(8)
    monkeypatch.setattr(programs, "linprog", counted)
    monkeypatch.setattr(programs.DualCertificate, "slacks", violated)
    with pytest.raises(SolverError, match=r"stationary LP: dual certificate violated"):
        stationary_lp(m)
    with pytest.raises(SolverError, match=r"augmented LP \(y0=0\): dual certificate violated"):
        augmented_lp(m, 0)
    assert calls == []
