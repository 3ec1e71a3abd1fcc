import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from occulimits.dp import Plan, evaluate_plan_average, finite_horizon_values
from occulimits.measures import (canonical_test_family, check_horizon, discounted_occupation,
                                 hausdorff, occupation_measure, pair_laws,
                                 prg_detect, propagate, rho)
from occulimits.model import FiniteModel, example1_model, example2_model, transition
from occulimits.programs import GMeasure, membership_residuals
from occulimits.suite import random_model, random_stationary_plan

from _oracles import law_matrix, pair_by_pair_law, plan_law, truncated_discounted_occupation


def example1_optimal_plan(m):
    # +1 on the negative state (pair 1), -1 on the positive state (pair 2)
    return Plan(kind="stationary_deterministic", selector=np.array([1, 2]))


def test_example1_law_stationary_from_t1():
    m = example1_model(0.5)
    path = propagate(m, example1_optimal_plan(m), m.initial_index, 30)
    for t in range(1, 31):
        assert np.allclose(path[t], [0.75, 0.25], atol=1e-14)


def test_deterministic_permutation_point_mass_path():
    # 3-cycle under a single atom: point mass stays a point mass
    m = FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 1, 2], pair_control=[0.0] * 3,
                    noise=[1.0], pair_cost=[0.0] * 3, next_idx=[[1], [2], [0]])
    plan = Plan(kind="stationary_deterministic", selector=np.arange(3))
    path = propagate(m, plan, 0, 6)
    for t in range(7):
        assert np.allclose(path[t], np.roll([1.0, 0.0, 0.0], t % 3))


def test_two_state_two_step_hand_law():
    # single control per state, P(.|0) = (0.3, 0.7), P(.|1) = (0.6, 0.4)
    # mu_1 = (0.3, 0.7); mu_2 = (0.3*0.3 + 0.7*0.6, 0.3*0.7 + 0.7*0.4) = (0.51, 0.49)
    rows = np.array([[0.3, 0.7], [0.6, 0.4]])
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0], noise=[],
                    pair_cost=[0.0, 0.0], kernel=rows)
    plan = Plan(kind="stationary_deterministic", selector=np.arange(2))
    path = propagate(m, plan, 0, 2)
    assert np.allclose(path[1], [0.3, 0.7], atol=1e-15)
    assert np.allclose(path[2], [0.51, 0.49], atol=1e-15)


def _summation_bound(n_terms):
    """gamma_n = n u / (1 - n u) with u = 2^-53: an inner product of n terms,
    summed in any order, is within gamma_n sum |term| of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    nu = n_terms * 2.0 ** -53
    return nu / (1.0 - nu)


@pytest.mark.parametrize("seed", range(6))
def test_pair_laws_match_the_reference_recursion(seed):
    m = random_model(seed)
    _, plan = finite_horizon_values(m, 10)  # ten stages: enough for mu_0..mu_10
    laws = list(pair_laws(m, plan, 0, 10))
    assert len(laws) == 10
    dense = pair_by_pair_law(m).toarray()
    mu = np.zeros(m.n_states)
    mu[0] = 1.0
    for t, (mu_t, law) in enumerate(laws):
        assert np.array_equal(mu_t, mu)
        assert np.array_equal(law, mu[m.pair_state] * plan.pair_weights(m, t))
        mu = transition(m).push(law)
        # push (law summed per distinct row, then multiplied) and the dense
        # product sum the n_pairs terms law(p) P(y'|p) in different orders;
        # each is within gamma_(n_pairs+1) sum law of the exact sum (law >= 0
        # and P <= 1), so they differ by at most twice that
        gap = np.abs(mu - dense.T @ law)
        assert np.all(gap <= 2.0 * _summation_bound(m.n_pairs + 1) * law.sum())
    path = propagate(m, plan, 0, 10)
    assert np.array_equal(path, np.vstack([mu_t for mu_t, _ in laws] + [mu]))


def test_pair_laws_check_the_plan_before_any_law():
    m = example1_model(0.5)
    laws = pair_laws(m, Plan(kind="stationary_deterministic", selector=np.array([2, 0])), 0, 0)
    with pytest.raises(ValueError, match="bad deterministic selector"):
        next(laws)


@pytest.mark.parametrize("kind", ["stationary_deterministic", "staged"])
@pytest.mark.parametrize("selector", [[0.5, 2], [1.0, 2.0], [True, False]],
                         ids=["fractional", "integral_floats", "booleans"])
def test_plan_refuses_non_integer_selector(kind, selector):
    # a float selector used to pass the check and fail in pair_weights as a
    # bare IndexError; booleans were read as the indices 1 and 0.  [1.0, 2.0]
    # would be the pairs of example1_optimal_plan as integers
    m = example1_model(0.5)
    sel = np.array(selector)
    plan = Plan(kind=kind, selector=sel if kind != "staged" else [sel] * 5)
    with pytest.raises(ValueError, match="plan/model mismatch"):
        plan.check_against(m)
    with pytest.raises(ValueError, match="plan/model mismatch"):
        evaluate_plan_average(m, plan, m.initial_index, 5)


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
    assert plan.selector[m.initial_index] == 2  # (0.5, -1)
    assert gamma.weights[2] == 1.0
    assert gamma.total_mass == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kind", ["deterministic", "randomized", "staged"])
def test_pair_laws_read_a_stationary_plan_once(kind, monkeypatch):
    # a stationary plan has the same pair weights at every stage, so they
    # are read once per law path; a staged plan's are read at each stage
    m = example2_model(4)
    if kind == "staged":
        plan = finite_horizon_values(m, 50)[1]
    else:
        plan = random_stationary_plan(m, 0, randomized=kind == "randomized")
    stages, read = [], Plan.pair_weights
    monkeypatch.setattr(Plan, "pair_weights",
                        lambda self, model, t=0: stages.append(t) or read(self, model, t))
    occupation_measure(m, plan, 0, 50)
    assert stages == (list(range(50)) if kind == "staged" else [0])


@pytest.mark.parametrize("T", [0, -1])
def test_plan_evaluators_refuse_a_horizon_below_1(T):
    # T=0 used to give NaN weights and a bare ZeroDivisionError
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    with pytest.raises(ValueError, match=f"T={T} must be >= 1"):
        occupation_measure(m, plan, m.initial_index, T)
    with pytest.raises(ValueError, match=f"T={T} must be >= 1"):
        evaluate_plan_average(m, plan, m.initial_index, T)


@pytest.mark.parametrize("T", [float("nan"), 2.5, 3.0, True])
def test_a_horizon_that_is_not_an_integer_is_refused(T):
    # nan used to pass the check, 2.5 to fail later with a TypeError from range
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    with pytest.raises(ValueError, match=rf"T={T!r} is not an integer horizon"):
        check_horizon(T)
    with pytest.raises(ValueError, match=rf"T={T!r} is not an integer horizon"):
        occupation_measure(m, plan, m.initial_index, T)


def test_propagate_refuses_a_negative_horizon():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    assert propagate(m, plan, m.initial_index, 0).shape == (1, m.n_states)
    with pytest.raises(ValueError, match="T=-1 must be >= 0"):
        propagate(m, plan, m.initial_index, -1)


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
        direct = sum(float((path[t][m.pair_state] * plan.pair_weights(m)) @ q)
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
    assert np.max(np.abs(defect - (path[0] - path[T]) / T)) <= 1e-12
    assert membership_residuals(m, gamma, "W") <= 2 * m.cost_bound / T + 1e-12


def test_example1_discounted_occupation_value():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    g = discounted_occupation(m, plan, m.initial_index, 0.1, tail_tol=1e-13)
    assert g.integrate(m.pair_cost) == pytest.approx(-0.175, abs=1e-11)
    assert g.total_mass == pytest.approx(1.0, abs=1e-15)


def test_absorbing_state_discounted_point_mass():
    m = FiniteModel(states=[0.0], pair_state=[0], pair_control=[0.0], noise=[1.0], pair_cost=[0.5],
                    next_idx=[[0]])
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


def _law_model(name):
    if name == "example1":
        return example1_model(0.5)
    if name == "example2":
        return example2_model(4)
    if name == "kernel":
        m = random_model(5)
        return FiniteModel(m.states, m.pair_state, m.pair_control, [], m.pair_cost,
                           kernel=law_matrix(m).toarray())
    return random_model(int(name))


def _canonical(law):
    law = law.copy()
    law.sort_indices()
    return law.indptr, law.indices, law.data


@pytest.mark.parametrize("name", [*map(str, range(50)), "example1", "example2", "kernel"])
def test_plan_law_by_row_selection_matches_the_product(name):
    # the sparse product leaves column indices unsorted, so both sides are
    # compared with sorted indices; indptr, indices and data must be equal
    # a randomized plan's law is the product on the law's distinct rows
    m = _law_model(name)
    P, tensor = law_matrix(m), transition(m)
    for seed, randomized in ((0, False), (1, True), (2, True)):
        plan = random_stationary_plan(m, seed, randomized)
        w = plan.pair_weights(m)
        if randomized:
            law = sparse.csr_matrix((w, tensor.pair_row, m.state_pair_start),
                                    shape=(m.n_states, tensor.rows.shape[0])) @ tensor.rows
        else:
            law = P[plan.selector]
        for got, want in zip(_canonical(law), _canonical(plan_law(m, w))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the discounted occupation equals the solve on the product, bit for bit
        rhs = np.zeros(m.n_states)
        rhs[0] = 0.3
        nu = spsolve((sparse.identity(m.n_states, format="csr")
                      - 0.7 * plan_law(m, w)).T, rhs)
        ref = nu[m.pair_state] * w
        got = discounted_occupation(m, plan, 0, 0.3, tail_tol=1e-12).weights
        assert np.array_equal(got, ref / ref.sum())


@pytest.mark.parametrize("kwargs, problem", [
    ({"max_size": 0}, "max_size=0 must be >= 1"), ({"max_size": -1}, "max_size=-1 must be >= 1"),
    ({"max_size": 2.5}, "max_size=2.5 is not an integer"),
    ({"max_size": True}, "max_size=True is not an integer"),
    ({"max_degree": -1}, "max_degree=-1 must be >= 0"),
    ({"max_degree": 1.5}, "max_degree=1.5 is not an integer")],
    ids=["size0", "size-1", "size2.5", "size_bool", "degree-1", "degree1.5"])
def test_canonical_test_family_refuses_unusable_sizes(kwargs, problem):
    # max_size 0 or -1 used to return every table, and max_degree=-1 an
    # empty family, which rho then refused
    with pytest.raises(ValueError, match=problem):
        canonical_test_family(example2_model(2), **kwargs)


@pytest.mark.parametrize("case", ["strings", "bools", "short", "long", "rows"])
def test_rho_and_hausdorff_refuse_unusable_weights(case):
    # string weights used to escape as numpy's UFuncTypeError (a TypeError),
    # a short measure as numpy's broadcast text, and bools to be read as 0
    # and 1; every measure is checked against the family tables' shape
    m = example1_model(0.5)
    fam = canonical_test_family(m)
    n = m.n_pairs
    good = GMeasure(np.full(n, 0.25))
    weights, refusal = {
        "strings": (np.full(n, "0.25"), "of dtype <U4 is not numeric"),
        "bools": (np.ones(n, dtype=bool), "of dtype bool is not numeric"),
        "short": (np.full(n - 1, 0.25), rf"has shape \({n - 1},\), expected \({n},\)"),
        "long": (np.full(n + 1, 0.25), rf"has shape \({n + 1},\), expected \({n},\)"),
        "rows": (np.full((2, n // 2), 0.25), rf"has shape \(2, {n // 2}\), expected \({n},\)"),
    }[case]
    bad = GMeasure(weights)
    for call, name in ((lambda: rho(good, bad, fam), "g2"), (lambda: rho(bad, good, fam), "g1"),
                       (lambda: hausdorff([good], [good, bad], fam), "g2"),
                       (lambda: hausdorff([bad], [good], fam), "g1")):
        with pytest.raises(ValueError, match=f"^{name} {refusal}$"):
            call()
    assert rho(good, good, fam) == 0.0 and hausdorff([good], [good], fam) == 0.0


@pytest.mark.parametrize("case", ["strings", "bools", "short", "rows"])
def test_integrate_refuses_an_unusable_table(case):
    # a bool table used to be read as 0 and 1, and a string table to escape
    # as numpy's UFuncTypeError
    n = 4
    gamma = GMeasure(np.full(n, 0.25))
    table, refusal = {
        "strings": (np.full(n, "0.25"), "of dtype <U4 is not numeric"),
        "bools": (np.ones(n, dtype=bool), "of dtype bool is not numeric"),
        "short": (np.full(n - 1, 0.25), rf"has shape \({n - 1},\), expected \({n},\)"),
        "rows": (np.full((2, n), 0.25), rf"has shape \(2, {n}\), expected \({n},\)"),
    }[case]
    with pytest.raises(ValueError, match=f"^table {refusal}$"):
        gamma.integrate(table)
    assert gamma.integrate([1, 2, 3, 4]) == 2.5


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
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0], noise=[],
                    pair_cost=[0.0, 0.0], kernel=rows)
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
    sel = []
    for i, v in enumerate(m.states[:, 0]):
        us = m.pair_control[m.pair_state == i, 0].tolist()
        sel.append(m.state_pair_start[i] + (us.index(-1.0) if v <= 0 else us.index(v)))
    plan = Plan(kind="stationary_deterministic", selector=np.array(sel))
    rep = prg_detect(m, plan, m.nearest_state(-0.5), t_max=20)
    assert rep.is_prg and rep.T0 == 1 and rep.period == 1


def exact_positive_orbit_model(levels=20):
    # states 0.5 * 4^-j with u = y the only control; the orbit never snaps,
    # it keeps spreading binomially, so no finite period emerges
    values = [0.5 * 0.25 ** j for j in range(levels)]
    return FiniteModel(states=values, pair_state=range(levels), pair_control=values,
                       noise=[0.5, 0.5], pair_cost=values,
                       next_idx=[[i, min(i + 1, levels - 1)] for i in range(levels)])


def test_prg_not_detected_on_exact_positive_orbit():
    m = exact_positive_orbit_model()
    plan = Plan(kind="stationary_deterministic", selector=np.arange(m.n_states))
    rep = prg_detect(m, plan, 0, t_max=30)
    assert not rep.is_prg


def test_prg_staged_plan_cycles():
    # deterministic 3-cycle with a single control: the cycled one-stage plan
    # generates a period-3 law from t=0
    m = FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 1, 2], pair_control=[0.0] * 3,
                    noise=[1.0], pair_cost=[0.0] * 3, next_idx=[[1], [2], [0]])
    plan = Plan(kind="staged", selector=[np.arange(3)])
    rep = prg_detect(m, plan, 0, t_max=12)
    assert rep.is_prg and rep.T0 == 0 and rep.period == 3


def test_prg_two_stage_plan_cycles_example1():
    # stage 0 plays +1 on the negative state and -1 on the positive one, stage
    # 1 the opposite; from +0.5 the pair law alternates from t=1 on
    m = example1_model(0.5)
    plan = Plan(kind="staged", selector=[np.array([1, 2]), np.array([0, 3])])
    rep = prg_detect(m, plan, m.nearest_state(0.5), t_max=20)
    assert rep.is_prg and rep.T0 == 1 and rep.period == 2


def test_prg_input_check():
    m = example1_model(0.5)
    plan = example1_optimal_plan(m)
    with pytest.raises(ValueError):
        prg_detect(m, plan, 0, t_max=1)
    # a float t_max used to fail in range(); tol nan and -1 reported "not detected"
    for t_max in (float("nan"), 10.0):
        with pytest.raises(ValueError, match=rf"t_max={t_max!r} is not an integer"):
            prg_detect(m, plan, 0, t_max=t_max)
    for tol in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError, match=rf"tol={tol!r} must be finite and positive"):
            prg_detect(m, plan, 0, t_max=10, tol=tol)


def test_discounted_occupation_refuses_a_tail_tol_that_is_not_finite():
    m = example1_model(0.5)
    with pytest.raises(ValueError, match=r"tail_tol=nan must be finite and positive"):
        discounted_occupation(m, example1_optimal_plan(m), 0, 0.1, tail_tol=float("nan"))


def test_family_sup_norm_bound():
    m = random_model(15)
    fam = canonical_test_family(m)
    assert 1 <= len(fam) <= 32
    for q in fam:
        assert np.max(np.abs(q)) <= 1.0 + 1e-12
