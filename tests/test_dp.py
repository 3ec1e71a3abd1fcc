import re
import warnings
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from occulimits import dp, measures
from occulimits.dp import (DEFAULT_TOL, ClosedClasses, Plan, StagedSelectors,
                           average_cost_policy_iteration, discounted_values, evaluate_plan_average,
                           evaluate_plan_discounted, finite_horizon_values,
                           greedy_feedback_from_eta)
from occulimits.measures import discounted_occupation, prg_detect
from occulimits.model import (FiniteModel, TransitionTensor, example1_family_model,
                              example1_model, example2_model, transition)
from occulimits.programs import SolverError
from occulimits.suite import random_model, random_stationary_plan

from _oracles import (INTERVAL_VARIANTS, PairPathStageMin, check_rows_one_by_one,
                      eager_finite_horizon_values, group_min_oracle, group_min_start,
                      interval_model, optimal_gain_oracle, run_min_at_oracle,
                      scipy_chain_closed_classes, scipy_chain_eye_minus_law,
                      scipy_row_selection, value_iteration, with_cost)


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


@pytest.mark.parametrize("cost", [1e308, -1e308])
def test_finite_horizon_overflow_is_refused(cost):
    # v_2 = k is finite, but 2 v_2 = k + E[v_1] overflows before it is
    # divided; it used to come back as inf with only a RuntimeWarning
    m = FiniteModel(states=[0.0], pair_state=[0], pair_control=[0.0],
                    noise=[1.0], pair_cost=[cost], next_idx=[[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finite_horizon_values(m, 1)[0][0].values.tolist() == [cost]
        with pytest.raises(SolverError, match="v_2 is not finite"):
            finite_horizon_values(m, 3)


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
    vals = m.states[:, 0]
    eta = vals + np.abs(vals) / 2.0
    plan = greedy_feedback_from_eta(m, eta)
    # +1 on the negative state, -1 on the positive state
    assert m.pair_control[plan.selector].tolist() == [[1.0], [-1.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_feedback_refuses_a_non_finite_eta(bad):
    m = example2_model(3)
    eta = np.zeros(m.n_states)
    eta[1] = bad
    with pytest.raises(ValueError, match="eta must be finite"):
        greedy_feedback_from_eta(m, eta)


def test_a_factorization_error_is_a_policy_evaluation_solver_error(monkeypatch):
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(dp, "splu", singular)
    with pytest.raises(SolverError, match="^policy evaluation: Factor is exactly singular$"):
        dp._factor(sparse.identity(2))
    with pytest.raises(SolverError, match="^policy evaluation: Factor is exactly singular$"):
        average_cost_policy_iteration(example2_model(3))


def test_greedy_feedback_closed_form_eta_example2():
    m = example2_model(8)
    vals = m.states[:, 0]
    eta = np.where(vals <= 0, vals + 5.0 / 8.0, 8.0 / 3.0 * vals)
    plan = greedy_feedback_from_eta(m, eta)
    i = m.nearest_state(-0.5)
    j = m.nearest_state(0.5)
    assert m.pair_control[plan.selector[[i, j]]].tolist() == [[-1.0], [0.5]]
    assert np.array_equal(m.pair_state[plan.selector], np.arange(m.n_states))


def test_greedy_feedback_zero_eta_is_myopic():
    m = random_model(17)
    plan = greedy_feedback_from_eta(m, np.zeros(m.n_states))
    for i in range(m.n_states):
        first = m.state_pair_start[i]
        costs = m.pair_cost[first:m.state_pair_start[i + 1]]
        assert int(plan.selector[i]) == first + int(np.argmin(costs))


@pytest.mark.parametrize("shape", ["column", "row", "scalar", "one_too_many"])
def test_greedy_feedback_refuses_a_badly_shaped_eta(shape):
    # a column eta used to broadcast the pair costs to n_pairs x n_pairs and
    # return a plan whose selector had one row per pair; m=3 keeps that small
    m = example2_model(3)
    n = m.n_states
    eta = {"column": np.zeros((n, 1)), "row": np.zeros((1, n)), "scalar": np.zeros(()),
           "one_too_many": np.zeros(n + 1)}[shape]
    with pytest.raises(ValueError, match=rf"^eta has shape \(.*\), expected \({n},\)$"):
        greedy_feedback_from_eta(m, eta)


@pytest.mark.parametrize("eta", [[True, False], np.array([False, False]), np.array(["0", "1"]),
                                 [None, 0.0]], ids=["bools", "numpy_bools", "strings", "none"])
def test_greedy_feedback_refuses_a_bool_or_non_numeric_eta(eta):
    # bools used to be read as 1 and 0 and strings parsed as numbers, each
    # returning a plan; a None escaped as a bare TypeError
    m = example1_model(0.5)
    with pytest.raises(ValueError, match=r"^eta of dtype .* is not numeric$"):
        greedy_feedback_from_eta(m, eta)
    assert greedy_feedback_from_eta(m, [0, 1]).selector.tolist() == [1, 2]


def test_staged_plan_reproduces_vT():
    m = random_model(21)
    T = 9
    curve, plan = finite_horizon_values(m, T)
    for y0 in range(m.n_states):
        val = evaluate_plan_average(m, plan, y0, T)
        assert val == pytest.approx(curve[-1].values[y0], abs=1e-12)


# the suite seeds below 50 with state runs: two states of one pair each,
# whose two rows are a prefix and a suffix of the rows
RUN_SEEDS = (23, 35)


def _pair_path_cases():
    """Models without state runs, whose recursion takes the pair path."""
    yield from (random_model(seed) for seed in range(50) if seed not in RUN_SEEDS)
    yield example1_model(0.5)
    yield example1_family_model([0.25, 0.5, 0.75, 1.0])
    yield from (example2_model(m, control_step=0.5) for m in range(2, 10))


def _recursion_cases():
    yield from _pair_path_cases()
    # the range path
    yield from (random_model(seed) for seed in RUN_SEEDS)
    yield from (example2_model(m) for m in range(2, 10))


def test_staged_plan_read_on_first_use_matches_the_eager_recursion():
    # the curve comes from a values-only recursion and each selector from
    # the stored curve when first read; both must equal, bit for bit, what
    # the recursion that stored every argmin gave
    T = 30
    for m in _recursion_cases():
        curve, plan = finite_horizon_values(m, T)
        values, sels = eager_finite_horizon_values(m, T)
        assert [vf.values.tobytes() for vf in curve] == [v.tobytes() for v in values]
        lazy = plan.selector
        assert isinstance(lazy, StagedSelectors) and len(lazy) == T == plan.n_stages
        # read out of order first: the last stage, then negative indices
        assert np.array_equal(lazy[T - 1], sels[T - 1])
        assert all(np.array_equal(lazy[-i], sels[-i]) for i in range(1, T + 1))
        assert [s.tobytes() for s in lazy] == [s.tobytes() for s in sels]
        assert all(a.dtype == b.dtype for a, b in zip(lazy, sels))
        assert all(np.array_equal(a, b) for a, b in zip(lazy[::-7], sels[::-7]))


def _runs(tensor):
    """Each state's run [lo, end) of rows, read back from its entry of the
    running-minimum buffer: a prefix [0, at + 1) or a suffix [at - n_rows,
    n_rows)."""
    n_rows = tensor.rows.shape[0]
    return [(0, at + 1) if at < n_rows else (at - n_rows, n_rows)
            for at in tensor.run_min_at.tolist()]


def test_state_runs_are_found_on_example2_default_grid_only():
    for m in range(2, 10):
        mdl = example2_model(m)
        tensor = transition(mdl)
        starts = mdl.state_pair_start
        # each state's pairs read the rows lo..end-1, one each, in order
        for (a, b), (lo, end) in zip(zip(starts[:-1], starts[1:]), _runs(tensor)):
            assert tensor.pair_row[a:b].tolist() == list(range(lo, end))
        assert not tensor.run_min_at.flags.writeable
        assert _runs(tensor)[-1][1] == tensor.rows.shape[0]  # the last run ends at the last row
    for mdl in _pair_path_cases():
        assert transition(mdl).run_min_at is None
    for seed in RUN_SEEDS:
        mdl = random_model(seed)
        assert mdl.n_pairs == mdl.n_states == 2 and transition(mdl).rows.shape[0] == 2
        assert sorted(_runs(transition(mdl))) == [(0, 1), (1, 2)]


def test_state_runs_need_one_cost_bit_for_bit():
    mdl = example2_model(3)
    zero = mdl.nearest_state(0.0)
    assert mdl.states[zero, 0] == 0.0 and mdl.pair_cost[mdl.state_pair_start[zero]] == 0.0
    for y, cost in ((zero, -0.0), (1, np.nextafter(mdl.states[1, 0], 0.0))):
        k = mdl.pair_cost.copy()
        k[mdl.state_pair_start[y + 1] - 1] = cost  # the state's last pair
        assert transition(with_cost(mdl, k)).run_min_at is None
    assert transition(with_cost(mdl, mdl.pair_cost)).run_min_at is not None


def test_state_runs_need_increasing_rows_in_any_state_order():
    def chain(next_idx, pair_state):
        return FiniteModel(states=[0.0, 1.0, 2.0], pair_state=pair_state,
                           pair_control=np.arange(len(pair_state), dtype=float), noise=[1.0],
                           pair_cost=np.array([0.0, 1.0, 2.0])[pair_state],
                           next_idx=np.array(next_idx)[:, None])

    # the distinct rows are the images 0, 1, 2
    assert _runs(transition(chain([0, 1, 1, 2, 2], [0, 0, 1, 1, 2]))) == [(0, 2), (1, 3), (2, 3)]
    assert transition(chain([1, 0, 1, 2], [0, 0, 1, 2])).run_min_at is None  # decreasing
    assert transition(chain([0, 2, 1, 2], [0, 0, 1, 2])).run_min_at is None  # a gap
    # a suffix, a prefix, a suffix: the first rows fall, and the running
    # minima still read every run, so the model is on the range path
    falling = chain([1, 2, 0, 2], [0, 0, 1, 2])
    assert _runs(transition(falling)) == [(1, 3), (0, 1), (2, 3)]
    curve, plan = finite_horizon_values(falling, 6)
    values, sels = eager_finite_horizon_values(falling, 6)
    assert [vf.values.tobytes() for vf in curve] == [v.tobytes() for v in values]
    assert [s.tobytes() for s in plan.selector] == [s.tobytes() for s in sels]


def _plan_models():
    """Suite seeds 0..49, example 1, the example-1 family, and example 2 at
    m=2..8 and on five control_step grids."""
    yield from (random_model(seed) for seed in range(50))
    yield example1_model(0.5)
    yield example1_family_model([0.25, 0.5, 1.0])
    yield from (example2_model(m) for m in range(2, 9))
    yield from (example2_model(m, 2.0 ** -c) for m, c in ((4, 2), (5, 3), (6, 4), (7, 5), (8, 6)))


def test_greedy_start_is_the_argmin_over_every_pair(monkeypatch):
    # on a model with state runs a state's pairs share one cost, so its
    # first pair is the lowest of least cost, for k and for eps k
    n_runs = 0
    for mdl in _plan_models():
        for cost in (mdl.pair_cost, *(eps * mdl.pair_cost for eps in (0.5, 0.1, 0.013, 0.001))):
            got = dp._greedy_start(mdl, cost)
            assert got.dtype == np.int64 and np.array_equal(got, group_min_start(mdl, cost))
        n_runs += transition(mdl).run_min_at is not None
    assert n_runs == 7 + len(RUN_SEEDS)  # and example 2 on its default grid
    # and it is read without a pass over the pairs
    mdl = example2_model(8)
    monkeypatch.setattr(dp, "_group_min", None)
    assert np.array_equal(dp._greedy_start(mdl, mdl.pair_cost), mdl.state_pair_start[:-1])


def _plan_evaluations(mdl):
    """The bytes of h_eps and its plan at four discounts, the discounted
    occupations of that plan and of a deterministic and a randomized suite
    plan from the first and the last state, and policy iteration's gain,
    bias, plan and round count."""
    out = []
    for eps in (0.5, 0.1, 0.013, 0.001):
        h, plan = discounted_values(mdl, eps)
        out += [h.values, plan.selector]
        for p in (plan, random_stationary_plan(mdl, 0), random_stationary_plan(mdl, 1, True)):
            for y0 in sorted({0, mdl.n_states - 1}):
                out.append(discounted_occupation(mdl, p, y0, eps, tail_tol=1e-12).weights)
    sol = average_cost_policy_iteration(mdl)
    out += [sol.gain, sol.bias, sol.plan.selector, np.array(sol.rounds)]
    return [(a.dtype, a.tobytes()) for a in map(np.asarray, out)]


def test_plan_evaluation_matches_the_scipy_chain_bit_for_bit(monkeypatch):
    # discounted_values, discounted_occupation and policy iteration give the
    # bits they gave with scipy's row selection and operator chain and the
    # argmin start
    models = list(_plan_models())
    got = [_plan_evaluations(mdl) for mdl in models]
    monkeypatch.setattr(TransitionTensor, "law_at", scipy_row_selection)
    for module in (dp, measures):
        monkeypatch.setattr(module, "eye_minus_law", scipy_chain_eye_minus_law)
    monkeypatch.setattr(dp, "_greedy_start", group_min_start)
    want = [_plan_evaluations(mdl) for mdl in models]
    assert len(got) == 64 and got == want


def _interval_models():
    """20 seeds of every interval variant in both forms: 200 models, 80 with
    state runs."""
    for variant in INTERVAL_VARIANTS:
        for kernel_form in (False, True):
            yield from (interval_model(seed, variant, kernel_form) for seed in range(20))


def test_state_runs_match_their_definition_on_interval_models():
    counts = {}
    for mdl in [*_interval_models(), *_plan_models()]:
        at, want = transition(mdl).run_min_at, run_min_at_oracle(mdl)
        assert (at is None) == (want is None)
        assert at is None or (at.dtype == np.int64 and np.array_equal(at, want))
        counts[at is not None] = counts.get(at is not None, 0) + 1
    # the runs and shuffled variants, example 2 on its default grid and
    # suite seeds 23 and 35
    assert counts == {True: 80 + 7 + 2, False: 120 + 64 - 7 - 2}


def _stage_minimum_sites(mdl):
    """The bytes of every reader of the stage minimum: v_1..v_8 and the
    selectors, h_eps and its plan at four discounts, policy iteration's
    gain, bias, plan and round count, and the greedy plans of its bias and
    of a rounded random eta, whose ties the lowest pair breaks."""
    curve, plan = finite_horizon_values(mdl, 8)
    out = [vf.values for vf in curve] + list(plan.selector)
    for eps in (0.5, 0.1, 0.013, 0.001):
        h, greedy = discounted_values(mdl, eps)
        out += [h.values, greedy.selector]
    sol = average_cost_policy_iteration(mdl)
    out += [sol.gain, sol.bias, sol.plan.selector, np.array(sol.rounds)]
    eta = np.round(np.random.default_rng(mdl.n_pairs).standard_normal(mdl.n_states), 1)
    out += [greedy_feedback_from_eta(mdl, e).selector for e in (sol.bias, eta)]
    return [(a.dtype, a.tobytes()) for a in map(np.asarray, out)]


def test_every_stage_minimum_site_matches_the_pair_path_oracle(monkeypatch):
    # the range path's minima and the selectors fed them are the pair
    # path's, bit for bit, at every site: on the interval models (both
    # paths), the suite, both examples and example 2's control_step grids
    models = [*_interval_models(), *_plan_models()]
    for mdl in models[:200]:
        curve, plan = finite_horizon_values(mdl, 8)
        values, sels = eager_finite_horizon_values(mdl, 8)
        assert [vf.values.tobytes() for vf in curve] == [v.tobytes() for v in values]
        assert [s.tobytes() for s in plan.selector] == [s.tobytes() for s in sels]
    got = [_stage_minimum_sites(mdl) for mdl in models]
    monkeypatch.setattr(dp, "_StageMin", PairPathStageMin)
    monkeypatch.setattr(dp, "_greedy_start", group_min_start)
    want = [_stage_minimum_sites(mdl) for mdl in models]
    assert len(got) == 264 and got == want


@pytest.mark.parametrize("m, horizons", [*((m, (1, 2, 3, 128)) for m in range(2, 11)),
                                         (8, (1000,))])
def test_range_path_matches_the_pair_path_oracle(m, horizons):
    # the prefix and suffix minima give the pair path's curve bit for bit,
    # and the selectors read from that curve are the pair path's argmins
    mdl = example2_model(m)
    assert transition(mdl).run_min_at is not None
    values, sels = eager_finite_horizon_values(mdl, max(horizons))
    by_tau = sels[::-1]  # the argmin with tau stages to go at tau - 1
    for T in horizons:
        curve, plan = finite_horizon_values(mdl, T)
        assert [vf.values.tobytes() for vf in curve] == [v.tobytes() for v in values[:T]]
        assert [s.tobytes() for s in plan.selector] == [s.tobytes() for s in by_tau[T - 1::-1]]


def test_state_runs_need_prefix_or_suffix_runs():
    # four kernel rows; the middle state reads the interior run [1, 3), so
    # the model takes the pair path although it meets every other condition,
    # and its curve is the oracle's
    interior = FiniteModel(
        states=[0.0, 1.0, 2.0], pair_state=[0, 1, 1, 2], pair_control=[0.0, 1.0, 2.0, 3.0],
        noise=[], pair_cost=[0.5, -1.0, -1.0, 2.0],
        kernel=[[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert transition(interior).pair_row.tolist() == [0, 1, 2, 3]
    assert transition(interior).run_min_at is None
    curve, plan = finite_horizon_values(interior, 6)
    values, sels = eager_finite_horizon_values(interior, 6)
    assert [vf.values.tobytes() for vf in curve] == [v.tobytes() for v in values]
    assert [s.tobytes() for s in plan.selector] == [s.tobytes() for s in sels]


def test_range_path_never_reads_the_pair_law(monkeypatch):
    # the recursion reads no per-pair array of the law or of the model's
    # broadcasts; a selector read does, in its one pass over the pairs
    mdl = example2_model(7)
    reads = []

    def pair_row(self):
        reads.append("pair_row")
        return self.__dict__["pair_row"]

    def at_pairs(self, x):
        reads.append("at_pairs")
        return spread(self, x)

    def expect(self, values, scale=1.0):
        reads.append("expect")
        return law_expect(self, values, scale)

    spread, law_expect = FiniteModel.at_pairs, TransitionTensor.expect
    monkeypatch.setattr(TransitionTensor, "pair_row", property(pair_row), raising=False)
    monkeypatch.setattr(TransitionTensor, "expect", expect)
    monkeypatch.setattr(FiniteModel, "at_pairs", at_pairs)
    curve, plan = finite_horizon_values(mdl, 128)
    assert len(curve) == 128 and reads == []
    values, sels = eager_finite_horizon_values(mdl, 128)
    reads.clear()
    assert plan.selector[0].tobytes() == sels[0].tobytes()
    assert reads == ["pair_row", "at_pairs"]


@pytest.mark.parametrize("sign", ["positive", "negative", "state"])
def test_range_path_overflow_is_refused(sign):
    # a multi-pair model on the range path with v_1 = k = +-1e308 finite
    mdl = example2_model(3)
    y = mdl.states[:, 0]
    state_sign = {"positive": np.ones_like(y), "negative": -np.ones_like(y),
                  "state": np.where(y < 0, -1.0, 1.0)}[sign]
    mdl = with_cost(mdl, mdl.at_pairs(1e308 * state_sign))
    assert transition(mdl).run_min_at is not None
    values, _ = eager_finite_horizon_values(mdl, 2)
    assert np.isfinite(values[0]).all() and not np.isfinite(values[1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve, _ = finite_horizon_values(mdl, 1)
        assert curve[0].values.tobytes() == values[0].tobytes()
        with pytest.raises(SolverError, match=re.escape(
                "finite-horizon recursion overflowed: v_2 is not finite")):
            finite_horizon_values(mdl, 3)


def test_staged_selectors_index_like_a_list():
    m = random_model(4)
    _, plan = finite_horizon_values(m, 5)
    lazy = plan.selector
    assert lazy[-5] is lazy[0] and lazy[4] is lazy[-1]
    for bad in (5, -6):
        with pytest.raises(IndexError):
            lazy[bad]
    with pytest.raises(TypeError):
        lazy[1.0]
    with pytest.raises(TypeError):
        lazy[0] = lazy[1]


def test_prg_detect_cycles_the_plan_read_on_first_use():
    for m, y0 in ((example1_model(0.5), 1), (random_model(7), 0), (example2_model(4), 3)):
        _, plan = finite_horizon_values(m, 6)
        _, sels = eager_finite_horizon_values(m, 6)
        eager = Plan(kind="staged", selector=sels)
        assert prg_detect(m, plan, y0, t_max=30) == prg_detect(m, eager, y0, t_max=30)


def test_example1_constant_plans_hand_expectation():
    # Oracle: from y0=+0.5, y(1) = 0.5*u*s with s=+1 w.p. 3/4, s=-1 w.p. 1/4.
    # u=-1: E[y(1)] = 0.75*(-0.5) + 0.25*(+0.5) = -0.25, average (0.5-0.25)/2
    # u=+1: E[y(1)] = 0.75*(+0.5) + 0.25*(-0.5) = +0.25, average (0.5+0.25)/2
    m = example1_model(0.5)
    i = m.initial_index
    down = Plan(kind="stationary_deterministic", selector=np.array([0, 2]))
    up = Plan(kind="stationary_deterministic", selector=np.array([1, 3]))
    assert m.pair_control[down.selector].tolist() == [[-1.0], [-1.0]]
    assert m.pair_control[up.selector].tolist() == [[1.0], [1.0]]
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


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_a_deterministic_selector_holds_pairs_of_its_own_states(name):
    # an entry is the pair index of its state's control; all zeros, once
    # "the first control everywhere", names state 0's first pair at every
    # state and is refused, as is a neighbour state's pair
    m = example1_model(0.5) if name == "example1" else example2_model(3)
    starts = m.state_pair_start
    first, last = starts[:-1], starts[1:] - 1
    i = m.n_states // 2
    refused = {"zeros": np.zeros(m.n_states, dtype=int), "next_first": last + 1,
               "previous_last": first - 1, "one_past": first.copy(), "one_before": last.copy()}
    refused["one_past"][i] = starts[i + 1]
    refused["one_before"][i] = starts[i] - 1
    for sel in (first, last):
        for plan in (Plan("stationary_deterministic", sel), Plan("staged", [first, sel])):
            plan.check_against(m)
    for sel in refused.values():
        for plan in (Plan("stationary_deterministic", sel), Plan("staged", [first, sel])):
            with pytest.raises(ValueError, match="plan/model mismatch: bad "
                                                 "(deterministic|staged) selector"):
                plan.check_against(m)


def test_randomized_plan_with_nan_row_is_rejected():
    # abs(nan - 1) > tol is False, so a sum test alone lets a NaN row through
    m = example1_model(0.5)
    plan = Plan(kind="stationary_randomized", selector=np.array([np.nan, 1.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="bad probability row at state 0"):
        plan.check_against(m)
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_plan_discounted(m, plan, 0, 0.1)


@pytest.mark.parametrize("case", ["nested_rows", "ragged_rows", "bool", "strings"])
def test_randomized_plan_is_its_pair_weights(case):
    # one numeric (n_pairs,) array; per-state rows and non-numeric weights are refused
    m = example1_model(0.5) if case == "nested_rows" else random_model(5)
    w = random_stationary_plan(m, 0, True).selector
    one_hot = np.zeros(m.n_pairs, dtype=bool)
    one_hot[m.state_pair_start[:-1]] = True
    weights = {"nested_rows": [[0.5, 0.5], [0.25, 0.75]],
               "ragged_rows": [row.tolist() for row in np.split(w, m.state_pair_start[1:-1])],
               "bool": one_hot, "strings": w.astype(str)}[case]
    refusal = {"nested_rows": rf" has shape \(2, 2\), expected \({m.n_pairs},\)",
               "ragged_rows": ": setting an array element with a sequence",
               "bool": " of dtype bool is not numeric",
               "strings": r" of dtype <U\d+ is not numeric"}[case]
    plan = Plan("stationary_randomized", weights)
    with pytest.raises(ValueError, match="^plan/model mismatch: randomized selector" + refusal):
        plan.check_against(m)
    with pytest.raises(ValueError, match="^plan/model mismatch: randomized selector" + refusal):
        evaluate_plan_average(m, plan, 0, 3)


def test_discounted_values_input_checks():
    m = random_model(2)
    with pytest.raises(ValueError):
        discounted_values(m, 1.5)
    with pytest.raises(ValueError):
        discounted_values(m, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        finite_horizon_values(m, 0)
    # inf used to certify with a vacuous Bellman bound, nan to raise SolverError
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"tol={tol!r} must be finite and positive"):
            discounted_values(m, 0.5, tol=tol)


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


def test_discounted_values_refusal_names_the_bound_it_certified():
    # at eps = 1e-7 the Bellman residual, one rounding of h, exceeds the
    # default tol * eps; the message gives the bound residual/eps that the
    # solve did certify, and a tol just above it is accepted
    m = example2_model(3)
    with pytest.raises(SolverError, match=r"the solve certifies \|h - h_eps\| <= residual/eps = "
                                          r"(\S+)$") as err:
        discounted_values(m, 1e-7)
    bound = float(re.search(r"residual/eps = (\S+)$", str(err.value)).group(1))
    assert bound > DEFAULT_TOL
    h, _ = discounted_values(m, 1e-7, tol=1.01 * bound)
    h_ref, _ = discounted_values(m, 1e-7, tol=1e3 * bound)
    assert np.array_equal(h.values, h_ref.values)


def test_policy_iteration_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(dp, "PI_ITERATION_CAP", 0)
    with pytest.raises(SolverError, match="cap"):
        discounted_values(random_model(13), 0.1)


@pytest.mark.parametrize("seed", range(12))
def test_average_cost_gain_matches_plan_enumeration(seed):
    m = random_model(seed, max_states=4, max_controls=3)
    sol = average_cost_policy_iteration(m)
    assert np.max(np.abs(sol.gain - optimal_gain_oracle(m))) <= 1e-9


def test_average_cost_solves_the_optimality_equations():
    # at termination: E g >= g on every pair, with equality on the plan's
    # pairs; among the pairs with E g = g, k + E h >= g + h, with equality on
    # the plan's; h = 0 at each closed class's lowest state
    worst_rounds = 0
    for seed in range(50):
        m = random_model(seed)
        sol = average_cost_policy_iteration(m)
        tensor, s = transition(m), m.pair_state
        pairs = sol.plan.selector
        g, h = sol.gain, sol.bias
        rise = tensor.expect(g) - g[s]
        rest = m.pair_cost + tensor.expect(h) - h[s] - g[s]
        assert rise.min() >= -1e-12
        assert np.max(np.abs(rise[pairs])) <= 1e-12
        assert rest[rise <= 1e-12].min() >= -1e-12
        assert np.max(np.abs(rest[pairs])) <= 1e-12
        chain = sol.chain
        refs = [chain.rec[chain.label[chain.rec] == c][0] for c in range(chain.label.max() + 1)]
        assert np.all(h[refs] == 0.0)
        worst_rounds = max(worst_rounds, sol.rounds)
    assert worst_rounds <= 4


@pytest.mark.parametrize("m_exp", [3, 5, 7])
def test_average_cost_example2_gain_is_analytic(m_exp):
    m = example2_model(m_exp)
    sol = average_cost_policy_iteration(m)
    expected = np.where(m.states[:, 0] > 0, 2.0 ** -m_exp, -0.625)
    assert np.array_equal(sol.gain, expected)


def test_average_cost_is_bitwise_deterministic():
    m = example2_model(5)
    a, b = average_cost_policy_iteration(m), average_cost_policy_iteration(m)
    assert np.array_equal(a.gain, b.gain) and np.array_equal(a.bias, b.bias)
    assert np.array_equal(a.plan.selector, b.plan.selector)


def test_closed_classes_of_a_hand_chain():
    # 0 -> {1, 3} (transient); {1, 2} cycles; 3 absorbs; 4 -> 4 or 0
    P = np.array([[0.0, 0.5, 0.0, 0.5, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0, 0.0],
                  [0.5, 0.0, 0.0, 0.0, 0.5]])
    chain = ClosedClasses(P)
    assert chain.rec.tolist() == [1, 2, 3] and chain.tra.tolist() == [0, 4]
    assert chain.label[[0, 4]].tolist() == [-1, -1]
    assert chain.label[1] == chain.label[2] != chain.label[3]
    assert np.allclose(chain.stationary_laws(), [0, 0.5, 0.5, 1, 0], atol=1e-15)
    g, h = chain.evaluate(np.array([4.0, 1.0, 3.0, -1.0, 0.0]))
    assert np.allclose(g, [0.5, 2.0, 2.0, -1.0, 0.5], atol=1e-14)
    assert np.allclose(g + h, [4.0, 1.0, 3.0, -1.0, 0.0] + P @ h, atol=1e-14)
    assert h[1] == 0.0 and h[3] == 0.0
    for y0, p_star in ((4, [0, 0.25, 0.25, 0.5, 0]), (2, [0, 0.5, 0.5, 0, 0])):
        got, w = chain.limiting_row(y0)
        assert np.allclose(got, p_star, atol=1e-15)
        start = np.eye(5)[y0]
        assert np.allclose(w @ (np.eye(5) - P), start - got, atol=1e-14)
        assert w.min() == 0.0
        assert all(w[chain.label == c].min() == 0.0 for c in set(chain.label[got > 0]))


def test_average_cost_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(dp, "PI_ITERATION_CAP", 0)
    with pytest.raises(SolverError, match="cap"):
        average_cost_policy_iteration(random_model(13))


def test_average_cost_refuses_non_finite_values():
    # |k| = 1e308 is finite, but the bias k(0) - k(1) overflows
    m = FiniteModel(states=[0.0, 1.0], pair_state=[0, 1], pair_control=[0.0, 0.0], noise=[1.0],
                    pair_cost=[1e308, -1e308], next_idx=[[1], [0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="not finite"):
            average_cost_policy_iteration(m)


def _kernel_models():
    return [random_model(seed) for seed in range(50)] + [example2_model(m) for m in range(2, 8)]


def test_group_min_matches_the_two_pass_oracle():
    # one pass (the first hit per state by binary search) gives the two
    # reductions' minima and lowest argmin pairs, with n_pairs + 1 where a
    # state's minimum is NaN
    rng = np.random.default_rng(0)
    for m in _kernel_models():
        n = m.n_pairs
        spiked = np.round(rng.standard_normal(n), 1)
        for value, at in zip((np.nan, np.inf, -np.inf), rng.integers(0, n, (3, 1 + n // 7))):
            spiked[at] = value
        for q in (m.pair_cost, np.round(rng.standard_normal(n), 1), spiked,
                  np.full(n, np.nan), np.full(n, np.inf), np.full(n, -np.inf)):
            vmin, sel = dp._group_min(m, q)
            want_vmin, want_sel = group_min_oracle(m, q)
            assert np.array_equal(vmin, want_vmin, equal_nan=True)
            assert sel.dtype == want_sel.dtype and np.array_equal(sel, want_sel)


def _same_sparse(a, b):
    return all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


def test_closed_classes_match_the_scipy_chain(monkeypatch):
    # the one-pass assembly factors the very CSC arrays that scipy's
    # operator chain gave, so evaluate and limiting_row agree bit for bit
    factored = []
    factor = dp._factor

    def recorded(matrix):
        factored.append(sparse.csc_matrix(matrix))  # what splu reads
        return factor(matrix)

    monkeypatch.setattr(dp, "_factor", recorded)
    cases = []
    for m in _kernel_models() + [example1_model(0.5)]:
        tensor = transition(m)
        sels = [average_cost_policy_iteration(m).plan.selector]
        sels += [random_stationary_plan(m, seed).selector for seed in range(3)]
        for pairs in sels:
            cases.append((tensor.rows[tensor.pair_row[pairs]], m.pair_cost[pairs]))
    hand = np.array([[0.0, 0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0],
                     [0.5, 0.0, 0.0, 0.0, 0.5]])
    cases.append((hand, np.array([4.0, 1.0, 3.0, -1.0, 0.0])))
    # a kernel row may sum to 1 + 1e-13: state 2's diagonal 1 - P(2, 2) is
    # an exact 0, which scipy's arithmetic drops from the recurrent matrix
    cases.append((np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1e-13, 0.0, 1.0]]),
                  np.array([1.0, 2.0, 3.0])))
    n_transient = 0
    for p_pi, r in cases:
        factored.clear()
        chain = ClosedClasses(p_pi)
        want, recurrent, transient = scipy_chain_closed_classes(p_pi)
        for name in ("rec", "tra", "label"):
            assert np.array_equal(getattr(chain, name), getattr(want, name))
        assert _same_sparse(factored[0], recurrent)
        if len(chain.tra):
            n_transient += 1
            assert len(factored) == 2 and _same_sparse(factored[1], transient)
            assert _same_sparse(chain._p_tr, want._p_tr)
        for got, expected in zip(chain.evaluate(r), want.evaluate(r)):
            assert np.array_equal(got, expected)
        assert np.array_equal(chain.stationary_laws(), want.stationary_laws())
        for y0 in sorted({0, len(r) // 2, len(r) - 1}):
            # the zero-diagonal chain's stationary law has zeros, which it divides by
            with np.errstate(divide="ignore", invalid="ignore"):
                pairs = zip(chain.limiting_row(y0), want.limiting_row(y0))
                for got, expected in pairs:
                    assert np.array_equal(got, expected, equal_nan=True)
    assert n_transient > len(cases) // 2


def _state_defects(w, a, b):
    """Ways to spoil the weights w[a:b] of one state, by name, and two that
    keep them valid: nudged (a sum within 1e-12 of 1) and one_hot."""
    row = w[a:b]
    bumped, nudged, one_hot = row.copy(), row.copy(), np.zeros(b - a)
    bumped[0] += 3e-12
    nudged[0] += 5e-13
    one_hot[-1] = 1.0
    first = np.arange(b - a) == 0
    defects = {name: np.where(first, value, row)
               for name, value in {"negative": -0.25, "nan": np.nan, "inf": np.inf}.items()}
    defects.update(heavy=row * 1.001, bumped=bumped, nudged=nudged, one_hot=one_hot)
    return defects


def _layout_defects(m, w):
    """Weights that are not one numeric (n_pairs,) array, by name, and two
    that are: listed (a flat list) and integer (one-hot integer weights)."""
    rows = np.split(w, m.state_pair_start[1:-1])
    integer = np.zeros(m.n_pairs, dtype=np.int64)
    integer[m.state_pair_start[1:] - 1] = 1
    return {"short": w[:-1], "long": np.append(w, 0.0), "matrix": w[None, :],
            "scalar": np.float64(1.0), "rows": [row.tolist() for row in rows],
            "row_arrays": rows, "bool": w > 0, "strings": w.astype(str),
            "objects": w.astype(object), "listed": w.tolist(), "integer": integer}


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_randomized_plan_check_matches_the_row_loop():
    # the weights are checked as one array, but the first bad state and every
    # message are those of the state-by-state loop in Python floats
    refused = 0
    for m in (example1_model(0.5), random_model(5), example2_model(3)):
        base = random_stationary_plan(m, 0, True).selector
        n = m.n_states
        spots = sorted({0, 1, n // 2, n - 1})
        cases = [base, *_layout_defects(m, base).values()]
        starts = m.state_pair_start
        for i, j in product(spots, repeat=2):
            for a, b in product(_state_defects(base, starts[i], starts[i + 1]).values(),
                                _state_defects(base, starts[j], starts[j + 1]).values()):
                w = base.copy()
                w[starts[j]:starts[j + 1]] = b
                w[starts[i]:starts[i + 1]] = a  # when i == j, the one defect a
                cases.append(w)
        for w in cases:
            want = _outcome(check_rows_one_by_one, m, w)
            got = _outcome(Plan("stationary_randomized", w).check_against, m)
            assert got == want
            refused += want is not None
    assert refused > 1000
