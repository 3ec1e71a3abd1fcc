import gc
import hashlib
import json
import re
import weakref

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings, strategies as st

from occulimits.analysis import bounds_report
from occulimits.dp import finite_horizon_values
from occulimits.measures import discounted_occupation
from occulimits.model import (NOISE_NORMALIZATION_TOL, ROW_SUM_TOL, FiniteModel,
                              ModelError, _distinct_rows, example1_model, example1_family_model,
                              example2_model, eye_minus_law, load_model, save_model, transition,
                              validate)
from occulimits.programs import average_cost_solution
from occulimits.suite import random_model, random_stationary_plan

from _oracles import (candidate_union_example2_model, law_matrix, pair_by_pair_law, plan_law,
                      reference_example1_family_model, reference_example1_model,
                      reference_example2_model, scipy_chain_eye_minus_law, scipy_row_selection)


def assert_same_arrays(a, b):
    """Bit-for-bit equal states, pairs, controls, noise, pair costs, images
    (None for both kernel-row models) and CSR transition law: its distinct
    rows and the row of every pair."""
    ta, tb = transition(a), transition(b)
    arrays = [(a.states, b.states), (a.pair_state, b.pair_state),
              (a.pair_control, b.pair_control), (a.state_pair_start, b.state_pair_start),
              (a.noise, b.noise), (a.pair_cost, b.pair_cost),
              (ta.rows.indptr, tb.rows.indptr), (ta.rows.indices, tb.rows.indices),
              (ta.rows.data, tb.rows.data), (ta.pair_row, tb.pair_row)]
    assert (ta.next_idx is None) == (tb.next_idx is None)
    if ta.next_idx is not None:
        arrays.append((ta.next_idx, tb.next_idx))
    for x, y in arrays:
        assert x.dtype == y.dtype and np.array_equal(x, y)


def single_state_model():
    return FiniteModel(states=[[0.0]], pair_state=[0], pair_control=[0.0], noise=[1.0],
                       pair_cost=[1.0], next_idx=[[0]])


def _round_trip_models():
    """(model, law argument): the suite seeds 0..49, example 1, the family,
    example 2 at m=2..8 with the default control step and 0.5, and a
    kernel-row model."""
    yield from ((random_model(seed), "next_idx") for seed in range(50))
    yield example1_model(0.5), "next_idx"
    yield example1_family_model([0.25, 0.5, 1.0]), "next_idx"
    for m in range(2, 9):
        for step in (None, 0.5):
            yield example2_model(m, step), "next_idx"
    rows = np.array([[0.2, 0.8, 0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    yield FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 0, 1, 2],
                      pair_control=[0.0, 1.0, 0.0, 1.0], noise=[],
                      pair_cost=[0.1, -0.2, 0.3, 0.4], kernel=rows, initial_index=2), "kernel"


def test_a_model_is_rebuilt_from_its_own_arrays():
    # the constructor takes the per-pair arrays the model exposes
    count = 0
    for m, law_kind in _round_trip_models():
        tensor = transition(m)
        law = {"next_idx": tensor.next_idx} if law_kind == "next_idx" else \
            {"kernel": law_matrix(m).toarray()}
        again = FiniteModel(m.states, m.pair_state, m.pair_control, m.noise, m.pair_cost,
                            initial_index=m.initial_index, **law)
        assert_same_arrays(again, m)
        assert again.initial_index == m.initial_index
        count += 1
    assert count == 67


def test_single_state_forced_row():
    tensor = transition(single_state_model())
    assert np.allclose(tensor.rows[tensor.pair_row].toarray(), [[1.0]])


def test_example1_transition_row_matches_dynamics():
    m = example1_model(0.5)
    tensor = transition(m)
    # state +0.5 (index 1), control -1 (pair 2): images 0.5*(-1)*s
    p = 2
    assert m.pair_state[p] == 1 and m.pair_control[p].tolist() == [-1.0]
    row = tensor.rows[tensor.pair_row[p]].toarray().ravel()
    assert row[m.nearest_state(-0.5)] == pytest.approx(0.75, abs=1e-15)
    assert row[m.nearest_state(0.5)] == pytest.approx(0.25, abs=1e-15)


def test_three_state_rows_match_hand_enumeration():
    # 3 states, one control each, 2 atoms (0.6 / 0.4); images fixed by hand
    m = FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 1, 2], pair_control=[0.0] * 3,
                    noise=[0.6, 0.4], pair_cost=[0.0] * 3, next_idx=[[1, 2], [1, 1], [0, 1]])
    tensor = transition(m)
    assert np.allclose(tensor.rows[tensor.pair_row].toarray(), [[0.0, 0.6, 0.4],
                                                                [0.0, 1.0, 0.0],
                                                                [0.6, 0.4, 0.0]])


KERNEL = [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]


def _law_models():
    """(model, kernel) for suite seeds 0..49, example 1, example 2 at m=2..8
    and a kernel-row model; kernel is None for a dynamics model."""
    yield from ((random_model(seed), None) for seed in range(50))
    yield example1_model(0.5), None
    yield from ((example2_model(m), None) for m in range(2, 9))
    yield FiniteModel(states=[0.0, 1.0], pair_state=[0, 1, 1], pair_control=[0.0, 0.0, 1.0],
                      noise=[], pair_cost=[1.0, 0.0, 2.0], kernel=KERNEL), KERNEL


def test_distinct_rows_read_the_law_bit_for_bit():
    rng = np.random.default_rng(20)
    count = 0
    for m, kernel in _law_models():
        tensor = transition(m)
        law, shared = pair_by_pair_law(m, kernel), tensor.rows[tensor.pair_row]
        for x, y in ((shared.indptr, law.indptr), (shared.indices, law.indices),
                     (shared.data, law.data)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        v = rng.standard_normal(m.n_states)
        assert np.array_equal(tensor.expect(v), law @ v)
        count += 1
    assert count == 59
    # example 2's images u s do not depend on y: few distinct rows
    assert transition(example2_model(7)).rows.shape == (257, 257)


def _same_csr(a, b):
    """Equal indptr, indices and data, dtypes included, and the same layout."""
    return a.format == b.format and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


def test_a_plan_law_is_assembled_as_scipy_assembled_it():
    # law_at reads rows' arrays as scipy's row selection does, and
    # eye_minus_law gives the arrays of identity - decay * P_pi with sorted
    # indices, in CSR and, transposed, in CSC; a randomized plan's P_pi is
    # the product of its pair weights and the rows, whose indices are unsorted
    count = 0
    for m, _ in _law_models():
        tensor = transition(m)
        every = np.arange(m.n_pairs)
        assert _same_csr(tensor.law_at(every), scipy_row_selection(tensor, every))
        for seed, randomized in ((0, False), (1, False), (2, True), (3, True)):
            plan = random_stationary_plan(m, seed, randomized)
            if randomized:
                weights = sparse.csr_matrix((plan.selector, tensor.pair_row, m.state_pair_start),
                                            shape=(m.n_states, tensor.rows.shape[0]))
                p_pi = weights @ tensor.rows
            else:
                p_pi = tensor.law_at(plan.selector)
                assert _same_csr(p_pi, scipy_row_selection(tensor, plan.selector))
            for decay in (0.5, 0.9, 0.987, 0.999):
                for layout in (sparse.csr_matrix, sparse.csc_matrix):
                    assert _same_csr(eye_minus_law(p_pi, decay, layout),
                                     scipy_chain_eye_minus_law(p_pi, decay, layout))
            count += 1
    assert count == 4 * 59
    # exact zeros are dropped, one of six positions each: the diagonal
    # 1 - 1.0 * 1.0 at decay 1, and 0.25 * 5e-324, which underflows to 0
    hand = sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [5e-324, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    for decay in (0.25, 1.0):
        for layout in (sparse.csr_matrix, sparse.csc_matrix):
            assert _same_csr(eye_minus_law(hand, decay, layout),
                             scipy_chain_eye_minus_law(hand, decay, layout))
    assert eye_minus_law(hand, 1.0).nnz == eye_minus_law(hand, 0.25).nnz == 5


def test_state_sums_add_in_pair_order_as_bincount_does():
    # signed weights over twenty orders of magnitude, with +0 and -0 among
    # them, so that a different order of the adds would show in the bits
    rng = np.random.default_rng(28)
    for m, _ in _law_models():
        n = m.n_pairs
        signed = rng.standard_normal(n) * 10.0 ** rng.integers(-10, 10, n)
        signed[rng.integers(0, n, 1 + n // 5)] = 0.0
        signed[rng.integers(0, n, 1 + n // 5)] = -0.0
        for w in (signed, np.full(n, -0.0), rng.integers(-3, 4, n)):
            want = np.bincount(m.pair_state, w, m.n_states)
            got = m.state_sums(w)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_distinct_rows_rank_a_key_that_would_overflow():
    # 1000**7 > 2**63, so the fold ranks its key before the seventh column
    images = np.random.default_rng(7).integers(0, 1000, (300, 9))
    images[200:] = images[:100]
    first, pair_row = _distinct_rows(images, 1000)
    assert np.array_equal(images[first], np.unique(images, axis=0))
    assert np.array_equal(images[first][pair_row], images)
    assert np.array_equal(first[pair_row[200:]], np.arange(100))


@pytest.mark.parametrize("method, size", [("expect", "n_states"), ("push", "n_pairs")])
@pytest.mark.parametrize("case", ["strings", "bools", "short", "rows"])
def test_expect_and_push_refuse_an_unusable_argument(method, size, case):
    # strings used to be parsed as numbers and bools read as 0 and 1; a short
    # argument was refused by scipy or numpy in their words, and expect read
    # a column of values as a column, returning (n_pairs, 1)
    m = example1_model(0.5)
    apply = getattr(transition(m), method)
    n = getattr(m, size)
    value, refusal = {
        "strings": ([str(i + 1) for i in range(n)], "of dtype <U1 is not numeric"),
        "bools": (np.ones(n, dtype=bool), "of dtype bool is not numeric"),
        "short": (np.ones(n - 1), rf"has shape \({n - 1},\), expected \({n},\)"),
        "rows": (np.ones((n, 1)), rf"has shape \({n}, 1\), expected \({n},\)"),
    }[case]
    name = "values" if method == "expect" else "pair_mass"
    with pytest.raises(ValueError, match=f"^{name} {refusal}$"):
        apply(value)
    assert np.array_equal(apply(list(range(1, n + 1))), apply(np.arange(1.0, n + 1)))


@pytest.mark.parametrize("arrays", [
    {"states": [0.0], "pair_state": [0], "pair_control": [0.0], "noise": [],
     "pair_cost": [1.0], "next_idx": np.zeros((1, 0))},
    {"states": [0.0, 1.0], "pair_state": [0, 1, 1], "pair_control": [0.0, 0.0, 1.0],
     "noise": [], "pair_cost": [1.0, 0.0, 2.0], "next_idx": np.zeros((3, 0))},
    {"states": [], "pair_state": [], "pair_control": [], "noise": [1.0], "pair_cost": [],
     "next_idx": np.zeros((0, 1))},
    {"states": [0.0], "pair_state": [], "pair_control": [], "noise": [], "pair_cost": [],
     "next_idx": np.zeros((0, 0))},
    {"states": [0.0], "pair_state": [], "pair_control": [], "noise": [1.0], "pair_cost": [],
     "next_idx": np.zeros((0, 1))}])
def test_zero_atom_and_zero_pair_arrays_are_refused(arrays):
    # grouping the pairs onto distinct rows must reach validate on every
    # array the constructor accepts
    with pytest.raises(ModelError):
        FiniteModel(**arrays)


def test_a_model_is_freed_with_its_last_reference():
    # no reference cycle holds a model, so it and its policy-iteration
    # solution go with its last reference, without the cycle collector
    gc.disable()
    try:
        m = example2_model(4)
        bounds_report(m, 3, [1, 8], [0.5])
        refs = weakref.ref(m), weakref.ref(average_cost_solution(m))
        del m
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_dynamics_out_of_range_names_triple(tmp_path):
    doc = {"states": [[0.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 1.0}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 5}],
           "cost": [{"state": 0, "control": 0, "value": 1.0}]}
    path = tmp_path / "image.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=r"state=0, control=0, noise=0"):
        load_model(path)


TWO_STATES = {"states": [[0.0], [1.0]], "pair_state": [0, 1], "pair_control": [(0.0,), (0.0,)],
              "noise": [1.0]}
# pair_state values that are not a nondecreasing list of state indices,
# refused under both law kinds
BAD_PAIR_STATES = {
    "outside": ([0, 2], "pair_state has pairs outside the 2 states"),
    "decreasing": ([1, 0], r"pair_state of shape \(2,\) is not a nondecreasing list"),
    "fractional": ([0, 0.5], "pair_state is not integer-valued"),
    "bool": ([False, True], "pair_state of dtype bool is not numeric"),
    "2d": ([[0], [1]], r"pair_state of shape \(2, 1\) is not a nondecreasing list"),
}
LAWS = {"": {"next_idx": [[1], [0]]},
        "_kernel": {"noise": [], "kernel": [[0.0, 1.0], [1.0, 0.0]]}}


@pytest.mark.parametrize("arrays, problem", [
    ({"pair_cost": [1.0], "next_idx": [[1], [0]]}, "pair_cost has shape"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1]]}, "next_idx has shape"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1, 0], [0, 1]]}, "next_idx has shape"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[0.7], [0]]}, "not integer-valued"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[-1], [0]]}, "outside the 2 states"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[2], [0]]}, "outside the 2 states"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "initial_index": 7},
     "initial_index 7 outside"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "kernel": [[0.0, 1.0], [1.0, 0.0]]},
     "exactly one"),
    ({"pair_cost": [1.0, 2.0]}, "exactly one"),
    ({"pair_cost": [1.0, 2.0], "kernel": [[0.0, 1.0]]}, "kernel has shape"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "states": [[[0.0]], [[1.0]]]},
     r"states has shape \(2, 1, 1\)"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "states": [[0.0], [1.0, 2.0]]},
     "states: "),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "pair_control": [[[0.0]], [[0.0]]]},
     r"pair_control has shape \(2, 1, 1\)"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "noise": [[1.0]]},
     r"noise has shape \(1, 1\)"),
    # both used to construct and store the value, which check_y0 then refused
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "initial_index": True},
     "initial_index True outside"),
    ({"pair_cost": [1.0, 2.0], "next_idx": [[1], [0]], "initial_index": 1.0},
     r"initial_index 1\.0 outside"),
    *(({"pair_cost": [1.0, 2.0], "pair_state": pair_state, **law}, problem)
      for pair_state, problem in BAD_PAIR_STATES.values() for law in LAWS.values())],
    ids=["short_pair_cost", "short_next_idx", "wide_next_idx", "fractional_image",
         "negative_image", "image_too_large", "initial_index_outside", "both_laws",
         "no_law", "short_kernel", "nested_states", "ragged_states", "nested_controls",
         "noise_matrix", "initial_index_bool", "initial_index_float",
         *(f"pair_state_{case}{kind}" for case in BAD_PAIR_STATES for kind in LAWS)])
def test_constructor_refuses_unusable_arrays(arrays, problem):
    with pytest.raises(ModelError, match=problem):
        FiniteModel(**{**TWO_STATES, **arrays})


# bools and non-numbers in place of TWO_STATES' arrays, each refused by its
# dtype (the kernel ones under a kernel-row law)
NON_NUMERIC_ARRAYS = {
    "pair_cost_strings": ({"pair_cost": ["1.0", "2.0"]}, "pair_cost of dtype <U3"),
    "pair_cost_bools": ({"pair_cost": [True, False]}, "pair_cost of dtype bool"),
    "pair_cost_none": ({"pair_cost": [1.0, None]}, "pair_cost of dtype object"),
    "noise_strings": ({"noise": ["1.0"]}, "noise of dtype <U3"),
    "noise_bools": ({"noise": np.array([True])}, "noise of dtype bool"),
    "kernel_strings": ({"kernel": [["0", "1"], ["1", "0"]]}, "kernel of dtype <U1"),
    "kernel_bools": ({"kernel": [[False, True], [True, False]]}, "kernel of dtype bool"),
    "states_strings": ({"states": ["0", "1"]}, "states of dtype <U1"),
    "pair_control_bools": ({"pair_control": [False, True]}, "pair_control of dtype bool"),
    "next_idx_strings": ({"next_idx": [["1"], ["0"]]}, "next_idx of dtype <U1"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC_ARRAYS))
def test_constructor_refuses_bool_and_non_numeric_arrays(case):
    # strings used to be parsed as numbers, bools read as 0 and 1 and a None
    # as NaN, so all but the None and the next_idx strings built a model
    arrays, problem = NON_NUMERIC_ARRAYS[case]
    law = LAWS["_kernel" if case.startswith("kernel") else ""]
    with pytest.raises(ModelError, match=f"^{problem} is not numeric$"):
        FiniteModel(**{**TWO_STATES, "pair_cost": [1.0, 2.0], **law, **arrays})


def test_constructor_copies_the_arrays_it_is_given():
    # the model freezes copies of its inputs, never an array its caller holds
    given = {"states": np.array([0.0, 1.0]), "pair_state": np.array([0, 1]),
             "pair_control": np.array([0.0, 0.0]), "noise": np.array([1.0]),
             "pair_cost": np.array([1.0, 2.0]), "next_idx": np.array([[1], [0]])}
    before = {name: value.copy() for name, value in given.items()}
    m = FiniteModel(**given)
    for name, value in given.items():
        assert value.flags.writeable and np.array_equal(value, before[name])
    for name in ("states", "pair_state", "pair_control", "noise", "pair_cost"):
        assert not getattr(m, name).flags.writeable
        assert not np.shares_memory(getattr(m, name), given[name])
    given["pair_cost"][0] = 5.0
    assert m.pair_cost.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("controls, problem", [
    ([(float("nan"),)] * 2, "not all finite"),
    ([(float("inf"),)] * 2, "not all finite"),
    ([(0.0,), (1.0, 2.0)], "pair_control:"),  # mixed dimensions: ragged rows
    ([(), ()], "one positive dimension")])
def test_validate_flags_bad_control_values(controls, problem):
    # the constructor refuses every problem validate lists, and any
    # pair_control that is not one (n_pairs, d_u) array with d_u >= 1
    with pytest.raises(ModelError, match=problem):
        FiniteModel(states=[[0.0], [1.0]], pair_state=[0, 1], pair_control=controls,
                    noise=[1.0], pair_cost=[1.0, 2.0], next_idx=[[1], [0]])


def test_validate_example1_clean():
    assert validate(example1_model(0.5)) == []


def test_validate_flags_unnormalized_noise():
    with pytest.raises(ModelError, match="noise not normalized"):
        FiniteModel(states=[[0.0]], pair_state=[0], pair_control=[0.0], noise=[0.9],
                    pair_cost=[1.0], next_idx=[[0]])


def test_validate_flags_empty_control_list():
    with pytest.raises(ModelError, match=re.escape("empty U(y)")):
        FiniteModel(states=[[0.0]], pair_state=[], pair_control=[], noise=[1.0], pair_cost=[],
                    next_idx=np.zeros((0, 1), dtype=np.int64))


NAN, INF = float("nan"), float("inf")
REFUSED_MODELS = {
    "no_states": ({"states": [], "pair_state": [], "pair_control": [], "noise": [1.0],
                   "pair_cost": [], "next_idx": np.zeros((0, 1), dtype=np.int64)},
                  "model has no states"),
    "nan_cost": ({**TWO_STATES, "pair_cost": [NAN, 1.0], "next_idx": [[1], [0]]},
                 "cost table has non-finite entries"),
    "infinite_cost": ({**TWO_STATES, "pair_cost": [1.0, -INF], "next_idx": [[1], [0]]},
                      "cost table has non-finite entries"),
    "nan_state": ({**TWO_STATES, "states": [[0.0], [NAN]],
                   "pair_cost": [1.0, 2.0], "next_idx": [[1], [0]]},
                  "state 1 has non-finite coordinates"),
    "short_kernel_row": ({**TWO_STATES, "noise": [], "pair_cost": [1.0, 2.0],
                          "kernel": [[0.9, 0.0], [0.0, 1.0]]},
                         "1 transition rows do not sum to 1"),
    "two_problems": ({**TWO_STATES, "noise": [0.9],
                      "pair_cost": [NAN, 1.0], "next_idx": [[1], [0]]},
                     r"noise not normalized \(sum=0.9\); cost table has non-finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_MODELS))
def test_constructor_refuses_every_problem_validate_lists(case):
    # each of these models used to be built and then answered: a NaN cost
    # gave a NaN v_T, a zero-state model went on to the LP solver
    arrays, problem = REFUSED_MODELS[case]
    with pytest.raises(ModelError, match=problem):
        FiniteModel(**arrays)


SPOILERS = ("no_states", "empty_control_list", "nan_control", "infinite_control",
            "ragged_control", "nan_cost", "infinite_cost", "no_noise", "law_sums_to_0.9",
            "nan_law", "infinite_law", "negative_law", "image_outside")


@st.composite
def model_arrays(draw):
    """Constructor arguments of a small dynamics- or kernel-mode model: a
    valid one, then up to two drawn defects from SPOILERS.  Each state's
    control list is drawn, then the lists are flattened into pair_state and
    pair_control."""
    spoil = set(draw(st.lists(st.sampled_from(SPOILERS), max_size=2)))
    n_states = 0 if "no_states" in spoil else draw(st.integers(1, 3))
    controls = [draw(st.lists(st.tuples(st.floats(-2.0, 2.0)), min_size=1, max_size=3))
                for _ in range(n_states)]
    if n_states:
        i = draw(st.integers(0, n_states - 1))
        for name, bad in (("nan_control", (NAN,)), ("infinite_control", (INF,)),
                          ("ragged_control", (0.0, 1.0))):
            if name in spoil:
                controls[i][0] = bad
        if "empty_control_list" in spoil:
            controls[i] = []
    n_pairs = sum(map(len, controls))
    # |cost| stays far below the float range: k + (T-1) E[v] overflows near it
    pair_cost = draw(st.lists(st.floats(-1e6, 1e6), min_size=n_pairs, max_size=n_pairs))
    if n_pairs and spoil & {"nan_cost", "infinite_cost"}:
        pair_cost[draw(st.integers(0, n_pairs - 1))] = NAN if "nan_cost" in spoil else -INF
    kernel_mode = draw(st.booleans())
    shape = ((n_pairs, n_states) if kernel_mode
             else (1, 0 if "no_noise" in spoil else draw(st.integers(1, 3))))
    law = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1]))).reshape(shape)
    law /= law.sum(axis=1, keepdims=True)
    if law.size:
        row = draw(st.integers(0, shape[0] - 1))
        for name, scale in (("law_sums_to_0.9", 0.9), ("nan_law", NAN),
                            ("infinite_law", INF), ("negative_law", -1.0)):
            if name in spoil:
                law[row] *= scale
    arrays = {"states": [(float(i),) for i in range(n_states)],
              "pair_state": [i for i, cs in enumerate(controls) for _ in cs],
              "pair_control": [u for cs in controls for u in cs], "pair_cost": pair_cost}
    if kernel_mode:
        return {**arrays, "noise": [], "kernel": law}
    images = np.array(draw(st.lists(st.integers(0, max(n_states - 1, 0)),
                                    min_size=n_pairs * shape[1], max_size=n_pairs * shape[1])))
    if images.size and "image_outside" in spoil:
        images[0] = n_states
    return {**arrays, "noise": law[0],
            "next_idx": images.reshape(n_pairs, shape[1])}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(arrays=model_arrays())
def test_constructed_models_are_valid_finite_models(arrays):
    try:
        m = FiniteModel(**arrays)
    except ModelError:
        return
    assert validate(m) == []
    curve, _ = finite_horizon_values(m, 3)
    assert all(np.all(np.isfinite(vf.values)) for vf in curve)
    sums = np.asarray(law_matrix(m).sum(axis=1)).ravel()
    # a dynamics row sums the noise probabilities validate summed, in another order
    tol = max(NOISE_NORMALIZATION_TOL, ROW_SUM_TOL) + 4 * np.finfo(float).eps
    assert np.all(np.abs(sums - 1.0) <= tol)


def test_example1_states_and_cost():
    m = example1_model(0.5)
    assert m.states.tolist() == [[-0.5], [0.5]]
    assert m.initial_index == 1
    # cost k(y,u) = y at both controls
    assert m.pair_state.tolist() == [0, 0, 1, 1]
    assert m.pair_cost.tolist() == [-0.5, -0.5, 0.5, 0.5]

    m1 = example1_model(1.0)
    assert m1.states.tolist() == [[-1.0], [1.0]]

    mneg = example1_model(-0.25)
    assert mneg.initial_index == 0
    assert mneg.states[0].tolist() == [-0.25]


@pytest.mark.parametrize("bad", [1.5, -2.0, 0.0])
def test_example1_rejects_bad_y0(bad):
    with pytest.raises(ModelError):
        example1_model(bad)


@pytest.mark.parametrize("y0", [0.3, 0.5, 1.0, -0.7])
def test_example1_images_stay_in_class(y0):
    m = example1_model(y0)
    tensor = transition(m)
    targets = {(-abs(y0),), (abs(y0),)}
    for p in range(m.n_pairs):
        for a in range(2):
            assert tuple(m.states[int(tensor.next_idx[p, a])]) in targets


def test_example1_family_contains_k_star_class():
    fam = example1_family_model([0.25, 0.5, 1.0])
    vals = sorted(fam.states[:, 0].tolist())
    assert vals == [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0]
    assert validate(fam) == []


def test_example2_m2_controls_at_half():
    m = example2_model(2, control_step=0.25)
    i = m.nearest_state(0.5)
    assert m.pair_control[m.pair_state == i, 0].tolist() == [0.5, 0.75, 1.0]


def test_example2_m8_images():
    m = example2_model(8)
    tensor = transition(m)
    i = m.nearest_state(-0.5)
    p, = np.flatnonzero((m.pair_state == i) & (m.pair_control[:, 0] == -1.0))
    images = {m.states[int(tensor.next_idx[p, a]), 0] for a in range(2)}
    assert images == {-1.0, -0.25}

    j = m.nearest_state(0.5)
    p, = np.flatnonzero((m.pair_state == j) & (m.pair_control[:, 0] == 0.5))
    images = {m.states[int(tensor.next_idx[p, a]), 0] for a in range(2)}
    assert images == {0.5, 0.125}


def test_example2_rejects_small_m():
    with pytest.raises(ModelError):
        example2_model(1)


@pytest.mark.parametrize("control_step", [1e300, 1e308])
def test_example2_controls_stay_in_their_interval(control_step):
    # at 1e300 the absolute -1e-12 in the lowest multiple used to put u = 0
    # into [y, 1] for every y > 0; at 1e308 the multiple check overflowed
    m = example2_model(2, control_step)
    for i, y in enumerate(m.states[:, 0]):
        lo, hi = (y if y > 0 else -1.0), (y if y < 0 else 1.0)
        us = m.pair_control[m.pair_state == i, 0]
        assert all(lo <= u <= hi for u in us) and {lo, hi, y} <= set(us)


@pytest.mark.parametrize("control_step", [1e-300, 5e-324])
def test_example2_refuses_control_step_below_grid_step(control_step):
    # 1e-300 used to pass as a "multiple" (its ratio rounds to 0), overflow
    # the integer counts and put -9.2e-282 into U(0.5)
    with pytest.raises(ModelError, match="not a positive multiple"):
        example2_model(2, control_step)


def test_example2_snapping_total_and_y_admissible():
    m = example2_model(4)
    tensor = transition(m)
    assert tensor.next_idx.min() >= 0 and tensor.next_idx.max() < m.n_states
    for i, y in enumerate(m.states):
        assert (m.pair_control[m.pair_state == i] == y).all(axis=1).any()


def test_example2_snapping_preserves_sign():
    m = example2_model(5)
    tensor = transition(m)
    vals = m.states[:, 0]
    for p in range(m.n_pairs):
        y = vals[int(m.pair_state[p])]
        for a in range(2):
            img = vals[int(tensor.next_idx[p, a])]
            if y > 0:
                assert img > 0
            elif y < 0:
                assert img < 0


@pytest.mark.parametrize("seed", range(6))
def test_rows_nonnegative_and_normalized(seed):
    m = random_model(seed)
    tensor = transition(m)
    law = tensor.rows[tensor.pair_row]
    sums = np.asarray(law.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert law.min() >= 0.0


def test_load_single_state_file(tmp_path):
    doc = {"states": [[0.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 1.0}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 0}],
           "cost": [{"state": 0, "control": 0, "value": 1.0}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert m.n_states == 1 and m.n_pairs == 1


def test_load_example1_roundtrip_matches_builder(tmp_path):
    built = example1_model(0.5)
    path = tmp_path / "ex1.json"
    save_model(built, path)
    loaded = load_model(path)
    assert_same_arrays(loaded, built)
    assert loaded.initial_index == built.initial_index


def test_load_unknown_field_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": [[0.0]], "controls": {"shared": [[0.0]]},
                                "cost": [], "transition": [], "wibble": 1}))
    with pytest.raises(ModelError, match="wibble"):
        load_model(path)


def test_load_transition_mode(tmp_path):
    doc = {"states": [[0.0], [1.0]], "controls": {"shared": [[0.0]]},
           "transition": [[[0.3, 0.7]], [[1.0, 0.0]]],
           "cost": [{"state": 0, "control": 0, "value": 0.5},
                    {"state": 1, "control": 0, "value": -0.5}]}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    tensor = transition(m)
    assert np.allclose(tensor.rows[tensor.pair_row[0]].toarray(), [[0.3, 0.7]])
    assert np.allclose(tensor.push(np.array([1.0, 0.0])), [0.3, 0.7])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_matrix_factored_and_kernel_rows_agree(seed):
    # a randomized plan's law, and the discounted occupation that solves with it
    m = random_model(seed)
    rows = law_matrix(m).toarray()
    kernel = FiniteModel(states=m.states, pair_state=m.pair_state, pair_control=m.pair_control,
                         noise=[], pair_cost=m.pair_cost, kernel=rows)
    plan = random_stationary_plan(m, seed, randomized=True)
    w = plan.pair_weights(m)
    expected = np.zeros((m.n_states, m.n_states))
    np.add.at(expected, m.pair_state, w[:, None] * rows)
    for mdl in (m, kernel):
        assert np.allclose(plan_law(mdl, w).toarray(), expected, rtol=0, atol=1e-15)
    assert np.allclose(discounted_occupation(m, plan, 0, 0.3, 1e-12).weights,
                       discounted_occupation(kernel, plan, 0, 0.3, 1e-12).weights,
                       rtol=0, atol=1e-15)
    values = np.random.default_rng(seed).normal(size=m.n_states)
    dyn, ker = transition(m), transition(kernel)
    assert np.allclose(dyn.expect(values), ker.expect(values), rtol=0, atol=1e-15)
    assert np.allclose(dyn.push(w), ker.push(w), rtol=0, atol=1e-15)
    assert np.allclose(law_matrix(m).toarray(), law_matrix(kernel).toarray(),
                       rtol=0, atol=1e-15)


def test_load_rejects_bad_noise_sum(tmp_path):
    doc = {"states": [[0.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 0.5}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 0}],
           "cost": [{"state": 0, "control": 0, "value": 0.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="noise not normalized"):
        load_model(path)


@pytest.mark.parametrize("form", ["shared", "per_state"])
def test_load_names_a_control_value_of_another_dimension(tmp_path, form):
    # such a file used to be refused with numpy's text on the flattened
    # pair_control array, which named neither the field nor the value
    path = tmp_path / "mixed.json"
    if form == "shared":
        doc = {"states": [[0.0]], "controls": {"shared": [[0.5], [1.0, 2.0]]},
               "transition": [[[1.0], [1.0]]],
               "cost": [{"state": 0, "control": l, "value": 0.0} for l in range(2)]}
        path.write_text(json.dumps(doc))
        want = "field 'controls.shared': entry 1 [1.0, 2.0] has 2 coordinates, entry 0 [0.5] has 1"
    else:
        save_model(example2_model(3), path)
        doc = json.loads(path.read_text())
        entry0 = doc["controls"]["control_values"][0]
        doc["controls"]["control_values"][3] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        want = (f"field 'controls.control_values': entry 3 [1.0, 2.0] has 2 coordinates, "
                f"entry 0 {entry0} has 1")
    with pytest.raises(ModelError, match=re.escape(want)):
        load_model(path)


def test_random_suite_roundtrip(tmp_path):
    m = random_model(3)
    path = tmp_path / "r.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.n_pairs == m.n_pairs
    assert np.allclose(loaded.pair_cost, m.pair_cost)
    assert_same_arrays(loaded, m)


def test_noise_ids_live_only_in_files(tmp_path):
    # ids 7 and 3 name the two atoms; the model keeps their probabilities in
    # file order, and save_model numbers them 0 and 1 in that order
    doc = {"states": [[0.0], [1.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 7, "prob": 0.25}, {"id": 3, "prob": 0.75}],
           "dynamics": [{"state": i, "control": 0, "noise_id": s, "next_state": nxt}
                        for i, images in enumerate(([1, 0], [0, 0]))
                        for s, nxt in zip((7, 3), images)],
           "cost": [{"state": i, "control": 0, "value": 0.5} for i in range(2)]}
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert m.noise.tolist() == [0.25, 0.75]
    assert transition(m).next_idx.tolist() == [[1, 0], [0, 0]]
    saved = tmp_path / "saved.json"
    save_model(m, saved)
    written = json.loads(saved.read_text())
    assert [row["id"] for row in written["noise"]] == [0, 1]
    assert [row["prob"] for row in written["noise"]] == [0.25, 0.75]
    assert {row["noise_id"] for row in written["dynamics"]} == {0, 1}
    assert_same_arrays(load_model(saved), m)


def test_kernel_roundtrip_keeps_rows(tmp_path):
    rows = np.array([[0.2, 0.8, 0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    m = FiniteModel(states=[0.0, 1.0, 2.0], pair_state=[0, 0, 1, 2],
                    pair_control=[0.0, 1.0, 0.0, 1.0],
                    noise=[], pair_cost=[0.1, -0.2, 0.3, 0.4], kernel=rows)
    path = tmp_path / "kernel.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert doc["transition"] == [rows[:2].tolist(), rows[2:3].tolist(), rows[3:].tolist()]
    assert [row["value"] for row in doc["cost"]] == [0.1, -0.2, 0.3, 0.4]
    assert "dynamics" not in doc and "noise" not in doc


BUILDER_CASES = {
    **{f"example2_m{m}_step{m - d}": (example2_model, reference_example2_model,
                                       (m, 2.0 ** -(m - d)))
       for m in range(2, 8) for d in (0, 2)},
    **{f"example1_{y0}": (example1_model, reference_example1_model, (y0,))
       for y0 in (0.5, -0.25, 1.0)},
    "example1_family": (example1_family_model, reference_example1_family_model,
                        ([0.25, 0.5, 1.0],)),
}


@pytest.mark.parametrize("case", sorted(BUILDER_CASES))
def test_builders_match_dict_reference(case):
    build, reference, args = BUILDER_CASES[case]
    built, ref = build(*args), reference(*args)
    assert built.initial_index == ref.initial_index
    assert_same_arrays(built, ref)


def test_example2_matches_the_candidate_union_builder():
    # each state's controls are one clipped range of multiples; the earlier
    # builder sorted the multiples, lo, hi and y together.  Byte-identical
    # pair arrays, law and images at every m = 2..10 with the default step,
    # 2..7 grid steps, 0.25..2 and multiples off by 1e-10 relative
    count = 0
    for m in range(2, 11):
        step = 2.0 ** -m
        steps = {j * step for j in range(2, 8)} | {0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
        for control_step in [None, *sorted(steps - {step}), 3 * step * (1 + 1e-10),
                             3 * step * (1 - 1e-10)]:
            built = example2_model(m, control_step)
            ref, images = candidate_union_example2_model(m, control_step)
            tb, tr = transition(built), transition(ref)
            assert (tb.run_min_at is None) == (tr.run_min_at is None)
            for x, y in [(built.pair_state, ref.pair_state),
                         (built.pair_control, ref.pair_control),
                         (built.pair_cost, ref.pair_cost), (tb.pair_row, tr.pair_row),
                         (tb.rows.data, tr.rows.data), (tb.rows.indices, tr.rows.indices),
                         (tb.rows.indptr, tr.rows.indptr), (tb.next_idx, images.astype(np.int64)),
                         *([] if tb.run_min_at is None else [(tb.run_min_at, tr.run_min_at)])]:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (m, control_step)
            count += 1
    assert count == 126


# sha256 of save_model's file, pinned when the model kept its pairs' images
SAVED_DIGESTS = {
    "example1": "b62e1129ff0368701c59c8d975c189b73be27e7a7148f9598d4275f8979ceaae",
    "example2_m3": "f796763f0c74b5f6cd8237b267847a07b42057eda788096a3e7d308de50f54ff",
    "suite_4": "71e59e422f90b42bfe1d8f10897939279472b13cfee32778e7b84cb6fc677228",
}


@pytest.mark.parametrize("case", sorted(SAVED_DIGESTS))
def test_saved_model_files_are_pinned(tmp_path, case):
    build = {"example1": lambda: example1_model(0.5), "example2_m3": lambda: example2_model(3),
             "suite_4": lambda: random_model(4)}[case]
    path = tmp_path / "model.json"
    save_model(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DIGESTS[case]


# the largest m whose 2^(m+1)+1 states fit np.intp
LAST_M = np.iinfo(np.intp).bits - 3
# per case: builder, arguments and the refusal; each used to build a model
# or to fail with a TypeError, IndexError or numpy's ValueError
BAD_BUILDER_ARGS = {
    "example2_m_62": (example2_model, (62,), rf"m=62 must be an integer from 2 to {LAST_M}, "
                                               r"so that its 2\^\(m\+1\)\+1 states fit"),
    "example2_m_int64_62": (example2_model, (np.int64(62),), "index range"),
    "example2_m_float": (example2_model, (3.0,), "m=3.0 must be an integer from 2"),
    "example2_m_fraction": (example2_model, (2.5,), "m=2.5 must be an integer"),
    "example2_m_string": (example2_model, ("3",), "m='3' must be an integer"),
    "example2_m_bool": (example2_model, (True,), "m=True must be an integer"),
    "example2_m_none": (example2_model, (None,), "m=None must be an integer"),
    "example2_control_step_string": (example2_model, (3, "x"), "control_step='x' is not"),
    "example2_control_step_bool": (example2_model, (3, True), "control_step=True is not"),
    "example1_y0_bool": (example1_model, (True,), "y0=True is not a number"),
    "example1_y0_string": (example1_model, ("x",), "y0='x' is not a number"),
    "example1_y0_none": (example1_model, (None,), "y0=None is not a number"),
    "family_string": (example1_family_model, (["x"],), "magnitude='x' is not"),
    "family_bool": (example1_family_model, ([0.5, True],), "magnitude=True is not"),
    "family_nan": (example1_family_model, ([float("nan")],), r"must lie in \(0, 1\]"),
}


@pytest.mark.parametrize("case", sorted(BAD_BUILDER_ARGS))
def test_builders_refuse_bad_parameters(case):
    build, args, message = BAD_BUILDER_ARGS[case]
    with pytest.raises(ModelError, match=message):
        build(*args)


MODEL_FIELDS = ("states", "controls", "noise", "initial_index", "pair_state",
                "state_pair_start", "pair_cost", "wibble", "pair_control")


@pytest.mark.parametrize("name", MODEL_FIELDS)
def test_model_fields_cannot_be_assigned(name):
    m = example1_model(0.5)
    with pytest.raises(AttributeError):
        setattr(m, name, None)


@pytest.mark.parametrize("part", ["pair_cost", "pair_state",
                                  "state_pair_start", "rows.data", "rows.indices",
                                  "rows.indptr", "pair_row", "row_images", "next_idx",
                                  "states", "pair_control", "noise"])
def test_model_arrays_are_read_only(part):
    m = random_model(0)
    tensor = transition(m)
    name, _, field = part.partition(".")
    array = getattr(tensor if name in ("rows", "pair_row", "row_images", "next_idx") else m,
                    name)
    if field:
        array = getattr(array, field)
    if name == "next_idx":
        # a new array on every read: writing to it leaves the law unchanged
        images, law = array.copy(), law_matrix(m).toarray()
        array[0] = (array[0] + 1) % m.n_states
        assert np.array_equal(tensor.next_idx, images)
        assert np.array_equal(law_matrix(m).toarray(), law)
    else:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
