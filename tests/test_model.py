import json

import numpy as np
import pytest

from occulimits.model import (FiniteModel, ModelError, NoiseAtom, StatePoint,
                              build_transition_tensor, example1_model,
                              example1_family_model, example2_model,
                              load_model, save_model, transition, validate)
from occulimits.suite import random_model, random_stationary_plan

from _oracles import (reference_example1_family_model, reference_example1_model,
                      reference_example2_model)


def assert_same_arrays(a, b):
    """Bit-for-bit equal controls, pair costs, images and CSR transition law."""
    assert a.controls == b.controls
    ta, tb = transition(a), transition(b)
    for x, y in ((a.pair_cost, b.pair_cost), (ta.next_idx, tb.next_idx),
                 (ta.P.indptr, tb.P.indptr), (ta.P.indices, tb.P.indices),
                 (ta.P.data, tb.P.data)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def single_state_model():
    return FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[(0.0,)]],
                       noise=[NoiseAtom(0, 1.0)], pair_cost=[1.0], next_idx=[[0]])


def test_single_state_forced_row():
    tensor = build_transition_tensor(single_state_model())
    assert np.allclose(tensor.row(0), [1.0])


def test_example1_transition_row_matches_dynamics():
    m = example1_model(0.5)
    tensor = build_transition_tensor(m)
    # state +0.5 (index 1), control -1 (local 0): images 0.5*(-1)*s
    p = m.pair_index(1, 0)
    row = tensor.row(p)
    assert row[m.nearest_state(-0.5)] == pytest.approx(0.75, abs=1e-15)
    assert row[m.nearest_state(0.5)] == pytest.approx(0.25, abs=1e-15)


def test_three_state_rows_match_hand_enumeration():
    # 3 states, one control each, 2 atoms (0.6 / 0.4); images fixed by hand
    m = FiniteModel(states=[StatePoint((float(i),), i) for i in range(3)],
                    controls=[[(0.0,)]] * 3,
                    noise=[NoiseAtom(0, 0.6), NoiseAtom(1, 0.4)],
                    pair_cost=[0.0] * 3, next_idx=[[1, 2], [1, 1], [0, 1]])
    tensor = build_transition_tensor(m)
    assert np.allclose(tensor.row(0), [0.0, 0.6, 0.4])
    assert np.allclose(tensor.row(1), [0.0, 1.0, 0.0])
    assert np.allclose(tensor.row(2), [0.6, 0.4, 0.0])


def test_dynamics_out_of_range_names_triple(tmp_path):
    doc = {"states": [[0.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 1.0}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 5}],
           "cost": [{"state": 0, "control": 0, "value": 1.0}]}
    path = tmp_path / "image.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=r"state=0, control=0, noise=0"):
        load_model(path)


def test_constructor_refuses_control_lists_not_one_per_state():
    # one state, two control lists: both law kinds name both counts
    with pytest.raises(ModelError, match="2 control lists for 1 states"):
        FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[(0.0,)], [(1.0,)]],
                    noise=[NoiseAtom(0, 1.0)], pair_cost=[1.0, 2.0], next_idx=[[0], [0]])
    with pytest.raises(ModelError, match="2 control lists for 1 states"):
        FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[(0.0,)], [(1.0,)]],
                    noise=[], pair_cost=[1.0, 2.0], kernel=[[1.0], [1.0]])


TWO_STATES = {"states": [StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
              "controls": [[(0.0,)], [(0.0,)]], "noise": [NoiseAtom(0, 1.0)]}


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
    ({"pair_cost": [1.0, 2.0], "kernel": [[0.0, 1.0]]}, "kernel has shape")],
    ids=["short_pair_cost", "short_next_idx", "wide_next_idx", "fractional_image",
         "negative_image", "image_too_large", "initial_index_outside", "both_laws",
         "no_law", "short_kernel"])
def test_constructor_refuses_unusable_arrays(arrays, problem):
    with pytest.raises(ModelError, match=problem):
        FiniteModel(**TWO_STATES, **arrays)


@pytest.mark.parametrize("controls, problem", [
    ([[(float("nan"),)]] * 2, "not all finite"),
    ([[(float("inf"),)]] * 2, "not all finite"),
    ([[(0.0,)], [(1.0, 2.0)]], "one positive dimension"),
    ([[()], [()]], "one positive dimension")])
def test_validate_flags_bad_control_values(controls, problem):
    m = FiniteModel(states=[StatePoint((0.0,), 0), StatePoint((1.0,), 1)],
                    controls=controls, noise=[NoiseAtom(0, 1.0)],
                    pair_cost=[1.0, 2.0], next_idx=[[1], [0]])
    assert any(problem in v for v in validate(m))


def test_validate_example1_clean():
    assert validate(example1_model(0.5)) == []


def test_validate_flags_unnormalized_noise():
    m = FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[(0.0,)]],
                    noise=[NoiseAtom(0, 0.9)], pair_cost=[1.0], next_idx=[[0]])
    assert any("noise not normalized" in v for v in validate(m))


def test_validate_flags_empty_control_list():
    m = FiniteModel(states=[StatePoint((0.0,), 0)], controls=[[]],
                    noise=[NoiseAtom(0, 1.0)], pair_cost=[],
                    next_idx=np.zeros((0, 1), dtype=np.int64))
    assert any("empty U(y)" in v for v in validate(m))


def test_example1_states_and_cost():
    m = example1_model(0.5)
    assert [s.coords for s in m.states] == [(-0.5,), (0.5,)]
    assert m.initial_index == 1
    # cost k(y,u) = y at both controls
    assert m.pair_cost[m.pair_index(0, 0)] == m.pair_cost[m.pair_index(0, 1)] == -0.5
    assert m.pair_cost[m.pair_index(1, 0)] == m.pair_cost[m.pair_index(1, 1)] == 0.5

    m1 = example1_model(1.0)
    assert [s.coords for s in m1.states] == [(-1.0,), (1.0,)]

    mneg = example1_model(-0.25)
    assert mneg.initial_index == 0
    assert mneg.states[0].coords == (-0.25,)


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
            assert m.states[int(tensor.next_idx[p, a])].coords in targets


def test_example1_family_contains_k_star_class():
    fam = example1_family_model([0.25, 0.5, 1.0])
    vals = sorted(s.coords[0] for s in fam.states)
    assert vals == [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0]
    assert validate(fam) == []


def test_example2_m2_controls_at_half():
    m = example2_model(2, control_step=0.25)
    i = m.nearest_state(0.5)
    assert [u[0] for u in m.controls[i]] == [0.5, 0.75, 1.0]


def test_example2_m8_images():
    m = example2_model(8)
    tensor = transition(m)
    i = m.nearest_state(-0.5)
    local = [u[0] for u in m.controls[i]].index(-1.0)
    p = m.pair_index(i, local)
    images = {m.states[int(tensor.next_idx[p, a])].coords[0] for a in range(2)}
    assert images == {-1.0, -0.25}

    j = m.nearest_state(0.5)
    local = [u[0] for u in m.controls[j]].index(0.5)
    p = m.pair_index(j, local)
    images = {m.states[int(tensor.next_idx[p, a])].coords[0] for a in range(2)}
    assert images == {0.5, 0.125}


def test_example2_rejects_small_m():
    with pytest.raises(ModelError):
        example2_model(1)


def test_example2_snapping_total_and_y_admissible():
    m = example2_model(4)
    tensor = transition(m)
    assert tensor.next_idx.min() >= 0 and tensor.next_idx.max() < m.n_states
    for i, sp in enumerate(m.states):
        assert sp.coords in m.controls[i]


def test_example2_snapping_preserves_sign():
    m = example2_model(5)
    tensor = transition(m)
    vals = m.state_values()
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
    tensor = build_transition_tensor(m)
    sums = np.asarray(tensor.P.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert tensor.P.min() >= 0.0


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
    assert [s.coords for s in loaded.states] == [s.coords for s in built.states]
    assert loaded.controls == built.controls
    assert [(a.id, a.prob) for a in loaded.noise] == [(a.id, a.prob) for a in built.noise]
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
    assert np.allclose(tensor.row(0), [0.3, 0.7])
    assert np.allclose(tensor.push(np.array([1.0, 0.0])), [0.3, 0.7])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_matrix_factored_and_kernel_rows_agree(seed):
    m = random_model(seed)
    rows = np.stack([transition(m).row(p) for p in range(m.n_pairs)])
    kernel = FiniteModel(states=m.states, controls=m.controls, noise=[],
                         pair_cost=m.pair_cost, kernel=rows)
    w = random_stationary_plan(m, seed, randomized=True).pair_weights(m)
    expected = np.zeros((m.n_states, m.n_states))
    np.add.at(expected, m.pair_state, w[:, None] * rows)
    for mdl in (m, kernel):
        assert np.allclose(transition(mdl).plan_matrix(w).toarray(), expected,
                           rtol=0, atol=1e-15)
    values = np.random.default_rng(seed).normal(size=m.n_states)
    dyn, ker = transition(m), transition(kernel)
    assert np.allclose(dyn.expect(values), ker.expect(values), rtol=0, atol=1e-15)
    assert np.allclose(dyn.push(w), ker.push(w), rtol=0, atol=1e-15)
    for p in range(m.n_pairs):
        assert np.allclose(dyn.row(p), ker.row(p), rtol=0, atol=1e-15)


def test_load_rejects_bad_noise_sum(tmp_path):
    doc = {"states": [[0.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 0.5}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 0}],
           "cost": [{"state": 0, "control": 0, "value": 0.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="noise not normalized"):
        load_model(path)


def test_random_suite_roundtrip(tmp_path):
    m = random_model(3)
    path = tmp_path / "r.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.n_pairs == m.n_pairs
    assert np.allclose(loaded.pair_cost, m.pair_cost)
    assert_same_arrays(loaded, m)


def test_kernel_roundtrip_keeps_rows(tmp_path):
    rows = np.array([[0.2, 0.8, 0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])
    m = FiniteModel(states=[StatePoint((float(i),), i) for i in range(3)],
                    controls=[[(0.0,), (1.0,)], [(0.0,)], []], noise=[],
                    pair_cost=[0.1, -0.2, 0.3], kernel=rows)
    path = tmp_path / "kernel.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert doc["transition"] == [rows[:2].tolist(), rows[2:].tolist(), []]
    assert [row["value"] for row in doc["cost"]] == [0.1, -0.2, 0.3]
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
    assert [s.coords for s in built.states] == [s.coords for s in ref.states]
    assert built.initial_index == ref.initial_index
    assert [(a.id, a.prob) for a in built.noise] == [(a.id, a.prob) for a in ref.noise]
    assert_same_arrays(built, ref)


MODEL_FIELDS = ("states", "controls", "noise", "initial_index", "pair_state",
                "pair_local", "state_pair_start", "pair_cost", "wibble")


@pytest.mark.parametrize("name", MODEL_FIELDS)
def test_model_fields_cannot_be_assigned(name):
    m = example1_model(0.5)
    with pytest.raises(AttributeError):
        setattr(m, name, None)


@pytest.mark.parametrize("part", ["pair_cost", "pair_state", "pair_local",
                                  "state_pair_start", "P.data", "P.indices", "P.indptr"])
def test_model_arrays_are_read_only(part):
    m = random_model(0)
    owner, attr = (transition(m).P, part[2:]) if part.startswith("P.") else (m, part)
    with pytest.raises(ValueError, match="read-only"):
        getattr(owner, attr)[0] = 1
