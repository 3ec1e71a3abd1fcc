import copy
import csv
import io
import json

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

from occulimits import model as model_mod, programs
from occulimits.cli import main
from occulimits.model import (NOISE_NORMALIZATION_TOL, ModelError, example1_model,
                              load_model, save_model, transition, validate)
from occulimits.suite import random_model

from _oracles import with_cost


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "example1", "--y0", "0.5")
    assert code == 0
    assert "2 states" in out


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"states": [[0.0]], "mystery": 1}')
    code, _, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "mystery" in err


def test_validate_model_file(tmp_path, capsys):
    path = tmp_path / "ok.json"
    save_model(random_model(2), path)
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 0
    assert "states" in out and "noise" in out


def test_validate_rejects_nan_kernel_row(tmp_path, capsys):
    doc = {"states": [[0.0], [1.0]], "controls": {"shared": [[0.0]]},
           "transition": [[[float("nan"), 1.0]], [[1.0, 0.0]]],
           "cost": [{"state": 0, "control": 0, "value": 0.5},
                    {"state": 1, "control": 0, "value": -0.5}]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="non-finite"):
        load_model(path)
    code, _, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "non-finite" in err


def _two_state_doc(**changes):
    """A valid two-state dynamics model file; a change of None drops the field."""
    doc = {"states": [[0.0], [1.0]], "controls": {"shared": [[0.0]]},
           "noise": [{"id": 0, "prob": 1.0}],
           "dynamics": [{"state": 0, "control": 0, "noise_id": 0, "next_state": 1},
                        {"state": 1, "control": 0, "noise_id": 0, "next_state": 0}],
           "cost": [{"state": 0, "control": 0, "value": 0.5},
                    {"state": 1, "control": 0, "value": -0.5}]}
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


MALFORMED_DOCS = {
    "shared_control_not_a_list": {"controls": {"shared": [1]}},
    "negative_per_state_index": {"controls": {"per_state": [[0], [-1]],
                                              "control_values": [[0.0], [1.0]]}},
    "fractional_next_state": {"dynamics": [
        {"state": 0, "control": 0, "noise_id": 0, "next_state": 0.7},
        {"state": 1, "control": 0, "noise_id": 0, "next_state": 0}]},
    "no_states": {"states": [], "dynamics": [], "cost": []},
    "ragged_state_coords": {"states": [[0.0], [1.0, 2.0]]},
    "dynamics_not_a_list": {"dynamics": 5},
    "next_state_outside_states": {"dynamics": [
        {"state": 0, "control": 0, "noise_id": 0, "next_state": 2},
        {"state": 1, "control": 0, "noise_id": 0, "next_state": 0}]},
    "duplicate_dynamics_row": {"dynamics": [
        {"state": 0, "control": 0, "noise_id": 0, "next_state": 1},
        {"state": 1, "control": 0, "noise_id": 0, "next_state": 0},
        {"state": 0, "control": 0, "noise_id": 0, "next_state": 0}]},
    "dynamics_row_outside_pairs": {"dynamics": [
        {"state": 0, "control": 0, "noise_id": 0, "next_state": 1},
        {"state": 1, "control": 0, "noise_id": 0, "next_state": 0},
        {"state": 7, "control": 0, "noise_id": 0, "next_state": 0}]},
    "duplicate_cost_row": {"cost": [{"state": 0, "control": 0, "value": 0.5},
                                    {"state": 1, "control": 0, "value": -0.5},
                                    {"state": 0, "control": 0, "value": 9.0}]},
    "duplicate_noise_id": {"noise": [{"id": 0, "prob": 0.5}, {"id": 0, "prob": 0.5}]},
    "ragged_transition_rows": {"noise": None, "dynamics": None,
                               "transition": [[[0.5, 0.5]], [[1.0]]]},
    "boolean_cost": {"cost": [{"state": 0, "control": 0, "value": True},
                              {"state": 1, "control": 0, "value": -0.5}]},
    "boolean_noise_prob": {"noise": [{"id": 0, "prob": True}]},
    "float_overflowing_cost": {"cost": [{"state": 0, "control": 0, "value": 10 ** 400},
                                        {"state": 1, "control": 0, "value": -0.5}]},
    "float_overflowing_state": {"states": [[0.0], [-10 ** 400]]},
    "float_overflowing_noise_prob": {"noise": [{"id": 0, "prob": 10 ** 400}]},
    "nan_control": {"controls": {"shared": [[float("nan")]]}},
    "infinite_control": {"controls": {"shared": [[float("inf")]]}},
    "ragged_controls": {"controls": {"shared": [[0.0], [1.0, 2.0]]},
                        "cost": [{"state": i, "control": l, "value": 0.5}
                                 for i in range(2) for l in range(2)],
                        "dynamics": [{"state": i, "control": l, "noise_id": 0, "next_state": 0}
                                     for i in range(2) for l in range(2)]},
}


def _doc_paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _doc_paths(child, prefix + (key,))


FUZZ_BASES = (_two_state_doc(),
              _two_state_doc(noise=None, dynamics=None,
                             transition=[[[0.25, 0.75]], [[1.0, 0.0]]]))
FUZZ_EDITS = st.one_of(*[st.tuples(st.just(base), st.lists(
    st.sampled_from(list(_doc_paths(base))), min_size=1, max_size=3)) for base in FUZZ_BASES])
SCHEMA_KEYS = ("state", "control", "noise_id", "next_state", "value", "id", "prob",
               "shared", "per_state", "control_values")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats() | st.text(max_size=2)
    | st.integers(-2 ** 1100, 2 ** 1100),  # JSON integers may overflow a float
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6)
# most edits keep the document near the schema, so valid models come out too
EDIT_VALUES = st.one_of(st.integers(-1, 3), st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0]),
                        JSON_VALUES)


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=FUZZ_EDITS, data=st.data())
def test_load_model_fuzzed_docs(tmp_path_factory, edits, data):
    base, paths = edits
    doc = base
    for path in paths:
        try:
            doc = _replaced(doc, path, data.draw(EDIT_VALUES))
        except (IndexError, KeyError, TypeError):
            pass  # an earlier edit removed this position
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        m = load_model(path)
    except ModelError:
        return
    assert validate(m) == []
    sums = np.asarray(transition(m).P.sum(axis=1)).ravel()
    # a dynamics row sums the noise probabilities validate summed, in another order
    assert np.all(np.abs(sums - 1.0) <= NOISE_NORMALIZATION_TOL + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_validate_refuses_malformed_model(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc()))
    assert load_model(path).n_states == 2
    path.write_text(json.dumps(_two_state_doc(**MALFORMED_DOCS[case])))
    with pytest.raises(ModelError):
        load_model(path)
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert out == "" and err.startswith("invalid:")


def test_bounds_refuses_model_with_non_finite_controls(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc(controls={"shared": [[float("nan")]]})))
    code, out, err = run(capsys, "bounds", "--model", str(path), "--y0", "0")
    assert code == 2
    assert out == "" and err.startswith("input error:") and "not all finite" in err


@pytest.mark.parametrize("text", [b'{"states": [[\xff]]}',
                                  b'{"states": [[' + b"9" * 5000 + b"]]}"],
                         ids=["not_utf8", "integer_literal_too_long"])
def test_validate_refuses_unreadable_text(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_bytes(text)
    with pytest.raises(ModelError, match="not valid JSON"):
        load_model(path)
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert out == "" and err.startswith("invalid:")


def test_bounds_example1(tmp_path, capsys):
    out_path = tmp_path / "bounds.json"
    code, _, err = run(capsys, "bounds", "--builtin", "example1", "--y0", "0.5",
                       "--T", "1,10,100", "--eps", "0.5,0.1,0.01",
                       "--format", "json", "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["k_star_y0"] == pytest.approx(-0.25, abs=1e-8)
    assert doc["sandwich_ok"] is True
    assert "k*(y0)=-0.25" in err


def test_bounds_csv_shape(capsys):
    code, out, _ = run(capsys, "bounds", "--builtin", "example1", "--y0", "0.5",
                       "--T", "1,10", "--eps", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "parameter", "value", "k_star_y0", "d_star_y0",
                       "in_sandwich"]
    assert len(rows) == 4


def test_ergodic_family_deviations_shrink(capsys):
    code, out, _ = run(capsys, "ergodic", "--builtin", "example1",
                       "--T", "10,100,1000", "--eps", "0.5,0.1,0.01")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    vt = [float(r[4]) for r in rows if r[0] == "vT"]
    he = [float(r[4]) for r in rows if r[0] == "heps"]
    assert vt == sorted(vt, reverse=True)
    assert he == sorted(he, reverse=True)
    assert float(rows[0][3]) == pytest.approx(-0.5, abs=1e-9)


def test_ergodic_constant_cost(tmp_path, capsys):
    m = random_model(3)
    m = with_cost(m, np.full(m.n_pairs, 0.1))
    path = tmp_path / "const.json"
    save_model(m, path)
    code, out, _ = run(capsys, "ergodic", "--model", str(path),
                       "--T", "5,50", "--eps", "0.5,0.1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(float(r[4]) <= 1e-9 for r in rows)


def test_policy_example1_certified(capsys):
    code, out, _ = run(capsys, "policy", "--builtin", "example1", "--y0", "0.5")
    assert code == 0
    assert "certified=True" in out
    assert "prg=yes T0=1 period=1" in out
    assert "(-0.5) -> (1)" in out and "(0.5) -> (-1)" in out


def test_policy_certification_failure_exit_code(capsys):
    # at this coarse grid the greedy plan of the LP dual strays off the
    # certified support from y0 = 0.5
    code, out, _ = run(capsys, "policy", "--builtin", "example2", "--m", "5",
                       "--y0", "0.5")
    assert code == 5
    assert "certified=False" in out


def test_ergodic_random_model_hits_acceptance_thresholds(tmp_path, capsys):
    # 6-state seeded model at the acceptance operating point (T=5000, eps=1e-4)
    path = tmp_path / "six.json"
    save_model(random_model(5), path)
    code, out, _ = run(capsys, "ergodic", "--model", str(path),
                       "--T", "5000", "--eps", "0.0001")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(float(r[4]) <= 5e-3 for r in rows)


def test_ergodic_thread_cap_is_deterministic(capsys, monkeypatch):
    args = ("ergodic", "--builtin", "example1", "--T", "5,50", "--eps", "0.5,0.2")
    monkeypatch.setenv("OCCULIMITS_THREADS", "1")
    _, out1, _ = run(capsys, *args)
    monkeypatch.setenv("OCCULIMITS_THREADS", "4")
    _, out4, _ = run(capsys, *args)
    assert out1 == out4


def test_dense_simplex_failure_exits_as_solver_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        return OptimizeResult(status=1, success=False, x=None,
                              message="HiGHS stopped at its iteration limit")

    monkeypatch.setattr(programs, "linprog", fail)
    code, _, err = run(capsys, "bounds", "--builtin", "example2", "--m", "3",
                       "--y0", "-0.5", "--T", "1,10", "--eps", "0.5")
    assert code == 3
    assert "augmented LP" in err and "iteration limit" in err


SOLVER_FAILURE_ARGV = {
    "ergodic": ("ergodic", "--builtin", "example2", "--m", "3", "--T", "1,10", "--eps", "0.5"),
    "policy": ("policy", "--builtin", "example2", "--m", "3", "--y0", "-0.5"),
}


@pytest.mark.parametrize("command", sorted(SOLVER_FAILURE_ARGV))
def test_solver_failure_exits_3_from_every_command(capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        return OptimizeResult(status=1, success=False, x=None,
                              message="HiGHS stopped at its iteration limit")

    monkeypatch.setattr(programs, "linprog", fail)
    code, out, err = run(capsys, *SOLVER_FAILURE_ARGV[command])
    assert code == 3
    assert out == ""
    assert err.startswith("solver error:") and "iteration limit" in err


def test_bounds_refuses_horizon_below_one(capsys):
    code, out, err = run(capsys, "bounds", "--builtin", "example1", "--y0", "0.5",
                         "--T", "0,5", "--eps", "0.5")
    assert code == 2
    assert out == "" and err.startswith("input error:")


def test_ergodic_refuses_horizon_below_one(capsys):
    code, out, err = run(capsys, "ergodic", "--builtin", "example1",
                         "--T", "0,10", "--eps", "0.5")
    assert code == 2
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("window", [("100", "50"), ("-1", "50")])
def test_policy_refuses_empty_certification_window(capsys, window):
    t0, t_max = window
    code, out, err = run(capsys, "policy", "--builtin", "example2", "--m", "5",
                         "--y0", "0.5", "--T0", t0, "--t-max", t_max)
    assert code == 2
    assert "certified=" not in out
    assert err.startswith("input error:") and "window" in err


def test_policy_checks_window_before_solving(capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("augmented_lp ran before the window check")

    monkeypatch.setattr(programs, "augmented_lp", solve)
    code, out, err = run(capsys, "policy", "--builtin", "example2", "--m", "5",
                         "--y0", "0.5", "--T0", "100", "--t-max", "50")
    assert code == 2
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("flags", [("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1"),
                                   ("--tol", "0"), ("--prg-t-max", "1")],
                         ids=["tol_inf", "tol_nan", "tol_negative", "tol_zero",
                              "prg_t_max_1"])
def test_policy_checks_tolerance_and_prg_horizon_before_solving(capsys, monkeypatch,
                                                                 flags):
    def solve(*args, **kwargs):
        raise AssertionError("augmented_lp ran before the argument checks")

    monkeypatch.setattr(programs, "augmented_lp", solve)
    code, out, err = run(capsys, "policy", "--builtin", "example1", "--y0", "0.5", *flags)
    assert code == 2
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("slack", ["inf", "nan", "-1"])
def test_bounds_refuses_unusable_user_slack(capsys, slack):
    code, out, err = run(capsys, "bounds", "--builtin", "example1", "--y0", "0.5",
                         "--T", "1,10", "--eps", "0.5", "--user-slack", slack)
    assert code == 2
    assert out == "" and err.startswith("input error:") and "user_slack" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--y0", "nan"),
    ("policy", "--y0", "nan"),
    ("bounds", "--y0", "inf"),
    ("bounds", "--y0", "0.5", "--control-step", "inf"),
    ("policy", "--y0", "0.5", "--control-step", "inf"),
], ids=["bounds_y0_nan", "policy_y0_nan", "bounds_y0_inf",
        "bounds_control_step_inf", "policy_control_step_inf"])
def test_builder_refuses_non_finite_input(capsys, argv):
    code, out, err = run(capsys, argv[0], "--builtin", "example2", "--m", "4",
                         *argv[1:])
    assert code == 2
    assert out == "" and err.startswith("input error:")


def test_model_file_builds_transition_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "suite.json"
    save_model(random_model(4), path)
    calls = []
    build = model_mod.build_transition_tensor

    def counted(model):
        calls.append(model)
        return build(model)

    monkeypatch.setattr(model_mod, "build_transition_tensor", counted)
    code, _, _ = run(capsys, "bounds", "--model", str(path), "--y0", "0",
                     "--T", "1,10", "--eps", "0.5")
    assert code == 0
    assert len(calls) == 1


def test_missing_model_flags(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2
    assert "input error" in err
