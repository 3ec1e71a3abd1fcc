import contextlib
import copy
import dataclasses
import csv
import io
import json
import re
import warnings

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

from occulimits import dp, model as model_mod, programs
from occulimits.cli import main
from occulimits.dp import Plan
from occulimits.model import (NOISE_NORMALIZATION_TOL, ModelError, example1_model,
                              example2_model, load_model, save_model, transition,
                              validate)
from occulimits.suite import random_model

from _oracles import law_matrix, no_policy_iteration, with_cost


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


# costs +-1e20 on a two-state chain that stays put w.p. 1/4 and moves w.p. 3/4
HIGHS_INFINITE_COST_DOC = {
    "noise": [{"id": 0, "prob": 0.25}, {"id": 1, "prob": 0.75}],
    "dynamics": [{"state": y, "control": 0, "noise_id": s, "next_state": (y + s) % 2}
                 for y in range(2) for s in range(2)],
    "cost": [{"state": 0, "control": 0, "value": 1e20},
             {"state": 1, "control": 0, "value": -1e20}]}


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
    sums = np.asarray(law_matrix(m).sum(axis=1)).ravel()
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


# load_model's refusals, each with the start of its message; a case of
# None reads a file that does not exist
LOAD_REFUSALS = {
    "unreadable_file": (None, "cannot read model file: "),
    "missing_states": ({"states": None}, "missing field 'states'"),
    "missing_controls": ({"controls": None}, "missing field 'controls'"),
    "missing_cost": ({"cost": None}, "missing field 'cost'"),
    "dynamics_and_transition": ({"transition": [[[0.0, 1.0]], [[1.0, 0.0]]]},
                                "exactly one of 'dynamics' or 'transition' is required"),
    "neither_dynamics_nor_transition": ({"dynamics": None},
                                        "exactly one of 'dynamics' or 'transition' is required"),
    "dynamics_without_noise": ({"noise": None},
                               "missing field 'noise' (required with 'dynamics')"),
    "per_state_without_control_values": ({"controls": {"per_state": [[0], [0]]}},
                                         "field 'controls.control_values' required with "
                                         "'per_state'"),
    "per_state_index_out_of_range": ({"controls": {"per_state": [[0], [1]],
                                                   "control_values": [[0.0]]}},
                                     "field 'controls.per_state': index out of range"),
    "per_state_of_wrong_length": ({"controls": {"per_state": [[0]], "control_values": [[0.0]]}},
                                  "field 'controls.per_state' must have one entry per state"),
    "controls_neither_shared_nor_per_state": ({"controls": {}},
                                              "field 'controls' needs either 'shared' or "
                                              "'per_state'"),
    "incomplete_cost_table": ({"cost": [{"state": 0, "control": 0, "value": 0.5}]},
                              "field 'cost': incomplete table (missing [(1, 0)])"),
    "missing_dynamics_row": ({"dynamics": [{"state": 0, "control": 0, "noise_id": 0,
                                            "next_state": 1}]},
                             "dynamics missing for (state=1, control=0, noise=0)"),
    "fractional_initial_state": ({"initial_state": 0.5},
                                 "field 'initial_state': 0.5 is not a non-negative integer "
                                 "index"),
    "initial_state_out_of_range": ({"initial_state": 2},
                                   "field 'initial_state': index 2 out of range"),
}


@pytest.mark.parametrize("case", sorted(LOAD_REFUSALS))
def test_load_model_refusals_name_their_field(tmp_path, capsys, case):
    changes, message = LOAD_REFUSALS[case]
    path = tmp_path / "model.json"
    if changes is not None:
        path.write_text(json.dumps(_two_state_doc(**changes)))
    with pytest.raises(ModelError, match="^" + re.escape(message)):
        load_model(path)
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert out == "" and err.startswith("invalid: " + message)


def test_bounds_starts_from_the_files_initial_state(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc(initial_state=1)))
    code, out, _ = run(capsys, "bounds", "--model", str(path), "--T", "1,10",
                       "--eps", "0.5", "--format", "json")
    assert code == 0 and json.loads(out)["y0"] == 1
    code, out, _ = run(capsys, "bounds", "--model", str(path), "--y0", "0", "--T", "1,10",
                       "--eps", "0.5", "--format", "json")
    assert code == 0 and json.loads(out)["y0"] == 0  # --y0 names the state nearest it
    path.write_text(json.dumps(_two_state_doc()))
    code, out, err = run(capsys, "bounds", "--model", str(path))
    assert code == 2
    assert out == "" and err == "input error: --y0 is required for this model\n"


def test_bounds_refuses_model_with_non_finite_controls(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc(controls={"shared": [[float("nan")]]})))
    code, out, err = run(capsys, "bounds", "--model", str(path), "--y0", "0")
    assert code == 2
    assert out == "" and err.startswith("input error:") and "not all finite" in err


def test_overflowing_values_exit_as_solver_error(tmp_path, capsys):
    # k = 1e308 is a finite cost, but 2 v_2 = k + E[v_1] overflows: bounds
    # used to go on with v_2 = inf and a RuntimeWarning
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc(
        cost=[{"state": i, "control": 0, "value": 1e308} for i in range(2)])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", "--model", str(path), "--y0", "0")
        assert code == 3 and out == ""
        assert err == ("solver error: finite-horizon recursion overflowed: v_2 is not "
                       "finite (costs too close to the float range)\n")
        code, out, err = run(capsys, "ergodic", "--model", str(path))
        assert code == 3 and out == "" and err.startswith("solver error:")


def test_cost_at_highs_infinity_exits_as_solver_error(tmp_path, capsys):
    # HiGHS reads a cost of 1e20 as infinite and used to fail with
    # "HiGHS Status 15: Unknown"; on this stochastic model the construction
    # from policy iteration misses its certificate, so the LP reaches HiGHS
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_two_state_doc(**HIGHS_INFINITE_COST_DOC)))
    code, out, err = run(capsys, "ergodic", "--model", str(path))
    assert code == 3 and out == ""
    assert err.startswith("solver error: stationary LP: a cost of magnitude 1e+20 ")
    assert "infinite_cost" in err


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


def test_policy_certification_failure_exit_code(capsys, monkeypatch):
    # a plan that is not optimal fails certification: criterion 7's flipped
    # plan on example 1 strays off the certified support from y0 = 0.5
    def flipped(model, eta):
        return Plan(kind="stationary_deterministic", selector=np.array([0, 3]))

    monkeypatch.setattr(dp, "greedy_feedback_from_eta", flipped)
    code, out, _ = run(capsys, "policy", "--builtin", "example1", "--y0", "0.5")
    assert code == 5
    assert "certified=False" in out


def test_policy_reports_an_invalid_certificate_and_exits_5(capsys, monkeypatch):
    # cmd_policy's CertificateError arm: a dual whose mu is one too high
    # violates the first certificate family by 1 on every pair
    augmented_lp = programs.augmented_lp

    def shifted_mu(model, y0, theta=None):
        res = augmented_lp(model, y0, theta)
        return dataclasses.replace(res, dual=dataclasses.replace(res.dual, mu=res.dual.mu + 1.0))

    monkeypatch.setattr(programs, "augmented_lp", shifted_mu)
    code, out, err = run(capsys, "policy", "--builtin", "example1", "--y0", "0.5")
    assert code == 5
    assert err == ("certificate invalid: certificate inequalities violated by 1.000e+00 "
                   "(> tol 1e-06)\n")
    assert "certified=False residuals=(inf, inf)" in out


def test_a_highs_answer_that_fails_its_certificate_exits_3(capsys, monkeypatch):
    # programs._solve maps lp_core's LpError, raised when HiGHS's pair fails
    # the optimality certificate, to SolverError naming the LP and its size
    linprog = programs.linprog

    def shifted_x(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.x = res.x + 0.25
        return res

    monkeypatch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
    monkeypatch.setattr(programs, "linprog", shifted_x)
    code, out, err = run(capsys, "policy", "--builtin", "example1", "--y0", "0.5")
    assert code == 3 and out == ""
    assert err.startswith("solver error: augmented LP (y0=1): HiGHS (5x8): "
                          "optimality certificate failed: {'primal_feasibility': ")


def test_a_singular_policy_evaluation_falls_back_to_highs(capsys, monkeypatch):
    # dp._factor turns splu's RuntimeError into SolverError, which fails
    # policy iteration; the measure LPs then take HiGHS's answers, so
    # bounds still answers with the same values, and exit 0, not 3
    argv = ("bounds", "--builtin", "example2", "--m", "3", "--y0", "-0.5", "--format", "json")
    code, out, summary = run(capsys, *argv)
    assert code == 0
    errors, calls = [], []
    policy_iteration, linprog = dp.average_cost_policy_iteration, programs.linprog

    def recorded(model):
        try:
            return policy_iteration(model)
        except programs.SolverError as exc:
            errors.append(str(exc))
            raise

    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(dp, "splu", singular)
    monkeypatch.setattr(dp, "average_cost_policy_iteration", recorded)
    monkeypatch.setattr(programs, "linprog", counted)
    code, fallback, err = run(capsys, *argv)
    assert code == 0 and err == summary and calls
    assert set(errors) == {"policy evaluation: Factor is exactly singular"}
    want, got = json.loads(out), json.loads(fallback)
    assert want.pop("xi_mass") == 1.0 and got.pop("xi_mass") > 1.0  # HiGHS's xi
    assert got == want


def test_policy_example2_coarse_grid_certified(capsys):
    # exited 5 while the dual came from an LP vertex: the greedy plan of that
    # dual strayed off the certified support from y0 = 0.5
    code, out, _ = run(capsys, "policy", "--builtin", "example2", "--m", "5",
                       "--y0", "0.5")
    assert code == 0
    assert "certified=True residuals=(0, 0)" in out


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

    monkeypatch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
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

    monkeypatch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
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


@pytest.mark.parametrize("command", ["bounds", "ergodic"])
def test_eps_too_small_for_a_discount_exits_as_input_error(capsys, command):
    # 1 - 1e-17 rounds to 1: the discounted solve met a singular matrix, leaked
    # scipy's MatrixRankWarning and exited 3 with "Bellman residual nan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--builtin", "example1", "--y0", "0.5",
                             "--eps", "1e-17")
    assert code == 2
    assert out == "" and err.startswith("input error:") and "1e-17" in err


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


@pytest.mark.parametrize("command", ["validate", "bounds"])
def test_grid_exponent_beyond_the_index_range_is_an_input_error(capsys, command):
    # --m 62 asks for 2^63 + 1 states, which used to end in an IndexError traceback
    code, out, err = run(capsys, command, "--builtin", "example2", "--m", "62", "--y0", "0.5")
    prefix = "invalid: " if command == "validate" else "input error: "
    assert (code, out) == (2, "")
    last = np.iinfo(np.intp).bits - 3  # 61 on a 64-bit platform
    assert err.startswith(f"{prefix}grid exponent m=62 must be an integer from 2 to {last}")


def test_model_file_builds_transition_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "suite.json"
    save_model(random_model(4), path)
    calls = []
    build = model_mod.build_transition_tensor

    def counted(model, *args):
        calls.append(model)
        return build(model, *args)

    monkeypatch.setattr(model_mod, "build_transition_tensor", counted)
    code, _, _ = run(capsys, "bounds", "--model", str(path), "--y0", "0",
                     "--T", "1,10", "--eps", "0.5")
    assert code == 0
    assert len(calls) == 1


def test_missing_model_flags(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", ["bounds", "ergodic"])
def test_model_file_and_builtin_together_are_refused(tmp_path, capsys, command):
    # ergodic used to build the example-1 family and ignore the file
    path = tmp_path / "six.json"
    save_model(random_model(5), path)
    code, out, err = run(capsys, command, "--builtin", "example1", "--y0", "0.5",
                         "--model", str(path), "--T", "1,10", "--eps", "0.5")
    assert code == 2
    assert out == "" and err == "input error: exactly one of --model or --builtin is required\n"


@pytest.mark.parametrize("command", ["bounds", "ergodic"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_output_exits_as_input_error(tmp_path, capsys, command, fmt):
    # it used to escape as a FileNotFoundError traceback
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, command, "--builtin", "example1", "--y0", "0.5",
                         "--T", "1,10", "--eps", "0.5", "--format", fmt,
                         "--output", str(target))
    assert code == 2
    assert out == "" and err.startswith("input error: cannot write --output:")
    assert str(target) in err and not target.parent.exists()


def test_ergodic_refuses_empty_y0_grid(capsys):
    # the zero-state family model used to reach HiGHS, which refused its
    # cost vector as "Invalid input for linprog"
    code, out, err = run(capsys, "ergodic", "--builtin", "example1", "--y0-grid=")
    assert code == 2
    assert out == "" and err == "input error: model has no states\n"


def example2_k_star(m, y0):
    """Analytic k*(y0) of example 2 at the state --y0 snaps to: 2^-m on the
    positive orbit, else -(1 + 1/4)/2 (the control -1 at every step)."""
    grid = example2_model(m)
    return 2.0 ** -m if grid.states[grid.nearest_state(y0), 0] > 0 else -0.625


@pytest.mark.parametrize("control_step", ["1e300", "1e308"])
def test_bounds_with_coarse_control_step_reports_analytic_k_star(capsys, control_step):
    # 1e300 used to put u = 0 into every U(y > 0) and report k*(0.5) = -0.625;
    # 1e308 escaped as an OverflowError traceback
    code, _, err = run(capsys, "bounds", "--builtin", "example2", "--m", "2", "--y0", "0.5",
                       "--T", "1,10", "--eps", "0.5", "--control-step", control_step)
    assert code == 0
    assert "k*(y0)=0.25 " in err


def test_bounds_refuses_control_step_below_grid_step(capsys):
    code, out, err = run(capsys, "bounds", "--builtin", "example2", "--m", "2", "--y0", "0.5",
                         "--T", "1,10", "--eps", "0.5", "--control-step", "1e-300")
    assert code == 2
    assert out == "" and err.startswith("input error:") and "positive multiple" in err


NAN, INF = float("nan"), float("inf")
# per flag: a strategy for usable values, and values the CLI must refuse or
# survive (example 1 refuses y0 = 0; a control step of 1e300 keeps only the
# interval endpoints and y)
CLI_FLAGS = {
    "y0": (st.floats(-1.0, 1.0) | st.sampled_from([0.5, 0.25, -0.5]),
           [None, NAN, INF, -INF, 1.5, -1.5, 0.0, 1e300]),
    "control-step": (st.integers(0, 4).map(lambda j: 2.0 ** -j),
                     [0.0, -0.25, 0.3, 1e-300, 5e-324, 1e300, 1e308, NAN, INF]),
    "T": (st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True).map(sorted),
          [None, [], [0], [-1, 5], [5, 5], [10, 5]]),
    "eps": (st.lists(st.floats(1e-4, 0.99), min_size=1, max_size=3, unique=True)
            .map(lambda e: sorted(e, reverse=True)),
            [[], [0.0], [1.0], [NAN], [0.1, 0.5], [1e-7], [1e-300]]),
    "user-slack": (st.floats(0.0, 1.0), [NAN, INF, -1.0]),
    "y0-grid": (st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
                [[], [0.0], [1.5], [NAN], [-0.5, 0.5]]),
    "T0": (st.integers(0, 10), [-2, 70]),
    "t-max": (st.integers(10, 60), [-1, 0, 1]),
    "tol": (st.floats(1e-9, 1e-2), [0.0, -1.0, NAN, INF, 1e-300, 1e300]),
    "prg-t-max": (st.integers(2, 40), [-2, 0, 1]),
}
COMMAND_FLAGS = {"validate": ("y0", "control-step"),
                 "bounds": ("y0", "control-step", "T", "eps", "user-slack"),
                 "ergodic": ("y0", "control-step", "T", "eps", "y0-grid"),
                 "policy": ("y0", "control-step", "T0", "t-max", "tol", "prg-t-max")}


@st.composite
def cli_argv(draw):
    """A validate/bounds/ergodic/policy run on example 1, or on example 2
    with m in 2..4 (larger grids and horizons would cost seconds per run):
    each flag is left out or usable, except up to two drawn from their
    refusal lists.  --y0 and --T are left out only as a refusal (the
    default horizons of ergodic reach 1000)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command, "--builtin", draw(st.sampled_from(["example1", "example2"]))]
    if argv[2] == "example2":
        argv.append(f"--m={draw(st.integers(2, 4))}")
    junk = draw(st.sets(st.sampled_from(COMMAND_FLAGS[command]), max_size=2))
    for name in COMMAND_FLAGS[command]:
        usable, refused = CLI_FLAGS[name]
        if name in junk:
            value = draw(st.sampled_from(refused))
        elif name in ("y0", "T") or draw(st.booleans()):
            value = draw(usable)
        else:
            continue
        if value is None:
            continue
        text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
        argv.append(f"--{name}={text}")
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_cli_exit_code_contract_fuzzed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}, (code, err.getvalue())
    if code == 0 and argv[0] == "bounds" and argv[2] == "example2":
        m = int(argv[3].split("=")[1])
        y0 = float(next(a for a in argv if a.startswith("--y0=")).split("=")[1])
        k_star_y0 = float(re.search(r"k\*\(y0\)=(\S+)", err.getvalue()).group(1))
        assert k_star_y0 == pytest.approx(example2_k_star(m, y0), abs=1e-9)


@pytest.mark.parametrize("message", ["Unable to allocate 64.0 GiB for an array", ""])
def test_out_of_memory_is_an_input_error(monkeypatch, capsys, message):
    # a too-large --m (33 under a 2 GB address-space limit) used to end in a
    # bare MemoryError traceback; the model build stands in for it here
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(model_mod, "example2_model", exhausted)
    want = f"input error: out of memory: {message}\n" if message else "input error: out of memory\n"
    for command in ("validate", "bounds", "ergodic", "policy"):
        code, out, err = run(capsys, command, "--builtin", "example2", "--m", "33", "--y0", "0.5")
        assert (code, out, err) == (2, "", want)
