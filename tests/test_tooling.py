"""Checks on what other code relies on by name or by seed.

The benchmark harness (perfbench/) wraps library attributes by name, and
pytest.ini collects only tests/, so a rename that drops one of those names
must fail here rather than only in a traced benchmark run.  Tests and notes
name seeded suite models by their seed, so the suite's models are pinned by
digest."""

import ast
import hashlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy import sparse

import occulimits
from occulimits import cli, dp, model as model_mod, programs
from occulimits.model import FiniteModel, example2_model, transition
from occulimits.suite import random_model

from _oracles import no_policy_iteration

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(occulimits.__file__).resolve().parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _load_tracing()
    missing = [span for owner, attr, span in tracing.TARGETS if attr not in vars(owner)]
    assert missing == [], f"perfbench/tracing.py wraps names the library lacks: {missing}"
    assert tracing.is_clean()


def _library_reads(path):
    """Every dotted name, such as model_mod.TransitionTensor.push, that the
    file at path reads off a module it imports from occulimits."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "occulimits":
            modules.update({a.asname or a.name: "occulimits." + a.name for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "occulimits"})
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add((modules[node.id], node.id, tuple(chain)))
    return reads


def _exists(module, chain):
    owner = importlib.import_module(module)
    for attr in chain:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_every_benchmark_call_site_exists():
    # the benchmark's workloads call the library by name as well
    reads = set().union(*(_library_reads(TRACING.parent / name)
                          for name in ("workloads.py", "run.py", "tracing.py")))
    names = {".".join((alias, *chain)) for _, alias, chain in reads}
    assert {"model_mod.transition", "dp.discounted_values", "measures.discounted_occupation",
            "programs.membership_residuals", "suite.random_model", "cli.main"} <= names
    missing = sorted(".".join((alias, *chain)) for module, alias, chain in reads
                     if not _exists(module, chain))
    assert missing == [], f"perfbench reads names the library lacks: {missing}"


def test_no_module_reads_a_full_law_matrix():
    # the law is held once, as its distinct rows and the row of every pair
    reads = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "P"]
    assert reads == []


def _plan_law_reads(path):
    """file:line of every rows[...] index outside TransitionTensor, every
    scipy identity matrix and every np.bincount over pair_state in the
    module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tensor = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "TransitionTensor"
              for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "rows" and id(node) not in tensor:
            found.append(node)
        elif isinstance(node, ast.Attribute) and node.attr in ("identity", "eye") \
                and ast.unparse(node.value) == "sparse":
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.sparse") \
                and any(alias.name in ("identity", "eye") for alias in node.names):
            found.append(node)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "np.bincount" \
                and "pair_state" in ast.unparse(node.args[0]):
            found.append(node)
    return [f"{path.name}:{node.lineno}" for node in found]


def test_a_plan_law_is_read_by_the_tensor():
    # P_pi, and the whole law, are read from rows' arrays by
    # TransitionTensor.law_at, I - decay P_pi is assembled by eye_minus with
    # no identity matrix, and per-state sums are FiniteModel.state_sums
    reads = [read for path in sorted(PACKAGE.glob("*.py")) for read in _plan_law_reads(path)]
    assert reads == []
    # the check sees what it looks for
    assert len(_plan_law_reads(Path(__file__).parent / "_oracles.py")) >= 3


def _first_pairs_sums(tree):
    """Line numbers of every sum with X.state_pair_start[:-1], each state's
    first pair, as an operand, itself or through a name bound to it."""
    def first_pairs(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "state_pair_start" and ast.unparse(node.slice) == ":-1")

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and first_pairs(v)}

    def named(node):
        return first_pairs(node) or isinstance(node, ast.Name) and node.id in aliases

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and (named(node.left) or named(node.right))
            or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and named(node.value)]


def test_a_control_is_named_by_its_pair_index():
    # plans hold the pair index of each state's control, so no module turns
    # a local control index into a pair by adding its state's first pair,
    # and no code names the local-to-pair helper, now gone
    sums = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in _first_pairs_sums(ast.parse(path.read_text(encoding="utf-8")))]
    assert sums == []
    helper = re.compile(r"\bpair_" + r"index\b")  # split, so that this file does not name it
    files = sorted([*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")])
    named = [path.name for path in files if helper.search(path.read_text(encoding="utf-8"))]
    assert named == []
    assert not hasattr(FiniteModel, "pair_" + "index")


def _dtype_kind_reads(node):
    """Line numbers of every X.dtype.kind read under node."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "kind"
            and isinstance(n.value, ast.Attribute) and n.value.attr == "dtype"]


def test_one_function_checks_an_array_arguments_dtype():
    # every array argument passes model.numeric_array, so no other code reads
    # a dtype's kind; the one exception is the integer-only test of a
    # deterministic or staged selector in Plan.check_against
    allowed = {("model.py", "numeric_array"), ("dp.py", "check_against")}
    reads, inside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{line}" for line in _dtype_kind_reads(tree)]
        inside += [f"{path.name}:{line}" for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed
                   for line in _dtype_kind_reads(func)]
    assert reads == inside and len(inside) == len(allowed)


def _held_arrays(obj):
    """Every array an object holds as an attribute, by name, with the
    compressed arrays of every sparse matrix among them."""
    held = {}
    for name, value in vars(obj).items():
        if sparse.issparse(value):
            held.update({f"{name}.{part}": getattr(value, part)
                         for part in ("data", "indices", "indptr")})
        elif isinstance(value, np.ndarray):
            held[name] = value
    return held


def test_a_model_keeps_no_per_pair_image_table():
    # the model keeps neither of its law's constructor inputs, and its tensor
    # holds the images once per distinct row, so the per-pair arrays are
    # pair_state, pair_control, pair_cost and pair_row, 8 bytes each
    m = example2_model(8)
    assert not hasattr(m, "_next_idx") and not hasattr(m, "_kernel")
    held = {**_held_arrays(m),
            **{f"tensor.{name}": a for name, a in _held_arrays(transition(m)).items()}}
    assert [name for name, a in held.items() if a.shape == (m.n_pairs, len(m.noise))] == []
    per_pair = {name: a.nbytes for name, a in held.items() if a.shape[:1] == (m.n_pairs,)}
    assert sorted(per_pair) == ["pair_control", "pair_cost", "pair_state", "tensor.pair_row"]
    assert sum(per_pair.values()) == 32 * m.n_pairs


def test_lp_size_reads_the_model():
    # perfbench sizes each traced LP from n_pairs and len(model.noise)
    tracing = _load_tracing()
    m = example2_model(3)
    assert len(m.noise) == 2
    assert tracing._lp_size("augmented_lp", m) == (2 * m.n_pairs,
                                                   4 * m.n_pairs + 2 * 2 * m.n_pairs)
    kernel = FiniteModel(states=[0.0], pair_state=[0], pair_control=[0.0],
                         noise=[], pair_cost=[1.0], kernel=[[1.0]])
    assert len(kernel.noise) == 0


def test_every_measure_lp_calls_programs_linprog(monkeypatch):
    # perfbench wraps programs.linprog as its HiGHS span and the CLI tests
    # patch it, so every HiGHS solve of a measure LP must go through that
    # name: none when the solution is constructed from policy iteration, one
    # for the discounted LP, for a theta and for a forced fallback
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(programs, "linprog", counted)
    solves = {"stationary_lp": lambda m: programs.stationary_lp(m),
              "discounted_stationary_lp": lambda m: programs.discounted_stationary_lp(m, 0.1, 0),
              "augmented_lp": lambda m: programs.augmented_lp(m, 0),
              "augmented_lp_theta": lambda m: programs.augmented_lp(
                  m, 0, theta=np.zeros(m.n_pairs))}

    def counts(m):
        out = {}
        for name, solve in solves.items():
            calls.clear()
            solve(m)
            out[name] = len(calls)
        return out

    assert counts(random_model(3)) == {"stationary_lp": 0, "discounted_stationary_lp": 1,
                                       "augmented_lp": 0, "augmented_lp_theta": 1}
    # policy iteration runs once per model, so the forced fallback needs a new one
    monkeypatch.setattr(dp, "average_cost_policy_iteration", no_policy_iteration)
    assert counts(random_model(3)) == dict.fromkeys(solves, 1)


def test_one_function_of_programs_calls_linprog():
    # every measure LP reaches HiGHS through programs._solve, the one place
    # that refuses an infinite cost and certifies the HiGHS pair
    tree = ast.parse((PACKAGE / "programs.py").read_text(encoding="utf-8"))
    callers = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "linprog"]
    assert callers == ["_solve"]


def test_only_the_measure_operator_pushes_in_programs():
    # the balance rows of W, W(eps, y0) and Omega(y0) are written once, in
    # _MeasureOperator; membership_residuals reads them through _constraints
    tree = ast.parse((PACKAGE / "programs.py").read_text(encoding="utf-8"))
    pushers = {top.name for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "push"}
    assert pushers == {"_MeasureOperator"}


def test_bounds_at_m7_makes_no_lp_call(tmp_path, monkeypatch):
    # the README's heaviest command answers both LPs by construction; a
    # regression to HiGHS on this path shows up here as a linprog call
    calls = []
    linprog = programs.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(programs, "linprog", counted)
    out = tmp_path / "bounds.json"
    code = cli.main(["bounds", "--builtin", "example2", "--m", "7", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(out)])
    assert code == 0 and calls == []


def test_bounds_at_m7_assembles_no_lp_matrix(tmp_path, monkeypatch):
    # both constructed pairs are certified on the matrix-free operator
    def refused(*args, **kwargs):
        raise AssertionError("_lp_matrix called on the bounds path")

    monkeypatch.setattr(programs, "_lp_matrix", refused)
    out = tmp_path / "bounds.json"
    code = cli.main(["bounds", "--builtin", "example2", "--m", "7", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(out)])
    assert code == 0


def test_bounds_at_m7_builds_no_dia_matrix_and_transposes_once_per_model(tmp_path, monkeypatch):
    # ClosedClasses assembles its matrices from P_pi's entries, without
    # scipy's identity or diags, and push reads the transpose of the law's
    # rows that the tensor builds once with its model
    counts = {"dia": 0, "transpose": 0, "models": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for dia in (sparse.dia_matrix, sparse.dia_array):
        monkeypatch.setattr(dia, "__init__", counted("dia", dia.__init__))
    monkeypatch.setattr(sparse.csr_matrix, "transpose",
                        counted("transpose", sparse.csr_matrix.transpose))
    monkeypatch.setattr(model_mod, "build_transition_tensor",
                        counted("models", model_mod.build_transition_tensor))
    code = cli.main(["bounds", "--builtin", "example2", "--m", "7", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(tmp_path / "bounds.json")])
    assert code == 0 and counts["models"] >= 1
    assert counts["dia"] == 0 and counts["transpose"] <= counts["models"]


def test_bounds_solves_policy_iteration_once(tmp_path, monkeypatch):
    # bounds needs k*(y0) and k*; both LPs are built from one solve
    calls = []
    solve = dp.average_cost_policy_iteration

    def counted(model):
        calls.append(1)
        return solve(model)

    monkeypatch.setattr(dp, "average_cost_policy_iteration", counted)
    code = cli.main(["bounds", "--builtin", "example2", "--m", "5", "--y0", "0.3",
                     "--T", "1,16,128", "--eps", "0.5,0.1", "--format", "json",
                     "--output", str(tmp_path / "bounds.json")])
    assert code == 0 and len(calls) == 1


def test_no_function_imports_from_the_package():
    # an import inside a function hides a module cycle until the function
    # first runs; every intra-package import belongs at module level
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["occulimits"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "occulimits" for name in names):
                    inside.append(f"{path.stem}.{func.name}")
    assert inside == []


# imports one module of the package first: the package's __init__, which
# would import its own choice of modules first, is replaced by a bare package
IMPORT_FIRST = """import importlib, sys, types
package = types.ModuleType("occulimits")
package.__path__ = [sys.argv[1]]
sys.modules["occulimits"] = package
importlib.import_module("occulimits." + sys.argv[2])"""


def _import_first(path):
    if path.stem == "__init__":
        argv = ["-c", "import occulimits"]
    else:
        argv = ["-c", IMPORT_FIRST, str(PACKAGE), path.stem]
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    return path.stem, run.returncode, run.stderr.strip().splitlines()[-1:]


def test_every_module_imports_first():
    # a module cycle fails only for the module a fresh interpreter imports
    # first, so each module is imported first in an interpreter of its own
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(_import_first, sorted(PACKAGE.glob("*.py"))))
    assert len(runs) > 1
    assert [(name, err) for name, code, err in runs if code != 0] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(heading):
    """The README's text under a '## ' heading, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_start_runs():
    # run as written in a fresh interpreter, so a name the library renames
    # or retires fails here rather than in a reader's hands
    block = re.search(r"```python\n(.*?)```", _readme_section("## Library quick start"), re.S)
    run = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    assert run.returncode == 0, run.stderr


def test_readme_model_attributes_exist():
    # the arrays the occulimits.model paragraph lists (its parenthesized
    # remarks dropped) and every model.<name> it names
    para = _readme_section("## Modules").split("- `occulimits.model`", 1)[1]
    para = " ".join(para.split("\n- `occulimits.", 1)[0].split())
    listed = para.split("held as read-only", 1)[1].split("plus the transition law", 1)[0]
    names = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", listed)))
    names |= set(re.findall(r"`model\.(\w+)", para))
    model = example2_model(2)
    assert len(names) >= 7
    assert [name for name in sorted(names) if not hasattr(model, name)] == []


def test_readme_quotes_the_model_constructor_signature():
    # the first FiniteModel(...) the occulimits.model paragraph quotes is
    # the constructor's signature, parameter for parameter
    para = _readme_section("## Modules").split("- `occulimits.model`", 1)[1]
    quoted = re.search(r"`FiniteModel(\([^`]*\))`", para).group(1)
    assert " ".join(quoted.split()) == str(inspect.signature(FiniteModel))


# sha256 of the arrays below over suite seeds 0..1999
SUITE_DIGEST = "b52f1cadc352239db855ad287a536c76ad8eab8cb7bda9be7d46f352e4b0eed3"


def test_suite_models_are_pinned():
    digest = hashlib.sha256()
    for seed in range(2000):
        m = random_model(seed)
        tensor = transition(m)
        law = tensor.rows[tensor.pair_row]
        for part in (m.pair_cost, tensor.next_idx, law.indptr, law.indices,
                     law.data, m.states, m.state_pair_start, m.pair_control, m.noise):
            digest.update(part.dtype.str.encode())
            digest.update(part.tobytes())
    assert digest.hexdigest() == SUITE_DIGEST


FAILING_GIVEN = """\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning, which
    # pytest.ini's "error" filter would turn into an INTERNALERROR that
    # stops the run before the tests after the failing one
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    ini = Path(__file__).resolve().parents[1] / "pytest.ini"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ini), "--rootdir", str(tmp_path), "test_given.py"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
