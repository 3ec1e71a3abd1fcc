"""Mutation check of the certificate path: each mutant below switches off or
loosens one acceptance condition, and the Tier-1 tests must fail with it.

For every mutant the tool copies the repository to a temporary directory,
replaces the mutant's text (which must occur exactly once in its file) and
runs the Tier-1 tests on the copy with -x.  A mutant is killed when a test
fails, and survives when every test passes.  The unmutated copy runs first
and must pass, else nothing is tried.  Run it by hand from anywhere:

    python tools/mutants.py            # every mutant, under a minute each
    python tools/mutants.py NAME ...   # the named mutants only
    python tools/mutants.py --list

It exits 1 when a mutant survives or no longer applies, 2 on an unknown name
or when the unmutated tests fail, else 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/occulimits, text replaced, replacement)
MUTANTS = [
    ("vT-sandwich-off", "analysis.py",
     "if not (d_star_y0 - slack <= v <= k_star_y0 + slack):", "if False:"),
    ("heps-sandwich-off", "analysis.py",
     "if not (d_star_y0 - slack <= h <= k_star_y0 + slack):", "if False:"),
    ("primal-feasibility-unlimited", "lp_core.py",
     '"primal_feasibility": FEAS_TOL * (1.0 + float(np.max(np.abs(lp.b), initial=0.0))),',
     '"primal_feasibility": np.inf,'),
    ("nonnegativity-unlimited", "lp_core.py",
     '"nonnegativity": NEG_X_TOL,', '"nonnegativity": np.inf,'),
    ("duality-gap-unlimited", "lp_core.py",
     '"duality_gap": GAP_TOL * (1.0 + abs(sol.objective)),', '"duality_gap": np.inf,'),
    ("dual-feasibility-unlimited", "lp_core.py",
     '"dual_feasibility": REDUCED_COST_TOL,', '"dual_feasibility": np.inf,'),
    ("slackness-unlimited", "lp_core.py",
     '"slackness": SLACKNESS_TOL,', '"slackness": np.inf,'),
    ("verify-without-stationarity", "analysis.py",
     "certified=worst1 <= tol and worst2 <= tol,", "certified=worst1 <= tol,"),
    ("strong-duality-always", "analysis.py",
     "strong = abs(gap) <= STRONG_DUALITY_TOL", "strong = True"),
    ("require-certificate-off", "programs.py",
     "if not (v1 <= CERT_TOL and v2 <= CERT_TOL):", "if False:"),
    ("bellman-residual-off", "dp.py",
     "if not residual <= tol * eps:", "if False:"),
    # the range path of the stage minimum reads a suffix run's minimum from
    # the prefix minima
    ("suffix-run-from-prefix-minima", "dp.py",
     "np.minimum.accumulate(w[::-1], out=buf[n_rows:][::-1])",
     "np.minimum.accumulate(w, out=buf[n_rows:])"),
    # the range path's minimum without the state's cost
    ("range-min-without-state-cost", "dp.py",
     "vmin += self._state_cost", "pass"),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", "out")


def run_tier1(copy):
    """(passed, the first failing test id or the output's last line)."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                         cwd=copy, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    lines = run.stdout.splitlines()
    failed = [line.split(" ")[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, (failed or lines[-1:] or [run.stderr.strip()])[0]


def check(mutant, work):
    """Apply one mutant (None: none) to a fresh copy and run Tier-1 on it;
    (verdict, detail)."""
    copy = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copytree(ROOT, copy, ignore=IGNORED, dirs_exist_ok=True)
        if mutant is not None:
            _, name, old, new = mutant
            path = copy / "src" / "occulimits" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return "stale", f"{old!r} occurs {text.count(old)} times in {name}"
            path.write_text(text.replace(old, new), encoding="utf-8")
        passed, detail = run_tier1(copy)
    finally:
        shutil.rmtree(copy)
    return ("survived" if passed else "killed"), detail


def main(argv):
    if argv == ["--list"]:
        for name, path, old, new in MUTANTS:
            print(f"{name}: {path}: {old} -> {new}")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    with tempfile.TemporaryDirectory(prefix="occulimits-mutants-") as work:
        verdict, detail = check(None, work)
        if verdict != "survived":
            print(f"the unmutated tests fail ({detail}); no mutant tried", file=sys.stderr)
            return 2
        verdicts = []
        for mutant in chosen:
            start = time.perf_counter()
            verdict, detail = check(mutant, work)
            verdicts.append(verdict)
            print(f"{verdict:8} {mutant[0]:32} {time.perf_counter() - start:6.1f} s  {detail}",
                  flush=True)
    print(f"{verdicts.count('killed')} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('stale')} stale, of {len(verdicts)}")
    return 0 if verdicts.count("killed") == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
