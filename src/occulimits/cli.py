"""Command-line surface: validate models, run the DP/LP computations, emit
plot-ready CSV or JSON.

Exit codes: 0 success, 2 input error, 3 solver error, 4 sandwich violation,
5 certification failure.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analysis, dp, measures, model as model_mod, programs

FMT = "%.12g"


def _fmt(x):
    return FMT % x


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _add_model_flags(parser):
    parser.add_argument("--model", help="path to a JSON model file")
    parser.add_argument("--builtin", choices=["example1", "example2"],
                        help="builtin model family")
    parser.add_argument("--y0", type=float, default=None,
                        help="initial state (builder parameter for example1)")
    parser.add_argument("--m", type=int, default=8,
                        help="example2 grid exponent (states are multiples of 2^-m)")
    parser.add_argument("--control-step", type=float, default=None,
                        help="example2 control grid step (default: the state grid step)")


def _build_model(args):
    if bool(args.model) == bool(args.builtin):
        raise CliInputError("exactly one of --model or --builtin is required")
    if args.model:
        return model_mod.load_model(args.model)
    if args.builtin == "example1":
        if args.y0 is None:
            raise CliInputError("--builtin example1 needs --y0")
        return model_mod.example1_model(args.y0)
    return model_mod.example2_model(args.m, args.control_step)


def _pick_y0(mdl, args):
    if args.y0 is None:
        if mdl.initial_index is not None:
            return mdl.initial_index
        raise CliInputError("--y0 is required for this model")
    if mdl.initial_index is not None and args.builtin == "example1":
        return mdl.initial_index
    return mdl.nearest_state(args.y0)


def _emit(rows, header, doc, args):
    """Write csv rows or a json document per --format/--output; an --output
    that cannot be opened is an input error."""
    try:
        target = open(args.output, "w", newline="", encoding="utf-8") if args.output \
            else sys.stdout
    except OSError as exc:
        raise CliInputError(f"cannot write --output: {exc}") from exc
    try:
        if args.format == "json":
            target.write(json.dumps(doc, indent=2) + "\n")
            return
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    finally:
        if args.output:
            target.close()


class CliInputError(ValueError):
    pass


def cmd_validate(args):
    try:
        mdl = _build_model(args)
    except (model_mod.ModelError, CliInputError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"valid: {mdl.n_states} states, {mdl.n_pairs} admissible pairs, "
          f"{len(mdl.noise)} noise atoms, |k| <= {_fmt(mdl.cost_bound)}")
    return 0


def cmd_bounds(args):
    mdl = _build_model(args)
    y0 = _pick_y0(mdl, args)
    report = analysis.bounds_report(mdl, y0, args.T, args.eps, user_slack=args.user_slack)
    rows = report.csv_rows()
    header = ["kind", "parameter", "value", "k_star_y0", "d_star_y0", "in_sandwich"]
    _emit(rows, header, report.to_json_dict(), args)
    print(f"k*(y0)={_fmt(report.k_star_y0)} d*(y0)={_fmt(report.d_star_y0)} "
          f"k*={_fmt(report.k_star)} gap={_fmt(report.gap)} "
          f"sandwich_ok={report.sandwich_ok}", file=sys.stderr)
    return 0 if report.sandwich_ok else 4


def cmd_ergodic(args):
    if min(args.T, default=0) < 1:
        raise CliInputError(f"--T needs horizons of at least 1, got {args.T}")
    if args.builtin == "example1" and not args.model:
        mdl = model_mod.example1_family_model(args.y0_grid)
    else:
        mdl = _build_model(args)
    k_star = programs.stationary_lp(mdl).optimal_value
    curve, _ = dp.finite_horizon_values(mdl, max(args.T))
    h_values = [dp.discounted_values(mdl, eps)[0] for eps in args.eps]
    rows = []
    for t in args.T:
        best = float(np.min(curve[t - 1].values))
        rows.append(("vT", t, best, k_star, abs(best - k_star)))
    for eps, h in zip(args.eps, h_values):
        best = float(np.min(h.values))
        rows.append(("heps", eps, best, k_star, abs(best - k_star)))
    doc = {"k_star": k_star,
           "rows": [{"kind": k, "parameter": p, "min_value": v,
                     "k_star": ks, "deviation": d} for k, p, v, ks, d in rows]}
    _emit(rows, ["kind", "parameter", "min_value", "k_star", "deviation"], doc, args)
    return 0


def cmd_policy(args):
    analysis.check_window(args.T0, args.t_max, args.tol)
    measures.check_horizon(args.prg_t_max, 2, "t_max")
    mdl = _build_model(args)
    y0 = _pick_y0(mdl, args)
    aug = programs.augmented_lp(mdl, y0)
    plan = dp.greedy_feedback_from_eta(mdl, aug.dual.eta)
    try:
        verdict = analysis.verify_long_run_optimality(
            mdl, plan, aug.dual, y0, T0=args.T0, t_max=args.t_max, tol=args.tol)
        certified = verdict.certified
        residuals = (verdict.pointwise_residual, verdict.stationarity_residual)
    except analysis.CertificateError as exc:
        certified = False
        residuals = (math.inf, math.inf)
        print(f"certificate invalid: {exc}", file=sys.stderr)
    prg = measures.prg_detect(mdl, plan, y0, t_max=args.prg_t_max)
    print(f"k*(y0)={_fmt(aug.optimal_value)} d*(y0)={_fmt(aug.dual.mu)}")
    print("state -> feedback control")
    chosen = mdl.pair_control[mdl.state_pair_start[:-1] + plan.selector]
    for y, u in zip(mdl.states.tolist(), chosen.tolist()):
        print(f"  ({','.join(map(_fmt, y))}) -> ({','.join(map(_fmt, u))})")
    print(f"certified={certified} residuals=({_fmt(residuals[0])}, {_fmt(residuals[1])})")
    if prg.is_prg:
        print(f"prg=yes T0={prg.T0} period={prg.period}")
    else:
        print("prg=not-detected")
    return 0 if certified else 5


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="occulimits",
        description="LP bounds and DP oracles for Cesaro/Abel limits of "
                    "controlled stochastic recursions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model against its invariants")
    _add_model_flags(p)

    p = sub.add_parser("bounds", help="v_T / h_eps curves against the LP sandwich")
    _add_model_flags(p)
    p.add_argument("--T", type=_int_list, default=[1, 10, 100],
                   help="comma-separated increasing horizons")
    p.add_argument("--eps", type=_float_list, default=[0.5, 0.1, 0.01],
                   help="comma-separated decreasing discount parameters")
    p.add_argument("--user-slack", type=float, default=None)
    p.add_argument("--output"); p.add_argument("--format", choices=["json", "csv"],
                                               default="csv")

    p = sub.add_parser("ergodic", help="min_y v_T and min_y h_eps versus k*")
    _add_model_flags(p)
    p.add_argument("--T", type=_int_list, default=[10, 100, 1000])
    p.add_argument("--eps", type=_float_list, default=[0.5, 0.1, 0.01])
    p.add_argument("--y0-grid", type=_float_list, default=[0.25, 0.5, 0.75, 1.0],
                   help="example1 family magnitudes")
    p.add_argument("--output"); p.add_argument("--format", choices=["json", "csv"],
                                               default="csv")

    p = sub.add_parser("policy", help="extract and certify the feedback plan")
    _add_model_flags(p)
    p.add_argument("--T0", type=int, default=1)
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--prg-t-max", type=int, default=40)

    args = parser.parse_args(argv)
    handlers = {"validate": cmd_validate, "bounds": cmd_bounds,
                "ergodic": cmd_ergodic, "policy": cmd_policy}
    try:
        return handlers[args.command](args)
    except (model_mod.ModelError, CliInputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except programs.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an input too large for this machine, say a large --m
        print(f"input error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
