"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.installed()`` replaces module and class attributes of occulimits
(and scipy's ``linprog`` as ``programs`` sees it) with wrappers that record
one span per call: name, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out once, at the end of the run.  The
untraced run never installs a wrapper.

The run is single-threaded, so a span is only ever waiting on its own
children: self time (span time minus its direct children) is the whole
per-layer story, and no wait time is reported.
"""

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np
import scipy.optimize

from occulimits import (analysis, cli, dp, lp_core, measures, model as model_mod,
                        programs)


def _lp_size(fn_name, mdl):
    """(columns, nonzeros) of the LP a programs.* call assembles, computed
    from the model: assembled triplets, before duplicates are summed.  Every
    workload's model has dynamics and noise, so a pair has one transition
    triplet per noise atom."""
    pairs = mdl.n_pairs
    kernel = pairs * len(mdl.noise)
    if fn_name == "stationary_lp":
        return pairs, 2 * pairs + kernel
    if fn_name == "discounted_stationary_lp":
        return pairs, pairs + kernel
    return 2 * pairs, 4 * pairs + 2 * kernel


# (owner, attribute, span name) of every wrapped call site
TARGETS = (
    (cli, "main", "cli.main"),
    (analysis, "bounds_report", "analysis.bounds_report"),
    (model_mod, "example2_model", "model.example2_model"),
    (model_mod, "build_transition_tensor", "model.build_transition_tensor"),
    (model_mod.TransitionTensor, "expect", "model.expect"),
    (model_mod.TransitionTensor, "push", "model.push"),
    (dp, "finite_horizon_values", "dp.finite_horizon_values"),
    (dp, "discounted_values", "dp.discounted_values"),
    (programs, "stationary_lp", "programs.stationary_lp"),
    (programs, "discounted_stationary_lp", "programs.discounted_stationary_lp"),
    (programs, "augmented_lp", "programs.augmented_lp"),
    (programs.DualCertificate, "violations", "programs.violations"),
    (programs, "membership_residuals", "programs.membership_residuals"),
    (lp_core, "solve_lp", "lp_core.solve_lp"),
    (programs, "linprog", "highs.linprog"),
    (measures, "discounted_occupation", "measures.discounted_occupation"),
)
SPANS = tuple(span for _, _, span in TARGETS)


def is_clean():
    """True when no attribute of the library carries a benchmark wrapper."""
    return (programs.linprog is scipy.optimize.linprog
            and not any(hasattr(owner.__dict__[attr], "__wrapped__")
                        for owner, attr, _ in TARGETS))


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.op_id = -1
        self.nit = 0
        self.lp_cols = 0
        self.lp_nnz = 0
        self._stack = []

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, span in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, span, fn):
        span_id = SPANS.index(span)
        fn_name = span.split(".", 1)[1]
        on_lp_build = span.startswith("programs.") and fn_name.endswith("_lp")
        on_highs = span == "highs.linprog"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_lp_build:
                cols, nnz = _lp_size(fn_name, args[0])
                self.lp_cols += cols
                self.lp_nnz += nnz
            idx = len(self.name)
            self.name.append(span_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_highs:
                self.nit += int(result.nit)
            return result
        return traced

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "failed": np.frombuffer(self.failed, dtype=np.int8).copy()}

    def save(self, path):
        np.savez_compressed(path, names=np.array(SPANS), **self.arrays())

    def inclusive_s(self, n_ops):
        """Per-op mean of each span's whole duration, children included.
        No wrapped function calls itself, so spans of one name never nest."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        totals = np.bincount(a["name"], weights=dur, minlength=len(SPANS))
        return {span: float(totals[i]) / max(n_ops, 1) for i, span in enumerate(SPANS)}

    def layer_metrics(self, n_ops):
        """Per-op means of every span's calls, self time and failures, plus
        the work counts.  ``trace_overhead`` is filled in by the caller."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(inner, name[np.where(inner, parent, 0)], -1)
        n_ops = max(n_ops, 1)

        def calls(span, under=None):
            hit = name == SPANS.index(span)
            if under is not None:
                hit &= parent_name == SPANS.index(under)
            return int(np.count_nonzero(hit))

        out = {}
        for i, span in enumerate(SPANS):
            hit = name == i
            out[f"{span}.calls"] = np.count_nonzero(hit) / n_ops
            out[f"{span}.self_s"] = float(self_time[hit].sum()) / n_ops
            out[f"{span}.fail"] = int(a["failed"][hit].sum()) / n_ops
        vi_done = int(np.count_nonzero((name == SPANS.index("dp.discounted_values"))
                                       & (a["failed"] == 0)))
        dense = calls("lp_core.solve_lp")
        solves = dense + calls("highs.linprog")
        out["dp.finite_horizon_values.stages"] = calls(
            "model.expect", "dp.finite_horizon_values") / n_ops
        # one expect per VI sweep, plus one for the greedy plan at the end
        out["dp.discounted_values.sweeps"] = (
            calls("model.expect", "dp.discounted_values") - vi_done) / n_ops
        out["measures.discounted_occupation.steps"] = calls(
            "model.push", "measures.discounted_occupation") / n_ops
        out["highs.linprog.nit"] = self.nit / n_ops
        out["programs.dense_share"] = dense / solves if solves else 0.0
        out["programs.lp_cols"] = self.lp_cols / n_ops
        out["programs.lp_nnz"] = self.lp_nnz / n_ops
        return out
