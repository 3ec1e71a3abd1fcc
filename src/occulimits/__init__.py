"""LP-based bounds and DP oracles for Cesaro and Abel limits of optimal
values in finite controlled stochastic recursions."""

from .analysis import (BoundsReport, CertificateError, OptimalityVerdict,
                       abel_window, bounds_report, cesaro_window,
                       dual_from_expansion, verify_long_run_optimality)
from .dp import (Plan, ValueFunction, discounted_values, evaluate_plan_average,
                 evaluate_plan_discounted, finite_horizon_values,
                 greedy_feedback_from_eta, value_curve_csv_rows)
from .lp_core import LinearProgram, LpError, LpSolution, dump_lp, solve_lp
from .measures import (PrgReport, canonical_test_family, discounted_occupation,
                       hausdorff, occupation_measure, pair_laws, propagate,
                       prg_detect, rho)
from .model import (FiniteModel, ModelError, TransitionTensor,
                    build_transition_tensor, example1_model,
                    example1_family_model, example2_model, load_model,
                    save_model, transition, validate)
from .programs import (DualCertificate, GMeasure, ProgramResult, SolverError,
                       augmented_lp, discounted_stationary_lp,
                       membership_residuals, stationary_lp)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
