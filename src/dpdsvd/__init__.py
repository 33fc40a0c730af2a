"""Robust singular value decomposition by minimum density power divergence.

The estimator downweights cells whose residuals are large relative to the
current scale, which keeps singular values and vectors stable under heavy
contamination while staying close to the classical SVD on clean data.
"""
from .bench import BenchResult, run_timing_bench
from .decomposition import (
    RobustSvd, check_equivariance_permutation, check_equivariance_scale,
    fit_rank1, fit_svd, orthogonality_report, reconstruct, sorted_by_lambda)
from .errors import (DegenerateWeights, NonFiniteInput, RankCollapse,
                     RankTooLarge)
from .objective import ObjectiveValue, objective, psi, v_cell
from .rank1 import (Rank1Fit, SolverOptions, sigma_floor, update_sigma2,
                    update_u, update_v)
from .sim import (GroundTruth, MethodResult, SimConfig, SimReport,
                  dissimilarity, format_table, make_ground_truth,
                  orthogonal_poly_contrasts, report_to_csv, run_simulation,
                  sample_noise)

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "DegenerateWeights", "GroundTruth", "MethodResult",
    "NonFiniteInput", "ObjectiveValue", "Rank1Fit", "RankCollapse",
    "RankTooLarge", "RobustSvd", "SimConfig", "SimReport", "SolverOptions",
    "check_equivariance_permutation", "check_equivariance_scale",
    "dissimilarity", "fit_rank1", "fit_svd", "format_table",
    "make_ground_truth", "objective", "orthogonal_poly_contrasts",
    "orthogonality_report", "psi", "reconstruct", "report_to_csv",
    "run_simulation", "run_timing_bench", "sample_noise", "sigma_floor",
    "sorted_by_lambda",
    "update_sigma2", "update_u", "update_v", "v_cell",
]
