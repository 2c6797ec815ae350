"""robustfit: locally optimized RANSAC with robust subspace refits.

Estimates two-view homographies and fundamental matrices from noisy,
outlier-contaminated correspondences. The local-optimization step refines
every so-far-the-best model by refitting on its threshold inliers with a
pluggable method: plain DLT-SVD, Huber-IRLS, or DPCP-IRLS (robust L1
hyperplane pursuit). Includes a deterministic synthetic-scene generator and
a seeded benchmarking harness.
"""

from .exceptions import (
    DegenerateInputError,
    EstimationFailedError,
    GenerationFailedError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
    RobustFitError,
)
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    angle_between,
    denormalize_model,
    epipolar_embeddings,
    hartley_normalize,
    homographic_embeddings,
    model_residuals,
    normalize_model,
    sampson_distance,
    transfer_error,
)
from .linalg import least_eigvecs, least_singular_vector, solve_cubic_real
from .ransac import (
    ProblemSetup,
    RansacConfig,
    RunReport,
    ScoredModel,
    classify_inliers,
    draw_minimal_sample,
    local_optimize,
    required_iterations,
    run_ransac,
    sample_stream_digest,
    truncated_quadratic_score,
)
from .solvers import dlt_refit, fundamental_7pt, homography_4pt, rank2_project
from .subspace import (
    IrlsConfig,
    dpcp_irls,
    dpcp_irls_basis,
    dpcp_irls_group,
    huber_irls,
    nullspace_weights,
    weighted_principal_subspace,
)
from .synth import SynthConfig, SynthDataset, synth_dataset, synth_fundamental, synth_homography

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "EstimationFailedError",
    "FUNDAMENTAL",
    "GenerationFailedError",
    "HOMOGRAPHY",
    "InsufficientDataError",
    "InvalidInputError",
    "IrlsConfig",
    "ModelMatrix",
    "ParseError",
    "ProblemSetup",
    "RansacConfig",
    "RobustFitError",
    "RunReport",
    "ScoredModel",
    "SynthConfig",
    "SynthDataset",
    "angle_between",
    "classify_inliers",
    "denormalize_model",
    "dlt_refit",
    "dpcp_irls",
    "dpcp_irls_basis",
    "dpcp_irls_group",
    "draw_minimal_sample",
    "epipolar_embeddings",
    "fundamental_7pt",
    "hartley_normalize",
    "homographic_embeddings",
    "homography_4pt",
    "huber_irls",
    "least_eigvecs",
    "least_singular_vector",
    "local_optimize",
    "model_residuals",
    "normalize_model",
    "nullspace_weights",
    "rank2_project",
    "required_iterations",
    "run_ransac",
    "sample_stream_digest",
    "sampson_distance",
    "solve_cubic_real",
    "synth_dataset",
    "synth_fundamental",
    "synth_homography",
    "transfer_error",
    "truncated_quadratic_score",
    "weighted_principal_subspace",
]
