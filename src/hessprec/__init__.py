"""Low-rank Hessian inference from noisy matrix-vector products, and the
pre-conditioned SGD built on top of it."""

from .inference import (
    IncrementalPosterior,
    MatrixPrior,
    NoiseModel,
    ObservationSet,
    PosteriorMean,
    infer_noise_free,
    infer_noisy,
    load_posterior,
    save_posterior,
)
from .linalg import (
    GeneralizedEigenResult,
    SolveFailure,
    generalized_sym_eig,
    sym_eig,
    thin_svd_product,
    woodbury_solve,
)
from .precond import (
    Preconditioner,
    ScalarStep,
    SpectralApprox,
    apply_p_squared,
    build,
    reduce_rank,
    scalar_step,
)
from .solver import (
    EstimationError,
    HessianOracle,
    PriorEstimates,
    SolverConfig,
    SolverSettings,
    estimate_parameters,
    run_inference,
)

__version__ = "0.1.0"

__all__ = [
    "EstimationError",
    "GeneralizedEigenResult",
    "HessianOracle",
    "IncrementalPosterior",
    "MatrixPrior",
    "NoiseModel",
    "ObservationSet",
    "PosteriorMean",
    "Preconditioner",
    "PriorEstimates",
    "ScalarStep",
    "SolverConfig",
    "SolverSettings",
    "SolveFailure",
    "SpectralApprox",
    "apply_p_squared",
    "build",
    "estimate_parameters",
    "generalized_sym_eig",
    "infer_noise_free",
    "infer_noisy",
    "load_posterior",
    "reduce_rank",
    "run_inference",
    "save_posterior",
    "scalar_step",
    "sym_eig",
    "thin_svd_product",
    "woodbury_solve",
]
