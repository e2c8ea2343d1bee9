"""Low-rank Hessian inference from noisy matrix-vector products, and the
pre-conditioned SGD built on top of it."""
import os

# one BLAS thread unless the environment sets it, before numpy loads: OpenBLAS
# sums the set-up moments differently by thread count, and so the CSV bytes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
