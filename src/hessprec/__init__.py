"""Low-rank Hessian inference from noisy matrix-vector products, and the
pre-conditioned SGD built on top of it."""

__version__ = "0.1.0"
