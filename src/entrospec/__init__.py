"""Entropy rates, Szego theory and SMB experiments for stationary
Gaussian (and coordinatewise-transformed Gaussian) models."""

from .errors import (
    DimensionMismatch,
    EntrospecError,
    ModelConfigError,
    NonMonotone,
    NotPositiveDefinite,
    NumericalError,
    QuadratureNotConverged,
    RateNotFinite,
    ZeroSymbol,
)
from .field2d import SeparableFieldModel
from .gaussian_model import GaussianProcessModel
from .spectral import (
    AutoRegressive,
    FilterProduct,
    FourierTable,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    Scaled,
    SpectralDensity,
    SpectralGap,
    SumDensity,
    White,
)
from .toeplitz import LevinsonFactorization, levinson

__version__ = "0.1.0"

__all__ = [
    "AutoRegressive",
    "DimensionMismatch",
    "EntrospecError",
    "FilterProduct",
    "FourierTable",
    "GaussianProcessModel",
    "LevinsonFactorization",
    "ModelConfigError",
    "MovingAverage",
    "NonMonotone",
    "NotPositiveDefinite",
    "NumericalError",
    "PoissonKernel",
    "PowerSingular",
    "QuadratureNotConverged",
    "RateNotFinite",
    "Scaled",
    "SeparableFieldModel",
    "SpectralDensity",
    "SpectralGap",
    "SumDensity",
    "White",
    "ZeroSymbol",
    "levinson",
]
