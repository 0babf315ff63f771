"""Linear-prediction diagnostics.

The finite-past gap delta_n = sigma2_n - sigma2_inf equals the squared
projection distance ||Q X_0 - Q_n X_0||^2 (Pythagoras on the nested
projections), so the summability dichotomy of the strong Szego condition
is read off Levinson output against the log-density Fourier series.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProcess
from .gaussian_model import GaussianProcessModel
from .spectral import NEG_INF


@dataclass
class PredictionDiagnostics:
    model_id: str
    sigma2: np.ndarray  # sigma2_1..sigma2_N
    sigma2_inf: float
    delta: np.ndarray  # delta_n = sigma2_n - sigma2_inf
    gap_partial_sums: np.ndarray  # S_N = sum_{n<=N} delta_n
    strong_szego_partial_sums: np.ndarray  # T_N = sum_{n<=N} n L(n)^2

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,sigma2_n,delta_n,S_N,T_N\n")
        for i in range(len(self.sigma2)):
            buf.write(
                f"{i + 1},{float(self.sigma2[i])!r},{float(self.delta[i])!r},"
                f"{float(self.gap_partial_sums[i])!r},"
                f"{float(self.strong_szego_partial_sums[i])!r}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model_id,
                "sigma2_inf": self.sigma2_inf,
                "S_N": float(self.gap_partial_sums[-1]),
                "T_N": float(self.strong_szego_partial_sums[-1]),
                "N": len(self.sigma2),
            },
            indent=2,
        )


def prediction_gap_series(model: GaussianProcessModel, n_max: int) -> PredictionDiagnostics:
    """delta_n and its partial sums for n = 1..n_max, together with the
    strong-Szego partial sums from the log-density Fourier coefficients."""
    s = model.szego_integral()
    if s == NEG_INF:
        raise DegenerateProcess("int log f = -inf: no finite prediction diagnostics")
    sigma2_inf = math.exp(s)
    fact = model.factorization(n_max + 1)
    sigma2 = fact.sigma2[1 : n_max + 1].copy()
    delta = sigma2 - sigma2_inf
    coeffs = model.density.log_fourier_coeffs(n_max)
    n = np.arange(1, n_max + 1)
    return PredictionDiagnostics(
        model_id=model.describe(),
        sigma2=sigma2,
        sigma2_inf=sigma2_inf,
        delta=delta,
        gap_partial_sums=np.cumsum(delta),
        strong_szego_partial_sums=np.cumsum(n * coeffs**2),
    )
