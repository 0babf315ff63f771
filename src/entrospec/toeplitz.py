"""Levinson recursion on symmetric Toeplitz covariance matrices.

Produces innovation variances, reflection coefficients and log-determinant
prefix sums; predictors are rebuilt on demand from the reflection
coefficients (O(n) storage).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NotPositiveDefinite
from .spectral import AutocovarianceSequence

PD_FLOOR_REL = 1e-13
# rows per inverse-factor block: large enough for BLAS-3 efficiency, small
# enough that one block (8 * 128 * n bytes) stays a few MB at n = 4096
_FACTOR_BLOCK = 128


def _kahan_log_prefix(sigma2: np.ndarray) -> np.ndarray:
    """Compensated prefix sums D_m = sum_{j<m} log sigma2_j."""
    logs = np.log(sigma2)
    out = np.empty(len(sigma2) + 1)
    out[0] = 0.0
    total = 0.0
    comp = 0.0
    for j, term in enumerate(logs):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[j + 1] = total
    return out


class LevinsonFactorization:
    """Order-recursive factorization of R_n built from r(0..n-1)."""

    def __init__(self, sigma2, reflections, r0, logdet_prefix):
        self.sigma2 = sigma2
        self.reflections = reflections
        self.r0 = float(r0)
        self._logdet = logdet_prefix

    @property
    def order(self) -> int:
        return len(self.sigma2)

    def log_det(self, m: int) -> float:
        """log det R_m (telescoped product of innovation variances)."""
        if not 0 <= m <= self.order:
            raise DimensionMismatch(f"order {m} outside factorization (n={self.order})")
        return float(self._logdet[m])

    def innovation_std(self, upto: int | None = None) -> np.ndarray:
        upto = self.order if upto is None else upto
        return np.sqrt(self.sigma2[:upto])

    def predictor_coefficients(self, m: int) -> np.ndarray:
        """Backward predictor b with v_m ~ sum_j b_j v_j, residual var sigma2_m."""
        if not 1 <= m <= self.order - 1:
            raise DimensionMismatch(f"predictor order {m} outside 1..{self.order - 1}")
        a = kernels.predictor_from_reflections(self.reflections, m)
        return a[::-1].copy()

    def inverse_factor_blocks(self, n: int):
        """Yield (j0, A[j0:j0+b, :j0+b]) for the unit-lower A with
        A R_n A^T = diag(sigma2_0..sigma2_{n-1}).

        Row j is (-a_j reversed, 1), a_j the order-j forward predictor, so
        (A x)_j is the innovation of x_j against x_0..x_{j-1}.  The
        predictor is grown once per row from the reflection coefficients.
        """
        if not 1 <= n <= self.order:
            raise DimensionMismatch(f"order {n} outside factorization (n={self.order})")
        k = self.reflections
        a = np.zeros(max(n - 1, 0))
        for j0 in range(0, n, _FACTOR_BLOCK):
            j1 = min(j0 + _FACTOR_BLOCK, n)
            blk = np.zeros((j1 - j0, j1))
            for j in range(max(j0, 1), j1):
                kj = k[j - 1]
                if j > 1:
                    a[: j - 1] -= kj * a[j - 2 :: -1]
                a[j - 1] = kj
                np.negative(a[j - 1 :: -1], out=blk[j - j0, :j])
            blk[np.arange(j1 - j0), np.arange(j0, j1)] = 1.0
            yield j0, blk

    def residuals(self, x) -> np.ndarray:
        """Innovations of x against its own growing past."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or len(x) > self.order:
            raise DimensionMismatch(
                f"vector length {x.shape} incompatible with order {self.order}"
            )
        return kernels.residuals(self.reflections, x)

    def quadratic_form(self, x) -> float:
        """x^T R_m^{-1} x in O(m^2) via the innovations telescoping."""
        e = self.residuals(x)
        m = len(e)
        return float(np.sum(e * e / self.sigma2[:m]))


def levinson(r, n: int) -> LevinsonFactorization:
    """Factor R_n from autocovariances; raises NotPositiveDefinite with the
    failing order if an innovation variance falls to the roundoff floor."""
    if isinstance(r, AutocovarianceSequence):
        values = r.values
    else:
        values = np.ascontiguousarray(r, dtype=np.float64)
    if n < 1:
        raise DimensionMismatch("order must be >= 1")
    if len(values) < n:
        raise DimensionMismatch(f"need lags through {n - 1}, have {len(values) - 1}")
    floor = PD_FLOOR_REL * values[0]
    sigma2, k, fail = kernels.levinson_recursion(values, n, floor)
    if fail >= 0:
        raise NotPositiveDefinite(fail, float(sigma2[fail]))
    return LevinsonFactorization(sigma2, k, values[0], _kahan_log_prefix(sigma2))


def log_det(fact: LevinsonFactorization, m: int) -> float:
    return fact.log_det(m)


def quadratic_form(fact: LevinsonFactorization, x) -> float:
    return fact.quadratic_form(x)


def predictor_coefficients(fact: LevinsonFactorization, m: int) -> np.ndarray:
    return fact.predictor_coefficients(m)
