"""Levinson recursion on symmetric Toeplitz covariance matrices.

Produces innovation variances, reflection coefficients and log-determinant
prefix sums; predictors are rebuilt on demand from the reflection
coefficients (O(n) storage).  Two loops update a predictor: the recursion
itself, which finds the reflection coefficients, and `inverse_factor_blocks`,
which rebuilds the predictors from them.  Residuals, quadratic forms and
single predictors are all read off those blocks.
"""

from __future__ import annotations

import numpy as np

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
        # row m of the inverse factor is (-b, 1), the last row of its last block
        for _, blk in self.inverse_factor_blocks(m + 1):
            pass
        return -blk[-1, :m]

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
        """Innovations of each row of x against its own growing past:
        E = X A^T, one GEMM per row block.  A 1-D x is a single row."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or not 1 <= x.shape[-1] <= self.order:
            raise DimensionMismatch(
                f"vector shape {x.shape} incompatible with order {self.order}"
            )
        e = np.empty_like(x)
        for j0, blk in self.inverse_factor_blocks(x.shape[-1]):
            e[..., j0 : j0 + blk.shape[0]] = x[..., : blk.shape[1]] @ blk.T
        return e

    def quadratic_form(self, x) -> float:
        """x^T R_m^{-1} x in O(m^2) via the innovations telescoping."""
        if np.ndim(x) != 1:
            raise DimensionMismatch(f"quadratic form needs a vector, got {np.shape(x)}")
        e = self.residuals(x)
        return float(np.sum(e * e / self.sigma2[: len(e)]))


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
    sigma2 = np.zeros(n)
    k = np.zeros(n - 1)
    a = np.zeros(n - 1)
    sigma2[0] = values[0]
    if values[0] <= floor:
        raise NotPositiveDefinite(0, float(sigma2[0]))
    for m in range(1, n):
        km = (values[m] - np.dot(a[: m - 1], values[m - 1 : 0 : -1])) / sigma2[m - 1]
        if m > 1:
            a[: m - 1] -= km * a[m - 2 :: -1]
        a[m - 1] = km
        k[m - 1] = km
        sigma2[m] = sigma2[m - 1] * (1.0 - km * km)
        if sigma2[m] <= floor:
            raise NotPositiveDefinite(m, float(sigma2[m]))
    return LevinsonFactorization(sigma2, k, values[0], _kahan_log_prefix(sigma2))


def log_det(fact: LevinsonFactorization, m: int) -> float:
    return fact.log_det(m)


def quadratic_form(fact: LevinsonFactorization, x) -> float:
    return fact.quadratic_form(x)


def predictor_coefficients(fact: LevinsonFactorization, m: int) -> np.ndarray:
    return fact.predictor_coefficients(m)
