"""Separable Z^2 Gaussian fields.

Covariance Cov(x_{s,t}, x_{s',t'}) = r_a(s-s') r_b(t-t'), so the n x n
block covariance is the Kronecker product R_{a,n} (x) R_{b,n} and every
2-D entropy quantity reduces to the two factor models.  A field is those
two 1-D models and nothing more: each holds its own Levinson
factorization, Cholesky factor (which draws fields) and whitening factor
(which scores them), cached under its own lock.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .gaussian_model import HALF_LOG_2PI_E, LOG_2PI, GaussianProcessModel
from .spectral import SpectralDensity


class SeparableFieldModel:
    """Product of a T-direction factor f_a and an S-direction factor f_b."""

    def __init__(self, factor_a: SpectralDensity, factor_b: SpectralDensity):
        self.factor_a = GaussianProcessModel(factor_a)
        self.factor_b = GaussianProcessModel(factor_b)

    @property
    def r0(self) -> float:
        return self.factor_a.r0 * self.factor_b.r0

    def describe(self) -> str:
        return f"separable({self.factor_a.describe()},{self.factor_b.describe()})"

    def cholesky_a(self, n: int) -> np.ndarray:
        return self.factor_a.cholesky(n)

    def cholesky_b(self, n: int) -> np.ndarray:
        return self.factor_b.cholesky(n)

    # -- the questions of a 1-D model, asked of the n x n block -------------

    def log_det(self, n: int) -> float:
        """log det of the n^2 x n^2 Kronecker block covariance."""
        return n * (self.factor_a.log_det(n) + self.factor_b.log_det(n))

    def block_entropy(self, n: int) -> float:
        """H^(2)_n = (n^2/2)(log 2pi + 1) + (1/2) log det."""
        return n * n * HALF_LOG_2PI_E + 0.5 * self.log_det(n)

    def szego_integral(self) -> float:
        """int log(f_a (x) f_b) = int log f_a + int log f_b; -inf if either is."""
        return self.factor_a.szego_integral() + self.factor_b.szego_integral()

    # Se = (1/2) log(2 pi e) + (1/2) szego_integral(), as on Z
    entropy_rate = GaussianProcessModel.entropy_rate

    def kronecker_quadratic_form(self, X, n_grid) -> np.ndarray:
        """(k, len(n_grid)) forms vec(X_m)^T (R_{a,m} (x) R_{b,m})^{-1} vec(X_m)
        of the leading m x m blocks X_m of each field of a (k, n, n) stack,
        for m in n_grid.

        With R^{-1} = W^T W for each factor's whitening factor W the form is
        tr(R_a^{-1} X R_b^{-1} X^T) = sum((W_a X W_b^T)^2).  Row j of W does
        not depend on n, so the leading m x m block of U = W_a X W_b^T is
        W_{a,m} X_m W_{b,m}^T, and one product serves the whole grid.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[-1] != X.shape[-2] or X.shape[-1] < 1:
            raise DimensionMismatch(f"field stack shape {X.shape} is not (k, n, n), n >= 1")
        n = X.shape[-1]
        grid = [int(m) for m in n_grid]
        if not grid or not all(1 <= m <= n for m in grid):
            raise DimensionMismatch(f"n grid {grid} does not fit fields of size {n}")
        u = np.matmul(self.factor_a.whitening_factor(n), X)
        u = np.matmul(u, self.factor_b.whitening_factor(n).T)
        u *= u
        # each block is summed as a contiguous m^2 row, the order in which
        # a field of size m is summed on its own
        return np.stack(
            [np.ascontiguousarray(u[:, :m, :m]).reshape(-1, m * m).sum(axis=1) for m in grid],
            axis=-1,
        )

    def log_block_density_2d(self, X, n_grid) -> np.ndarray:
        """(k, len(n_grid)) log densities of the leading m x m blocks of each
        field of a (k, n, n) stack, as `kronecker_quadratic_form` lays them out."""
        q = self.kronecker_quadratic_form(X, n_grid)
        const = [m * m * LOG_2PI + self.log_det(m) for m in map(int, n_grid)]
        return -0.5 * (np.array(const) + q)
