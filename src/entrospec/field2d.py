"""Separable Z^2 Gaussian fields.

Covariance Cov(x_{s,t}, x_{s',t'}) = r_a(s-s') r_b(t-t'), so the n x n
block covariance is the Kronecker product R_{a,n} (x) R_{b,n} and every
2-D entropy quantity reduces to the two factor factorizations.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DimensionMismatch
from .gaussian_model import HALF_LOG_2PI_E, LOG_2PI, GaussianProcessModel
from .spectral import SpectralDensity


def toeplitz_matrix(acov, n: int) -> np.ndarray:
    idx = np.arange(n)
    return acov[np.abs(idx[:, None] - idx[None, :])]


def _inverse_factor(fact, n: int) -> np.ndarray:
    """Full n x n unit-lower A with A R_n A^T = diag(sigma2)."""
    A = np.zeros((n, n))
    for j0, blk in fact.inverse_factor_blocks(n):
        A[j0 : j0 + blk.shape[0], : blk.shape[1]] = blk
    return A


class SeparableFieldModel:
    """Product of a T-direction factor f_a and an S-direction factor f_b."""

    def __init__(self, factor_a: SpectralDensity, factor_b: SpectralDensity):
        self.factor_a = GaussianProcessModel(factor_a)
        self.factor_b = GaussianProcessModel(factor_b)
        self._lock = threading.RLock()
        self._chol = {}
        self._inverse = {}

    @property
    def r0(self) -> float:
        return self.factor_a.r0 * self.factor_b.r0

    def describe(self) -> str:
        return f"separable({self.factor_a.describe()},{self.factor_b.describe()})"

    def to_config(self) -> dict:
        return {
            "kind": "separable",
            "factor_a": self.factor_a.density.to_config(),
            "factor_b": self.factor_b.density.to_config(),
        }

    def _chol_pair(self, n: int):
        with self._lock:
            if n not in self._chol:
                ra = toeplitz_matrix(self.factor_a.autocovariance(n - 1), n)
                rb = toeplitz_matrix(self.factor_b.autocovariance(n - 1), n)
                self._chol[n] = (np.linalg.cholesky(ra), np.linalg.cholesky(rb))
                # callers get the cached factors themselves
                for factor in self._chol[n]:
                    factor.setflags(write=False)
            return self._chol[n]

    def _inverse_pair(self, n: int):
        """(A_a, A_b, sigma2_a (x) sigma2_b) of the two Levinson factors."""
        with self._lock:
            if n not in self._inverse:
                fa = self.factor_a.factorization(n)
                fb = self.factor_b.factorization(n)
                self._inverse[n] = (
                    _inverse_factor(fa, n),
                    _inverse_factor(fb, n),
                    np.outer(fa.sigma2[:n], fb.sigma2[:n]),
                )
            return self._inverse[n]

    def cholesky_a(self, n: int) -> np.ndarray:
        return self._chol_pair(n)[0]

    def cholesky_b(self, n: int) -> np.ndarray:
        return self._chol_pair(n)[1]

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

    def kronecker_quadratic_form(self, X, n_grid=None):
        """vec(X)^T (R_a (x) R_b)^{-1} vec(X) = tr(R_a^{-1} X R_b^{-1} X^T).

        With R^{-1} = A^T diag(sigma2)^{-1} A for each Levinson factor this is
        sum((A_a X A_b^T)^2 / (sigma2_a (x) sigma2_b)).  An (n, n) X gives a
        float; a stack of k fields, (k, n, n), gives the k forms as an array.

        With an n_grid, the result holds the forms of the leading m x m
        blocks of each field for m in the grid, in a last axis of
        len(n_grid); without one the grid is [n].  Both factors are
        prefix-consistent (row j of A and sigma2_j do not depend on n), so
        the leading m x m block of U = A_a X A_b^T is A_{a,m} X_m A_{b,m}^T
        for the leading block X_m, and one product serves the whole grid.
        """
        X = np.asarray(X, dtype=np.float64)
        n = _field_size(X)
        grid = [n] if n_grid is None else [int(m) for m in n_grid]
        if not all(1 <= m <= n for m in grid):
            raise DimensionMismatch(f"n grid {grid} does not fit fields of size {n}")
        aa, ab, s2 = self._inverse_pair(n)
        u = np.matmul(aa, X)
        u = np.matmul(u, ab.T)
        u *= u
        u /= s2
        # each block is summed as a contiguous m^2 row, the order in which
        # a field of size m is summed on its own
        q = np.stack(
            [np.ascontiguousarray(u[..., :m, :m]).reshape(-1, m * m).sum(axis=1) for m in grid],
            axis=-1,
        )
        if n_grid is None:
            return float(q[0, 0]) if X.ndim == 2 else q[:, 0]
        return q[0] if X.ndim == 2 else q

    def log_block_density_2d(self, X, n_grid=None):
        """log density of a field block, or of each field of a stack; with
        an n_grid, of the leading m x m blocks as `kronecker_quadratic_form`
        lays them out."""
        q = self.kronecker_quadratic_form(X, n_grid)
        grid = [np.shape(X)[-1]] if n_grid is None else [int(m) for m in n_grid]
        const = [m * m * LOG_2PI + self.log_det(m) for m in grid]
        return -0.5 * ((const[0] if n_grid is None else np.array(const)) + q)


def _field_size(X: np.ndarray) -> int:
    """n of an (n, n) field or a (k, n, n) stack; DimensionMismatch otherwise."""
    if X.ndim not in (2, 3) or X.shape[-1] != X.shape[-2] or X.shape[-1] < 1:
        raise DimensionMismatch(f"field shape {X.shape} is not (n, n) or (k, n, n) with n >= 1")
    return X.shape[-1]
