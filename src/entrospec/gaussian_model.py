"""Stationary Gaussian process models: exact block densities, block
entropies and the spectral entropy-rate formula
Se = (1/2)log(2*pi*e) + (1/2) int log f dlambda  (in nats, -inf allowed).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import toeplitz
from .errors import NumericalError
from .spectral import SpectralDensity

LOG_2PI = math.log(2.0 * math.pi)
HALF_LOG_2PI_E = 0.5 * (LOG_2PI + 1.0)


class GaussianProcessModel:
    """Ties a spectral density to its Toeplitz machinery.

    `autocovariance` alone reads the density: it caches r(0..) to the
    largest lag asked for, checked finite, and reading lags never factors.
    The lags, the Levinson factorization and the dense factors of R_n
    (`cholesky`, `whitening_factor`, per n) are cached read-only.  Each
    factorization request grows the cached one to exactly its n, so each
    order is computed once, and a model asked only for its rate is never
    factored.  Models are immutable to callers and safe to query concurrently.
    """

    def __init__(self, density: SpectralDensity):
        self.density = density
        self._lock = threading.RLock()
        self._acov = np.empty(0)
        self._fact = None
        self._szego = None
        self._chol = {}
        self._whiten = {}
        self.autocovariance(0)

    # -- caches ------------------------------------------------------------

    def autocovariance(self, max_lag: int) -> np.ndarray:
        """r(0..max_lag), a read-only view of the cache, which grows to the
        largest lag asked for; a NumericalError names the first non-finite lag."""
        with self._lock:
            if len(self._acov) <= max_lag:
                with np.errstate(all="ignore"):  # an overflow shows as a non-finite lag
                    acov = self.density.autocovariance(max_lag)
                if not np.isfinite(acov).all():
                    lag = int(np.argmin(np.isfinite(acov)))
                    where = f"autocovariance of {self.describe()}"
                    raise NumericalError(f"{where}: r({lag}) = {acov[lag]}")
                acov.setflags(write=False)
                self._acov = acov
            return self._acov[: max_lag + 1]

    def factorization(self, n: int) -> toeplitz.LevinsonFactorization:
        """R_n's Levinson factorization, grown from the cached order to exactly
        n (at least 1); NotPositiveDefinite names the order where R_n fails."""
        n = max(n, 1)
        with self._lock:
            if self._fact is None or self._fact.order < n:
                grow = toeplitz.levinson if self._fact is None else self._fact.extend
                self._fact = grow(self.autocovariance(n - 1), n)
            return self._fact

    def cholesky(self, n: int) -> np.ndarray:
        """L with R_n = L L^T (LAPACK on the dense R_n), the samplers' factor.
        R_n is factored by Levinson first, so a non-positive-definite R_n
        raises NotPositiveDefinite, naming its order, before LAPACK runs."""
        with self._lock:
            if n not in self._chol:
                self.factorization(n)
                chol = np.linalg.cholesky(toeplitz.toeplitz_matrix(self.autocovariance(n - 1), n))
                chol.setflags(write=False)
                self._chol[n] = chol
            return self._chol[n]

    def whitening_factor(self, n: int) -> np.ndarray:
        """W = diag(sigma2)^{-1/2} A with W R_n W^T = I, for the unit-lower
        inverse Levinson factor A, the evaluators' factor.  Row j of W does
        not depend on n, so W_m is the leading m x m block of W_n."""
        with self._lock:
            if n not in self._whiten:
                fact = self.factorization(n)
                w = np.zeros((n, n))
                for j0, blk in fact.inverse_factor_blocks(n):
                    w[j0 : j0 + blk.shape[0], : blk.shape[1]] = blk
                w /= np.sqrt(fact.sigma2[:n])[:, None]
                w.setflags(write=False)
                self._whiten[n] = w
            return self._whiten[n]

    @property
    def r0(self) -> float:
        return self._acov.item(0)

    def szego_integral(self) -> float:
        with self._lock:
            if self._szego is None:
                self._szego = self.density.szego_integral()
            return self._szego

    def describe(self) -> str:
        return self.density.describe()

    def __repr__(self):
        return f"GaussianProcessModel({self.describe()})"

    # -- exact quantities --------------------------------------------------

    def log_det(self, n: int) -> float:
        return self.factorization(n).log_det(n)

    def log_block_density(self, x) -> float:
        """log rho_n(x) of the exact n-block Gaussian density."""
        x = np.asarray(x, dtype=np.float64)
        n = len(x)
        fact = self.factorization(n)
        return -0.5 * (n * LOG_2PI + fact.log_det(n) + fact.quadratic_form(x))

    def block_entropy(self, n: int) -> float:
        """H_n = (n/2)(log 2pi + 1) + (1/2) log det R_n."""
        return n * HALF_LOG_2PI_E + 0.5 * self.log_det(n)

    def entropy_rate(self) -> float:
        """Se = (1/2)log(2 pi e) + (1/2) int log f; -inf for degenerate f."""
        return HALF_LOG_2PI_E + 0.5 * self.szego_integral()
