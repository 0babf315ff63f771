"""Levinson recursion on symmetric Toeplitz covariance matrices.

Produces innovation variances, reflection coefficients, log-determinant
prefix sums and the last-order predictor; the lower-order predictors are
rebuilt on demand from the reflection coefficients (O(n) storage).  Two
loops update a predictor: the recursion itself, which finds the reflection
coefficients, and `inverse_factor_blocks`, which rebuilds the predictors
from them.  Residuals and quadratic forms are read off those blocks;
`toeplitz_matrix` builds the dense R_n that LAPACK factors.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

PD_FLOOR_REL = 1e-13
# rows per inverse-factor block: large enough for BLAS-3 efficiency, small
# enough that one block (8 * 64 * n bytes) stays 2 MB at n = 4096
_FACTOR_BLOCK = 64


def _kahan_log_prefix(sigma2: np.ndarray) -> np.ndarray:
    """Compensated prefix sums D_m = sum_{j<m} log sigma2_j."""
    logs = np.log(sigma2)
    out = np.empty(len(sigma2) + 1)
    out[0] = 0.0
    total = 0.0
    comp = 0.0
    # Python floats, read one at a time: numpy scalars cost more per step,
    # and a list of all n terms would raise the peak memory
    for j in range(len(logs)):
        y = logs.item(j) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[j + 1] = total
    return out


class LevinsonFactorization:
    """Order-recursive factorization of R_n built from r(0..n-1).

    `predictor` is the forward predictor phi of the last order, n - 1:
    x_m ~ sum_j phi_j x_{m-j}, with residual variance sigma2[n - 1].
    """

    def __init__(self, sigma2, reflections, r0, logdet_prefix, predictor):
        # models share a factorization among callers, so its arrays are read-only
        for array in (sigma2, reflections, logdet_prefix, predictor):
            array.setflags(write=False)
        self.sigma2 = sigma2
        self.reflections = reflections
        self.r0 = float(r0)
        self._logdet = logdet_prefix
        self.predictor = predictor

    @property
    def order(self) -> int:
        return len(self.sigma2)

    def log_det(self, m: int) -> float:
        """log det R_m (telescoped product of innovation variances)."""
        if not 0 <= m <= self.order:
            raise DimensionMismatch(f"order {m} outside factorization (n={self.order})")
        return float(self._logdet[m])

    def inverse_factor_blocks(self, n: int):
        """Yield (j0, A[j0:j0+b, :j0+b]) for the unit-lower A with
        A R_n A^T = diag(sigma2_0..sigma2_{n-1}).

        Row j is (b_j, 1), b_j = -(a_j reversed) for the order-j forward
        predictor a_j, so (A x)_j is the innovation of x_j against
        x_0..x_{j-1}.  Each row is grown in place from the row above it by
        the reflection coefficient k_j: b_j = (-k_j, b_{j-1} - k_j b_{j-1}
        reversed).  The blocks share one buffer: a block is valid until
        the next one is yielded.
        """
        if not 1 <= n <= self.order:
            raise DimensionMismatch(f"order {n} outside factorization (n={self.order})")
        k = self.reflections
        # a fresh block per step would come from new, zero-filled pages each
        # time; one reused buffer takes those page faults once
        buf = np.empty(min(_FACTOR_BLOCK, n) * n)
        # b_{j0-1}, the last row of the previous block, which the buffer overwrites
        prev = np.empty(max(n - 1, 0))
        for j0 in range(0, n, _FACTOR_BLOCK):
            j1 = min(j0 + _FACTOR_BLOCK, n)
            blk = buf[: (j1 - j0) * j1].reshape(j1 - j0, j1)
            above = prev
            for j in range(j0, j1):
                row = blk[j - j0]
                if j > 0:
                    kj = k.item(j - 1)
                    if j > 1:
                        np.multiply(above[j - 2 :: -1], kj, out=row[1:j])
                        np.subtract(above[: j - 1], row[1:j], out=row[1:j])
                    row[0] = -kj
                row[j] = 1.0
                row[j + 1 :] = 0.0
                above = row
            yield j0, blk
            if j1 < n:
                prev[: j1 - 1] = blk[-1, : j1 - 1]

    def residual_blocks(self, x):
        """Yield (j0, E[..., j0:j0+b]) for the innovations E = X A^T of each
        row of x against its own growing past, one GEMM per factor block.
        A 1-D x is a single row."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or not 1 <= x.shape[-1] <= self.order:
            raise DimensionMismatch(
                f"vector shape {x.shape} incompatible with order {self.order}"
            )
        for j0, blk in self.inverse_factor_blocks(x.shape[-1]):
            yield j0, x[..., : blk.shape[1]] @ blk.T

    def residuals(self, x) -> np.ndarray:
        """All blocks of `residual_blocks` in one array of x's shape."""
        x = np.asarray(x, dtype=np.float64)
        e = np.empty_like(x)
        for j0, eb in self.residual_blocks(x):
            e[..., j0 : j0 + eb.shape[-1]] = eb
        return e

    def quadratic_form(self, x) -> float:
        """x^T R_m^{-1} x in O(m^2) via the innovations telescoping."""
        if np.ndim(x) != 1:
            raise DimensionMismatch(f"quadratic form needs a vector, got {np.shape(x)}")
        e = self.residuals(x)
        return float(np.sum(e * e / self.sigma2[: len(e)]))


def toeplitz_matrix(acov, n: int) -> np.ndarray:
    """The dense n x n symmetric Toeplitz matrix of r(0..n-1)."""
    idx = np.arange(n)
    return acov[np.abs(idx[:, None] - idx[None, :])]


def levinson(r, n: int) -> LevinsonFactorization:
    """Factor R_n from the autocovariances r(0..), any float sequence; raises
    NotPositiveDefinite with the failing order if an innovation variance falls
    to the roundoff floor."""
    values = np.ascontiguousarray(r, dtype=np.float64)
    if n < 1:
        raise DimensionMismatch("order must be >= 1")
    if len(values) < n:
        raise DimensionMismatch(f"need lags through {n - 1}, have {len(values) - 1}")
    floor = PD_FLOOR_REL * values.item(0)
    sigma2 = np.zeros(n)
    k = np.zeros(n - 1)
    a = np.zeros(n - 1)
    tmp = np.empty(n - 1)
    # r(m-1), ..., r(1) is a contiguous slice of the reversed lags
    rev = values[::-1].copy()
    top = len(values)
    s2 = values.item(0)
    sigma2[0] = s2
    if s2 <= floor:
        raise NotPositiveDefinite(0, s2)
    # r(m), k_m and sigma2_m as Python floats, the predictor update into tmp:
    # much of the loop's cost is per-order overhead, which numpy scalars and
    # temporaries would raise.  r(m) is read one at a time, since a list of
    # all n lags would raise the peak memory
    for m in range(1, n):
        km = (values.item(m) - float(np.dot(a[: m - 1], rev[top - m : top - 1]))) / s2
        if m > 1:
            np.multiply(a[m - 2 :: -1], km, out=tmp[: m - 1])
            np.subtract(a[: m - 1], tmp[: m - 1], out=a[: m - 1])
        a[m - 1] = km
        k[m - 1] = km
        s2 = s2 * (1.0 - km * km)
        sigma2[m] = s2
        if s2 <= floor:
            raise NotPositiveDefinite(m, s2)
    return LevinsonFactorization(sigma2, k, values[0], _kahan_log_prefix(sigma2), a)
