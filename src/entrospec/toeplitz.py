"""Levinson recursion on symmetric Toeplitz covariance matrices.

Produces innovation variances, reflection coefficients, log-determinant
prefix sums and the last-order predictor; the lower-order predictors are
rebuilt on demand from the reflection coefficients (O(n) storage).  One
reflection step updates every predictor, in the recursion, which finds the
reflection coefficients, and in `inverse_factor_blocks`, which rebuilds the
predictors from them.  Residuals and quadratic forms are read off those
blocks; `toeplitz_matrix` builds the dense R_n that LAPACK factors.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

PD_FLOOR_REL = 1e-13
# rows per inverse-factor block: large enough for BLAS-3 efficiency, small
# enough that one block (8 * 64 * n bytes) stays 2 MB at n = 4096
_FACTOR_BLOCK = 64


def _reflect(prev, k, out):
    """out = prev - k * reversed(prev), the one predictor update, rounded after
    the product and after the difference (never fused); out must not overlap prev."""
    np.multiply(prev[::-1], k, out=out)
    np.subtract(prev, out, out=out)


class LevinsonFactorization:
    """Order-recursive factorization of R_n built from r(0..n-1).

    `predictor` is the forward predictor phi of the last order, n - 1:
    x_m ~ sum_j phi_j x_{m-j}, with residual variance sigma2[n - 1].
    `log_comp` is the Kahan compensation of the last log-det prefix sum.
    """

    def __init__(self, sigma2, reflections, r0, logdet_prefix, predictor, log_comp):
        # models share a factorization among callers, so its arrays are read-only
        for array in (sigma2, reflections, logdet_prefix, predictor):
            array.setflags(write=False)
        self.sigma2 = sigma2
        self.reflections = reflections
        self.r0 = float(r0)
        self._logdet = logdet_prefix
        self._log_comp = float(log_comp)
        self.predictor = predictor

    @property
    def order(self) -> int:
        return len(self.sigma2)

    def extend(self, r, n: int) -> "LevinsonFactorization":
        """The factorization of R_n, n >= order, from the lags r(0..n-1):
        the recursion goes on from this one's last order.  Raises
        NotPositiveDefinite with the failing order, as `levinson` does."""
        values = np.ascontiguousarray(r, dtype=np.float64)
        m0 = self.order
        if not m0 <= n <= len(values):
            raise DimensionMismatch(f"cannot extend order {m0} to {n} from {len(values)} lags")
        floor = PD_FLOOR_REL * self.r0
        # a holds the predictor as (-1, a_1, ..., a_{m-1}, 0, ...): reflecting
        # its first m + 1 entries writes k_m over the zero; a and spare swap
        a, spare = np.concatenate(([-1.0], self.predictor, np.zeros(n - m0))), np.zeros(n)
        # r(m-1), ..., r(1) is a contiguous slice of the reversed lags
        rev = values[::-1].copy()
        s2 = self.sigma2.item(-1)
        # k_m, sigma2_m and the log-det prefix go to array("d") buffers, made
        # numpy arrays once: numpy scalar writes would raise the per-order
        # overhead, and lists of floats would leave their pools resident (0.5
        # MB at n = 4096).  r(m) and the logs are read one at a time likewise
        ks, s2s = array("d"), array("d")
        for m in range(m0, n):
            km = (values.item(m) - float(a[1:m].dot(rev[-m:-1]))) / s2
            _reflect(a[: m + 1], km, spare[: m + 1])
            a, spare = spare, a
            s2 = s2 * (1.0 - km * km)
            if not s2 > floor:  # a NaN fails too
                raise NotPositiveDefinite(m, s2)
            ks.append(km)
            s2s.append(s2)
        sigma2, k = np.append(self.sigma2, s2s), np.append(self.reflections, ks)
        # compensated prefix sums D_m = sum_{j<m} log sigma2_j, continued
        total, comp, prefix = self._logdet.item(-1), self._log_comp, array("d")
        for y in memoryview(np.log(sigma2[m0:])):
            y -= comp
            t = total + y
            comp, total = (t - total) - y, t
            prefix.append(total)
        logdet = np.append(self._logdet, prefix)
        return LevinsonFactorization(sigma2, k, self.r0, logdet, a[1:], comp)

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
                    _reflect(above[: j - 1], kj, row[1:j])
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
    """Factor R_n from the autocovariances r(0..), any float sequence: the
    order-1 factorization of r(0), extended to n.  NotPositiveDefinite, raised
    where an innovation variance is NaN or at the roundoff floor, names the order."""
    values = np.ascontiguousarray(r, dtype=np.float64)
    if not 1 <= n <= len(values):
        raise DimensionMismatch(f"cannot factor order {n} from {len(values)} lags")
    r0 = values.item(0)
    if not r0 > PD_FLOOR_REL * r0:
        raise NotPositiveDefinite(0, r0)
    sigma2, empty = values[:1].copy(), np.empty(0)
    first = LevinsonFactorization(sigma2, empty, r0, np.append(0.0, np.log(sigma2)), empty, 0.0)
    return first.extend(values, n)
