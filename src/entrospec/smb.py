"""Shannon information along sample paths and ensemble verification of
the pointwise (Shannon-McMillan-Breiman type) convergence, in 1-D and on
separable Z^2 fields.

One driver runs the ensemble of either dimension.  It derives the
streams once, draws the samples of one slice of them at a time, fills an
(ensemble x grid) array from their scores, divides by the block size n^d
and compares each column's mean with H_n/n^d and the rate, which 1-D
models and separable fields answer by the same names.  `smb_experiment` draws paths
(`sampling.sample_paths`) and scores them with `information_at`, the one
kernel of the 1-D path information I_n = -log rho_n; `smb2d_experiment`
draws fields (`sampling.sample_field`) and scores them with their
Kronecker block density, `SeparableFieldModel.log_block_density_2d`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import DimensionMismatch, ModelConfigError, RateNotFinite
from .field2d import SeparableFieldModel
from .gaussian_model import LOG_2PI, GaussianProcessModel

# streams per sample_paths call in smb_experiment; a slice holds one
# (slice x n) float64 path matrix
_ENSEMBLE_SLICE = 256
# field elements per sample_field call in smb2d_experiment: max(1, 2**14 // n^2)
# fields, so that each of a draw's buffers (128 KB) stays in cache
_FIELD_BATCH = 2**14

# Gauss-Hermite nodes of expected_log_derivative
_HERMITE_NODES = 96


@dataclass
class ConvergenceReport:
    """Per-n ensemble statistics of normalized information vs the rate."""

    model_id: str
    dims: int
    n_grid: list
    means: np.ndarray
    sds: np.ndarray
    se_exact: float
    hn_over_n: np.ndarray
    theoretical_sd: np.ndarray
    ensemble_size: int
    base_seed: int
    sampler: str  # path synthesis: "circulant" or "cholesky"
    values_by_n: list  # per n, the normalized information of every sample
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        # unbiasedness gate: ensemble mean within 4 sd / sqrt(M) of H_n/n
        band = 4.0 * self.theoretical_sd / math.sqrt(self.ensemble_size)
        self.passed = np.abs(self.means - self.hn_over_n) <= band

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    def mean_abs_deviation(self) -> np.ndarray:
        return np.array([float(np.mean(np.abs(v - self.se_exact))) for v in self.values_by_n])


# ---------------------------------------------------------------------------
# path information


def information_at(model: GaussianProcessModel, X, n_grid, dphi=None) -> np.ndarray:
    """(rows x len(n_grid)) array of I_n = -log rho_n(x_0..x_{n-1}) for each
    row x of X, plus the sum of log phi'(x_j), j < n, when dphi = phi' is
    given (NonMonotone where phi' <= 0).  The m-th increment is (1/2)(log 2pi
    + log sigma2_{m-1} + e_{m-1}^2 / sigma2_{m-1}), e the innovations, made
    one block of `LevinsonFactorization.residual_blocks` at a time, so the
    working set is X and a few block-sized buffers.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(n_grid) == 0 or not 1 <= min(n_grid) <= max(n_grid) <= X.shape[1]:
        raise DimensionMismatch(f"n grid {list(n_grid)} does not fit paths of shape {X.shape}")
    n_max = max(n_grid)
    X = X[:, :n_max]
    fact = model.factorization(n_max)
    half_terms = LOG_2PI + np.log(fact.sigma2[:n_max])
    values = np.empty((len(X), len(n_grid)))
    total = None  # I_{j0} of every path, the running sum before the block
    for j0, inc in fact.residual_blocks(X):
        # the residuals become the increments, then their running sums, in place
        j1 = j0 + inc.shape[1]
        inc *= inc
        inc /= fact.sigma2[None, j0:j1]
        inc += half_terms[None, j0:j1]
        inc *= 0.5
        if dphi is not None:
            inc += sampling.log_derivative(dphi, X[:, j0:j1])
        # a + b == b + a, so these are the sums of one cumsum along the path
        if total is not None:
            inc[:, 0] += total
        np.cumsum(inc, axis=1, out=inc)
        total = inc[:, -1]
        for col, n in enumerate(n_grid):
            if j0 < n <= j1:
                values[:, col] = inc[:, n - 1 - j0]
    return values


def expected_log_derivative(dphi, variance: float) -> float:
    """Gauss-Hermite value of E[log phi'(X)] for X ~ N(0, variance);
    NonMonotone where phi' <= 0 at a node."""
    x, w = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    vals = sampling.log_derivative(dphi, x * math.sqrt(variance))
    return float(np.dot(w, vals) / np.sum(w))


# ---------------------------------------------------------------------------
# ensemble experiments


def _ensemble_experiment(
    model, n_grid, ensemble_size, base_seed, dims, draw, score, batch, sampler,
    shift=0.0, model_id=None,
) -> ConvergenceReport:
    """The pipeline of both dimensions: streams, draws, scores, statistics.

    `model` answers entropy_rate(), block_entropy(n) and describe() for
    blocks of n^dims points.  `draw(n_max, streams)` gives one sample per
    stream at the largest n, `batch(n_max)` streams at a time, and
    `score(X, n_grid)` their information at every n as a
    (len(X) x len(n_grid)) array.  `sampler(n_max)` names the synthesis.
    `shift` is added to the rate and to every H_n/n^dims.  Each n's mean and
    sd are taken down a column of the (ensemble x grid) array of normalized
    information.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid:
        raise DimensionMismatch("the n grid is empty")
    if ensemble_size < 1:
        raise ModelConfigError(f"ensemble size must be >= 1, got {ensemble_size}")
    se = model.entropy_rate()
    if se == float("-inf"):
        raise RateNotFinite(f"entropy rate of {model.describe()} is -inf")
    n_max = n_grid[-1]
    sizes = np.power(n_grid, dims)  # points of each block
    streams = sampling.ensemble_streams(base_seed, ensemble_size)
    values = np.empty((ensemble_size, len(n_grid)))
    step = batch(n_max)
    for i0 in range(0, ensemble_size, step):
        values[i0 : i0 + step] = score(draw(n_max, streams[i0 : i0 + step]), n_grid)
    values /= sizes

    return ConvergenceReport(
        model_id=model.describe() if model_id is None else model_id,
        dims=dims,
        n_grid=n_grid,
        means=values.mean(axis=0),
        sds=values.std(axis=0, ddof=1 if ensemble_size > 1 else 0),
        se_exact=se + shift,
        hn_over_n=np.array([model.block_entropy(n) / b for n, b in zip(n_grid, sizes)]) + shift,
        theoretical_sd=1.0 / np.sqrt(2.0 * sizes),
        ensemble_size=ensemble_size,
        base_seed=base_seed,
        sampler=sampler(n_max),
        values_by_n=list(values.T),
    )


def smb_experiment(
    model: GaussianProcessModel,
    n_grid,
    ensemble_size: int,
    base_seed: int,
    transform=None,
) -> ConvergenceReport:
    """Ensemble statistics of (1/n) I_n against the entropy rate.

    `transform` is an optional (phi, dphi) pair of a coordinatewise
    increasing map.  Paths stay Gaussian: I_n gains the Jacobian terms
    sum log phi'(x_j), and the rate and H_n/n the exact marginal shift
    E[log phi'(X_0)], X_0 ~ N(0, r(0)); phi' <= 0 raises NonMonotone.
    Paths are sampled in slices of at most _ENSEMBLE_SLICE streams, and each
    slice is scored by `information_at`.
    """
    dphi = None if transform is None else transform[1]
    return _ensemble_experiment(
        model, n_grid, ensemble_size, base_seed, dims=1,
        draw=lambda n_max, streams: sampling.sample_paths(model, n_max, streams),
        score=lambda X, grid: information_at(model, X, grid, dphi),
        batch=lambda n_max: _ENSEMBLE_SLICE,
        sampler=lambda n_max: sampling.path_sampler(model, n_max),
        shift=0.0 if dphi is None else expected_log_derivative(dphi, model.r0),
        model_id=None if dphi is None else f"transformed({model.describe()})",
    )


def smb2d_experiment(
    fm: SeparableFieldModel,
    n_grid,
    ensemble_size: int,
    base_seed: int,
) -> ConvergenceReport:
    """Ensemble statistics of (1/n^2) h_n^(2) against the 2-D rate.

    One field per stream is drawn at the largest n by `sampling.sample_field`,
    in stacks of max(1, _FIELD_BATCH // n^2) fields, and h_n^(2) at every n
    of the grid is the information of its leading n x n block
    (`SeparableFieldModel.log_block_density_2d` with the grid): nested boxes
    of one realization, as `smb_experiment` scores prefixes of one path, so
    the values at different n are correlated.  The leading block of a field
    drawn at n_max has the law of a field drawn at n, because the Cholesky
    factors are lower triangular.
    """
    return _ensemble_experiment(
        fm, n_grid, ensemble_size, base_seed, dims=2,
        draw=lambda n_max, streams: sampling.sample_field(fm, n_max, streams),
        score=lambda X, grid: -fm.log_block_density_2d(X, grid),
        batch=lambda n_max: max(1, _FIELD_BATCH // (n_max * n_max)),
        sampler=lambda n_max: "cholesky",
    )
