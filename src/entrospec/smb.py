"""Shannon information along sample paths and ensemble verification of
the pointwise (Shannon-McMillan-Breiman type) convergence, in 1-D and on
separable Z^2 fields.

`information_at` is the one kernel of the 1-D path information
I_n = -log rho_n; `smb_experiment` runs it on slices of a seeded ensemble.
A field's information is its Kronecker block density,
`SeparableFieldModel.log_block_density_2d`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import DimensionMismatch, RateNotFinite
from .field2d import SeparableFieldModel
from .gaussian_model import LOG_2PI, GaussianProcessModel

# seeds per sample_paths call in smb_experiment; a slice holds one
# (slice x n) float64 path matrix
_ENSEMBLE_SLICE = 256


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
    workers: int
    sampler: str  # path synthesis: "circulant" or "cholesky"
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        # unbiasedness gate: ensemble mean within 4 sd / sqrt(M) of H_n/n
        band = 4.0 * self.theoretical_sd / math.sqrt(self.ensemble_size)
        self.passed = np.abs(self.means - self.hn_over_n) <= band

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    def mean_abs_deviation(self, values_by_n) -> np.ndarray:
        return np.array([float(np.mean(np.abs(v - self.se_exact))) for v in values_by_n])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,mean,sd,se_exact,hn_over_n,theoretical_sd,pass\n")
        for i, n in enumerate(self.n_grid):
            buf.write(
                f"{n},{float(self.means[i])!r},{float(self.sds[i])!r},"
                f"{float(self.se_exact)!r},"
                f"{float(self.hn_over_n[i])!r},{float(self.theoretical_sd[i])!r},"
                f"{int(self.passed[i])}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model_id,
                "dims": self.dims,
                "n_grid": list(self.n_grid),
                "means": self.means.tolist(),
                "sds": self.sds.tolist(),
                "se_exact": self.se_exact,
                "hn_over_n": self.hn_over_n.tolist(),
                "theoretical_sd": self.theoretical_sd.tolist(),
                "ensemble_size": self.ensemble_size,
                "base_seed": self.base_seed,
                "workers": self.workers,
                "sampler": self.sampler,
                "pass": [bool(p) for p in self.passed],
                "all_passed": self.all_passed,
            },
            indent=2,
        )


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
    n_max = max(n_grid)
    if X.ndim != 2 or not 1 <= min(n_grid) <= n_max <= X.shape[1]:
        raise DimensionMismatch(f"n grid {list(n_grid)} does not fit paths of shape {X.shape}")
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


def expected_log_derivative(dphi, variance: float, nodes: int = 96) -> float:
    """Gauss-Hermite value of E[log phi'(X)] for X ~ N(0, variance)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    vals = np.log(dphi(x * math.sqrt(variance)))
    return float(np.dot(w, vals) / np.sum(w))


# ---------------------------------------------------------------------------
# ensemble experiments


def _ddof(ensemble_size: int) -> int:
    """Sample standard deviation, or the plain one for a single draw."""
    return 1 if ensemble_size > 1 else 0


def smb_experiment(
    model: GaussianProcessModel,
    n_grid,
    ensemble_size: int,
    base_seed: int,
    workers: int = 1,
    transform=None,
) -> ConvergenceReport:
    """Ensemble statistics of (1/n) I_n against the entropy rate.

    `transform` is an optional (phi, dphi) pair applied coordinatewise;
    the report then compares against Se + E[log phi'(X_0)] via the stored
    Jacobian terms entering I_n, and phi' <= 0 at a sample raises
    NonMonotone.  `workers` is only recorded in the report.  Paths are
    sampled in slices of at most _ENSEMBLE_SLICE seeds, and each slice is
    scored by `information_at`.
    """
    n_grid = sorted(int(n) for n in n_grid)
    se = model.entropy_rate()
    if se == float("-inf"):
        raise RateNotFinite("entropy rate is -inf")
    n_max = n_grid[-1]
    dphi = None if transform is None else transform[1]
    seeds = sampling.ensemble_seeds(base_seed, ensemble_size)
    values = np.empty((ensemble_size, len(n_grid)))
    for i0 in range(0, ensemble_size, _ENSEMBLE_SLICE):
        X = sampling.sample_paths(model, n_max, seeds[i0 : i0 + _ENSEMBLE_SLICE])
        values[i0 : i0 + len(X)] = information_at(model, X, n_grid, dphi)
        del X
    values /= n_grid

    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=_ddof(ensemble_size))
    hn = np.array([model.block_entropy(n) / n for n in n_grid])
    if transform is not None:
        # exact marginal shift E[log phi'(X_0)], X_0 ~ N(0, r(0))
        shift = expected_log_derivative(transform[1], model.r0)
        se = se + shift
        hn = hn + shift
    theo = np.array([1.0 / math.sqrt(2.0 * n) for n in n_grid])
    report = ConvergenceReport(
        model_id=model.describe() if transform is None else f"transformed({model.describe()})",
        dims=1,
        n_grid=n_grid,
        means=means,
        sds=sds,
        se_exact=se,
        hn_over_n=hn,
        theoretical_sd=theo,
        ensemble_size=ensemble_size,
        base_seed=base_seed,
        workers=workers,
        sampler=sampling.path_sampler(model, n_max),
    )
    report.values_by_n = list(values.T)
    return report


def smb2d_experiment(
    fm: SeparableFieldModel,
    n_grid,
    ensemble_size: int,
    base_seed: int,
    workers: int = 1,
) -> ConvergenceReport:
    """Ensemble statistics of (1/n^2) h_n^(2) against the 2-D rate.

    `workers` is only recorded in the report.  At each n the fields are
    drawn and scored in the cache-sized stacks of `sampling.field_chunks`.
    """
    n_grid = sorted(int(n) for n in n_grid)
    se = fm.entropy_rate_2d()
    if se == float("-inf"):
        raise RateNotFinite("2-D entropy rate is -inf")

    seeds = sampling.ensemble_seeds(base_seed, ensemble_size)
    values_by_n = []
    for n in n_grid:
        values = np.empty(ensemble_size)
        for i0, X in sampling.field_chunks(fm, n, seeds):
            values[i0 : i0 + len(X)] = -fm.log_block_density_2d(X) / (n * n)
        values_by_n.append(values)
    means = np.array([float(v.mean()) for v in values_by_n])
    sds = np.array([float(v.std(ddof=_ddof(ensemble_size))) for v in values_by_n])
    hn = np.array([fm.block_entropy_2d(n) / (n * n) for n in n_grid])
    theo = np.array([1.0 / math.sqrt(2.0 * n * n) for n in n_grid])
    report = ConvergenceReport(
        model_id=fm.describe(),
        dims=2,
        n_grid=n_grid,
        means=means,
        sds=sds,
        se_exact=se,
        hn_over_n=hn,
        theoretical_sd=theo,
        ensemble_size=ensemble_size,
        base_seed=base_seed,
        workers=workers,
        sampler="cholesky",
    )
    report.values_by_n = values_by_n
    return report
