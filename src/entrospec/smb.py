"""Shannon information along sample paths and ensemble verification of
the pointwise (Shannon-McMillan-Breiman type) convergence, in 1-D and on
separable Z^2 fields.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import RateNotFinite
from .field2d import SeparableFieldModel
from .gaussian_model import LOG_2PI, GaussianProcessModel
from .sampling import Trajectory

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


def _increments(model: GaussianProcessModel, traj: Trajectory) -> np.ndarray:
    """Conditional-information increments: the m-th term is
    (1/2)log 2pi + (1/2)log sigma2_{m-1} + (1/2) e_{m-1}^2 / sigma2_{m-1}."""
    x = traj.base_values if traj.base_values is not None else traj.values
    n = len(x)
    fact = model.factorization(n)
    e = fact.residuals(x)
    inc = 0.5 * (LOG_2PI + np.log(fact.sigma2[:n]) + e * e / fact.sigma2[:n])
    if traj.log_jacobian_terms is not None:
        inc = inc + traj.log_jacobian_terms
    return inc


def information_path(model: GaussianProcessModel, traj: Trajectory) -> np.ndarray:
    """I_1..I_n with I_m = -log rho_m(x_0..x_{m-1}) (plus the Jacobian for
    transformed paths), built incrementally in O(n^2)."""
    return np.cumsum(_increments(model, traj))


def innovation_average(model: GaussianProcessModel, traj: Trajectory) -> float:
    """(1/(N-1)) sum of squared normalized innovations at orders 1..N-1;
    tends to 1 along Gaussian paths."""
    x = traj.base_values if traj.base_values is not None else traj.values
    n = len(x)
    if n < 2:
        raise RateNotFinite("need at least 2 coordinates")
    fact = model.factorization(n)
    e = fact.residuals(x)
    ratios = e[1:] ** 2 / fact.sigma2[1:n]
    return float(np.mean(ratios))


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
    scored one residual block of `LevinsonFactorization.residual_blocks` at
    a time, so the working set is the paths and a few block-sized buffers.
    """
    n_grid = sorted(int(n) for n in n_grid)
    se = model.entropy_rate()
    if se == float("-inf"):
        raise RateNotFinite("entropy rate is -inf")
    n_max = n_grid[-1]
    fact = model.factorization(n_max)
    half_terms = LOG_2PI + np.log(fact.sigma2[:n_max])

    seeds = sampling.ensemble_seeds(base_seed, ensemble_size)
    values = np.empty((ensemble_size, len(n_grid)))
    for i0 in range(0, ensemble_size, _ENSEMBLE_SLICE):
        X = sampling.sample_paths(model, n_max, seeds[i0 : i0 + _ENSEMBLE_SLICE])
        rows = slice(i0, i0 + len(X))
        total = None  # I_{j0} of every path, the running sum before the block
        for j0, inc in fact.residual_blocks(X):
            # the residuals become the increments, then their running sums, in place
            j1 = j0 + inc.shape[1]
            inc *= inc
            inc /= fact.sigma2[None, j0:j1]
            inc += half_terms[None, j0:j1]
            inc *= 0.5
            if transform is not None:
                inc += sampling.log_derivative(transform[1], X[:, j0:j1])
            # a + b == b + a, so these are the sums of one cumsum along the path
            if total is not None:
                inc[:, 0] += total
            np.cumsum(inc, axis=1, out=inc)
            total = inc[:, -1]
            for col, n in enumerate(n_grid):
                if j0 < n <= j1:
                    values[rows, col] = inc[:, n - 1 - j0] / n
        del X, inc, total

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


def information_field(fm: SeparableFieldModel, sample) -> float:
    """(1/n^2) h_n^(2): normalized negative log-density of the field block."""
    n = sample.n
    return -fm.log_block_density_2d(sample.values) / (n * n)


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
