"""Seeded, reproducible sampling of Gaussian paths and separable fields.

The generator is a counter-based SplitMix64 feeding Box-Muller, so every
trajectory owns an independent stream derived from (base seed, index) and
ensembles parallelize without shared state.  Identical (model, n, seed)
always reproduces values bit-exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonMonotone
from .gaussian_model import GaussianProcessModel

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic is modular by design; silence numpy's overflow note
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _stream_seeds(bases, index: int):
    """stream_seed for a uint64 scalar or array of base seeds."""
    i = np.uint64(index & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(_mix64(bases + _GOLDEN) ^ _mix64(i * _GOLDEN + _GOLDEN))


def stream_seed(base_seed: int, index: int) -> int:
    """Decorrelated per-trajectory stream id."""
    return int(_stream_seeds(np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), index))


def _normals_into(out: np.ndarray, streams: np.ndarray) -> None:
    """Fill row i of out with the Box-Muller normals of stream streams[i].

    One counter grid and one Box-Muller pass serve every stream.
    """
    count = out.shape[1]
    # interleaved uniforms keep each stream prefix-consistent across lengths
    pairs = (count + 1) // 2
    steps = (np.arange(2 * pairs, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    with np.errstate(over="ignore"):
        bits = _mix64(streams[:, None] + steps[None, :])
    # each stage is freed before the next is built: for an ensemble slice
    # these temporaries, not the output, set the peak memory
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    del bits
    rad = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    del u
    np.multiply(rad, np.cos(ang), out=out[:, 0::2])
    np.multiply(rad[:, : count // 2], np.sin(ang[:, : count // 2]), out=out[:, 1::2])


def standard_normals(stream: int, count: int) -> np.ndarray:
    """Box-Muller normals from the counter-based stream."""
    out = np.empty((1, count))
    _normals_into(out, np.array([stream], dtype=np.uint64))
    return out[0]


@dataclass
class Trajectory:
    """A sampled path; transformed paths keep the pre-image and the
    per-coordinate log-Jacobian terms so exact densities stay available."""

    values: np.ndarray
    model_id: str
    seed: int
    base_values: np.ndarray | None = None
    log_jacobian_terms: np.ndarray | None = None

    def __len__(self):
        return len(self.values)

    @property
    def log_jacobian(self) -> float:
        if self.log_jacobian_terms is None:
            return 0.0
        return float(np.sum(self.log_jacobian_terms))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# model={self.model_id} seed={self.seed}\n")
        buf.write("index,value\n")
        for i, v in enumerate(self.values):
            buf.write(f"{i},{float(v)!r}\n")
        return buf.getvalue()


@dataclass
class FieldSample:
    values: np.ndarray
    model_id: str
    seed: int

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        n = self.n
        buf = io.StringIO()
        buf.write(f"# model={self.model_id} seed={self.seed} n={n}\n")
        buf.write("s,t,value\n")
        for s in range(n):
            for t in range(n):
                buf.write(f"{s},{t},{float(self.values[s, t])!r}\n")
        return buf.getvalue()


def sample_path(model: GaussianProcessModel, n: int, seed: int) -> Trajectory:
    """Innovations-form draw with the exact law N(0, R_n): one row of
    `sample_paths`, from the same stream."""
    x = sample_paths(model, n, [seed])[0]
    return Trajectory(values=x, model_id=model.describe(), seed=seed)


def sample_paths(model: GaussianProcessModel, n: int, seeds) -> np.ndarray:
    """Ensemble draw, one row per seed; row i is sample_path(model, n, seeds[i]).

    Solves A X^T = diag(sigma) Z^T with the inverse factor A, one row block
    at a time: a GEMM against the finished columns, then a short sweep
    inside the diagonal block.  X holds Z on entry and is solved in place.
    """
    bases = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    fact = model.factorization(n)
    sigma = fact.innovation_std(n)
    X = np.empty((len(bases), n))
    _normals_into(X, _stream_seeds(bases, 0))
    for j0, blk in fact.inverse_factor_blocks(n):
        j1 = j0 + blk.shape[0]
        X[:, j0:j1] *= sigma[j0:j1]
        X[:, j0:j1] -= X[:, :j0] @ blk[:, :j0].T
        for j in range(j0 + 1, j1):
            X[:, j] -= X[:, j0:j] @ blk[j - j0, j0:j]
    return X


def ensemble_residuals(model: GaussianProcessModel, X: np.ndarray) -> np.ndarray:
    """Innovations for every row of X: E = X A^T, one GEMM per row block."""
    return model.factorization(X.shape[1]).residuals(X)


def transform_path(traj: Trajectory, phi, dphi) -> Trajectory:
    """Coordinatewise y_i = phi(x_i) for a strictly increasing smooth phi."""
    x = traj.values
    deriv = np.asarray(dphi(x), dtype=np.float64)
    if np.any(deriv <= 0.0):
        raise NonMonotone("phi' <= 0 at some sample coordinate")
    return Trajectory(
        values=np.asarray(phi(x), dtype=np.float64),
        model_id=f"transformed({traj.model_id})",
        seed=traj.seed,
        base_values=x,
        log_jacobian_terms=np.log(deriv),
    )


def sample_field(field_model, n: int, seed: int) -> FieldSample:
    """Separable-field draw X = L_a Z L_b^T with Cholesky factor matrices."""
    la = field_model.cholesky_a(n)
    lb = field_model.cholesky_b(n)
    z = standard_normals(stream_seed(seed, 0), n * n).reshape(n, n)
    return FieldSample(values=la @ z @ lb.T, model_id=field_model.describe(), seed=seed)
