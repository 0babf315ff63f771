"""Seeded, reproducible sampling of Gaussian paths and separable fields.

The generator is a counter-based SplitMix64 feeding Box-Muller.  Draws
are ensembles: `sample_paths` and `field_chunks` give one path or field
per seed, from that seed's own stream, so a row depends on its seed alone
and identical (model, n, seed) reproduces it bit-exactly.
`ensemble_seeds` derives the seeds of an experiment from (base seed,
index).  Nothing in the package calls `standard_normals`, `sample_field`
or `ensemble_residuals`; they stay as hooks of the benchmark's tracer.

1-D paths come from circulant embedding (Davies & Harte 1987; Wood & Chan
1994): R_n is the leading block of a circulant matrix built from the
covariances alone, and one inverse real FFT of a scaled Hermitian
half-spectrum of normals draws one path.  The evaluator, the inverse
Levinson factor, is not the sampler's inverse, so an ensemble check of the
path information tests the factorization.  Where no embedding up to four
times the minimal size is nonnegative, which happens only at small n, paths
come from the model's Cholesky factor of R_n, `model.cholesky(n)`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonMonotone
from .gaussian_model import GaussianProcessModel

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# (shift, multiplier) rounds of the SplitMix64 finalizer
_MIX_ROUNDS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))

# field elements per stacked draw of `smb2d_experiment`: c = max(1, 2**14 // n^2)
# fields, so that each of a chunk's buffers (128 KB) stays in cache
_FIELD_CHUNK = 2**14
# rows per circulant synthesis pass: a row takes 2(n-1) normals, and 8 rows
# keep each of the pass's buffers to 0.5-1 MB at n = 4096, within L2
_CE_CHUNK = 8
# embedding eigenvalues down to -_CE_CLIP * (largest eigenvalue) are rounding
# error of a nonnegative spectrum and are set to 0
_CE_CLIP = 1e-13
# largest embedding tried, as a multiple of the minimal size 2(n-1): the
# size doubles after a negative eigenvalue, so 1x, 2x and 4x are tried
_CE_MAX_PAD = 4


def _mix64(z, tmp=None):
    """SplitMix64 finalizer, in place for an array z; tmp, if given, is
    scratch of z's shape, so that no temporary is allocated."""
    # uint64 arithmetic is modular by design; silence numpy's overflow note
    with np.errstate(over="ignore"):
        for shift, mult in _MIX_ROUNDS:
            z ^= np.right_shift(z, shift, out=tmp)
            if mult is not None:
                z *= mult
        return z


def _stream_seeds(bases, index: int):
    """Decorrelated per-trajectory stream ids of (base seed, index), for a
    uint64 scalar or array of base seeds."""
    i = np.uint64(index & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(_mix64(bases + _GOLDEN) ^ _mix64(i * _GOLDEN + _GOLDEN))


def _seed_array(seeds) -> np.ndarray:
    """Seeds as uint64, each reduced mod 2**64."""
    return np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def ensemble_seeds(base_seed: int, count: int) -> np.ndarray:
    """The stream ids of (base_seed, i) for i in range(count), as uint64 in
    one vectorized pass: entry i is _stream_seeds(base_seed, i)."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        index = np.arange(count, dtype=np.uint64) * _GOLDEN + _GOLDEN
    return _mix64(_mix64(index) ^ base)


def _normals_into(out: np.ndarray, streams: np.ndarray, work=None) -> None:
    """Fill row i of out with the Box-Muller normals of stream streams[i].

    One counter grid and one Box-Muller pass serve every stream.  work is
    uint64 scratch of shape (2, rows, 2 * ceil(count / 2)); a caller that
    fills many slices passes one, so that no slice allocates.
    """
    rows, count = out.shape
    pairs = (count + 1) // 2
    half = count // 2
    if work is None:
        work = np.empty((2, rows, 2 * pairs), dtype=np.uint64)
    bits, tmp = work[0], work[1]
    # interleaved uniforms keep each stream prefix-consistent across lengths
    steps = (np.arange(2 * pairs, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    np.add(streams[:, None], steps[None, :], out=bits)
    _mix64(bits, tmp)
    bits >>= np.uint64(11)
    # the uniforms take tmp's memory, the radii and the sines/cosines bits'
    u = tmp.view(np.float64)
    np.copyto(u, bits, casting="unsafe")
    u *= 2.0**-53
    u += 2.0**-54
    rad = bits.view(np.float64)[:, :pairs]
    trig = bits.view(np.float64)[:, pairs:]
    np.log(u[:, 0::2], out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    ang = u[:, 1::2]
    ang *= 2.0 * np.pi
    np.cos(ang, out=trig)
    np.multiply(rad, trig, out=out[:, 0::2])
    np.sin(ang[:, :half], out=trig[:, :half])
    np.multiply(rad[:, :half], trig[:, :half], out=out[:, 1::2])


def standard_normals(stream: int, count: int) -> np.ndarray:
    """Box-Muller normals from the counter-based stream."""
    out = np.empty((1, count))
    _normals_into(out, np.array([stream], dtype=np.uint64))
    return out[0]


def _circulant_embedding(model: GaussianProcessModel, n: int):
    """(m, s) for the smallest nonnegative circulant embedding of R_n, or
    None if there is none up to _CE_MAX_PAD times the minimal size.

    The embedding row is c = (r_0..r_{m/2}, r_{m/2-1}..r_1), m = 2(n-1) at
    first and doubled after a negative eigenvalue; its eigenvalues are
    lambda = rfft(c).  s is sqrt(m lambda) on the half-spectrum, with the
    1/sqrt(2) of the complex interior bins folded in.  The longer lags come
    from the density.
    """
    m_min = max(2 * (n - 1), 1)
    r = model.autocovariance(n - 1)
    m = m_min
    while m <= _CE_MAX_PAD * m_min:
        if m > m_min:
            r = model.density.autocovariance(m // 2)
        lam = np.fft.rfft(np.concatenate((r, r[-2:0:-1]))).real
        if lam.min() >= -_CE_CLIP * lam.max():
            s = np.sqrt(m * np.maximum(lam, 0.0))
            s[1 : (m + 1) // 2] *= math.sqrt(0.5)
            return m, s
        m *= 2
    return None


def path_sampler(model: GaussianProcessModel, n: int) -> str:
    """Which synthesis `sample_paths` uses at length n: "circulant" or "cholesky"."""
    return "cholesky" if _circulant_embedding(model, n) is None else "circulant"


def _circulant_rows(s: np.ndarray, z: np.ndarray, w: np.ndarray, x: np.ndarray) -> None:
    """Paths from the normals z (one row of m per path) into x (rows x m):
    x = irfft(W, m), W the Hermitian half-spectrum in w (zero on entry in
    the imaginary parts of its end bins) with real parts s*z[:h] and
    interior imaginary parts s*z[h:], h = len(s)."""
    m = z.shape[1]
    h = len(s)
    np.multiply(z[:, :h], s, out=w.real)
    np.multiply(z[:, h:], s[1 : m - h + 1], out=w.imag[:, 1 : m - h + 1])
    np.fft.irfft(w, m, out=x)


def sample_paths(model: GaussianProcessModel, n: int, seeds) -> np.ndarray:
    """Ensemble draw of N(0, R_n) paths, one row per seed.

    Row i is the circulant synthesis of m normals from the stream of
    seeds[i] (see `_circulant_embedding`), drawn _CE_CHUNK rows at a time,
    and depends on that seed alone.  Without a nonnegative embedding, row i
    is L z for the Cholesky factor L of R_n and n normals z of that stream.
    """
    if n < 1:
        raise DimensionMismatch(f"path length must be >= 1, got {n}")
    streams = _stream_seeds(_seed_array(seeds), 0)
    embedding = _circulant_embedding(model, n)
    if embedding is None:
        return _cholesky_paths(model, n, streams)
    m, s = embedding
    X = np.empty((len(streams), n))
    # one set of buffers serves every chunk: multi-MB temporaries made
    # afresh per chunk would be page-faulted in again each time
    rows = min(_CE_CHUNK, len(streams))
    z, x = np.empty((rows, m)), np.empty((rows, m))
    w = np.zeros((rows, len(s)), dtype=np.complex128)
    work = np.empty((2, rows, 2 * ((m + 1) // 2)), dtype=np.uint64)
    for i0 in range(0, len(streams), _CE_CHUNK):
        part = streams[i0 : i0 + _CE_CHUNK]
        k = len(part)
        _normals_into(z[:k], part, work[:, :k])
        _circulant_rows(s, z[:k], w[:k], x[:k])
        X[i0 : i0 + k] = x[:k, :n]
    return X


def _cholesky_paths(model: GaussianProcessModel, n: int, streams) -> np.ndarray:
    """Row i is L z_i for L = `model.cholesky(n)`, one GEMV per row so that
    a row does not depend on the ensemble; O(n^3), but taken only at small
    n.  A non-positive-definite R_n raises NotPositiveDefinite."""
    chol = model.cholesky(n)
    X = np.empty((len(streams), n))
    _normals_into(X, streams)
    for x in X:
        x[:] = chol @ x
    return X


def ensemble_residuals(model: GaussianProcessModel, X) -> np.ndarray:
    """Innovations for every row of X: E = X A^T, one GEMM per row block.
    A 1-D X is a single row."""
    X = np.asarray(X, dtype=np.float64)
    # a 0-d X has no length; residuals rejects it
    return model.factorization(X.shape[-1] if X.ndim else 1).residuals(X)


def log_derivative(dphi, x) -> np.ndarray:
    """log phi'(x) coordinatewise; NonMonotone where phi'(x) <= 0."""
    deriv = np.asarray(dphi(x), dtype=np.float64)
    if not np.all(deriv > 0.0):
        raise NonMonotone("phi' <= 0 at some sample coordinate")
    return np.log(deriv)


def sample_field(field_model, n: int, seed: int) -> np.ndarray:
    """Separable-field draw X = L_a Z L_b^T: the field of seed in `field_chunks`."""
    ((_, X),) = field_chunks(field_model, n, [seed])
    return X[0]


def field_chunks(field_model, n: int, seeds):
    """Yield (i0, X): X[i] is L_a Z_i L_b^T for the Cholesky factors L_a,
    L_b and the n^2 normals Z_i of the stream of seeds[i0 + i], so a field
    depends on its seed alone.  Stacks hold max(1, _FIELD_CHUNK // n^2)
    fields and share one set of buffers, so X is valid until the next one
    is yielded."""
    if n < 1:
        raise DimensionMismatch(f"field size must be >= 1, got {n}")
    streams = _stream_seeds(_seed_array(seeds), 0)
    chunk = max(1, min(_FIELD_CHUNK // (n * n), len(streams)))
    # the normals, and the uint64 scratch of `_normals_into`
    z = np.empty((chunk, n * n))
    work = np.empty((2, chunk, 2 * ((n * n + 1) // 2)), dtype=np.uint64)
    for i0 in range(0, len(streams), chunk):
        yield i0, _fields_into(field_model, n, streams[i0 : i0 + chunk], z, work)


def _fields_into(field_model, n: int, streams, z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Fields of the streams, (k, n, n) for k = len(streams), from the
    buffers of `field_chunks` with at least k rows.  The result is a view of
    z, valid until z is next used."""
    k = len(streams)
    la = field_model.cholesky_a(n)
    lb = field_model.cholesky_b(n)
    zk = z[:k].reshape(k, n, n)
    _normals_into(z[:k], streams, work[:, :k])
    # the scratch is free once the normals are drawn; L_a Z goes there, and
    # the field over the normals it was made from
    la_z = work.reshape(-1).view(np.float64)[: k * n * n].reshape(k, n, n)
    np.matmul(la, zk, out=la_z)
    return np.matmul(la_z, lb.T, out=zk)
