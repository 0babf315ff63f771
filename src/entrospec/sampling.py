"""Seeded, reproducible sampling of Gaussian paths and separable fields.

The generator is a counter-based SplitMix64 feeding Box-Muller: a stream
is a uint64 id, and its normals are a function of the id alone.  Draws are
ensembles: `sample_paths` and `sample_field` give one path or field per
stream, so a sample depends on its stream alone and identical
(model, n, stream) reproduces it bit-exactly.  `ensemble_streams` derives
the streams of an experiment from (base seed, index).  Nothing in the
package calls `standard_normals` or `ensemble_residuals`; they stay as
hooks of the benchmark's tracer.

1-D paths come from circulant embedding (Davies & Harte 1987; Wood & Chan
1994): R_n is the leading block of a circulant matrix built from the
covariances alone, and one inverse real FFT of a scaled Hermitian
half-spectrum of normals draws one path.  The evaluator, the inverse
Levinson factor, is not the sampler's inverse, so an ensemble check of the
path information tests the factorization.  Where no embedding up to four
times the minimal size is nonnegative, paths come from the model's Cholesky
factor of R_n, `model.cholesky(n)`: a dense n x n factor made in O(n^3)
time.  That happens at every n for a density that vanishes or nearly
vanishes on an arc (gap:0.25 + white:0.01 from n = 4 to 4096), and at
small n for a sharp resonance (ar:1.8,-0.9 at most n <= 22).

Where the process may run on two CPUs, a circulant draw of two or more
chunks splits its rows between the caller and one thread: numpy releases
the interpreter lock in the normals' ufuncs and in the FFT, and a row is
the same function of its stream on either thread.  The Cholesky paths and
the fields stay serial.  A field draw alternates with GEMMs, after which
OpenBLAS's idle workers spin on the second core: on a 2-core machine,
8 x 16384 normals on two threads took 5.6 ms against 4.0 ms serially right
after a 128 x 128 GEMM (4.3 against 6.7 ms after a 20 ms sleep).
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import DimensionMismatch, NonMonotone
from .gaussian_model import GaussianProcessModel

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# (shift, multiplier) rounds of the SplitMix64 finalizer
_MIX_ROUNDS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))

# rows per circulant synthesis pass: a row takes 2(n-1) normals, and a pass
# of 4 rows on each of two threads keeps each buffer of the 8-row set to
# 0.5-1 MB at n = 4096, within L2
_CE_CHUNK = 4
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


def _stream_seeds(bases, indices):
    """Decorrelated per-trajectory stream ids of (base seed, index), for
    uint64 base seeds and indices that broadcast together."""
    with np.errstate(over="ignore"):
        index = np.asarray(indices, dtype=np.uint64) * _GOLDEN + _GOLDEN
        return _mix64(_mix64(bases + _GOLDEN) ^ _mix64(index))


def ensemble_streams(base_seed: int, count: int) -> np.ndarray:
    """The uint64 streams of (base_seed, i) for i in range(count), base_seed
    reduced mod 2**64.  Each is mixed twice, (base, i) then (that, 0), which
    keeps every seeded value of the package."""
    base = np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF)
    return _stream_seeds(_stream_seeds(base, np.arange(count, dtype=np.uint64)), 0)


def _normals_into(out: np.ndarray, streams: np.ndarray, work=None) -> None:
    """Fill row i of out with the Box-Muller normals of stream streams[i].

    One counter grid and one Box-Muller pass serve every stream.  work is
    uint64 scratch of shape (2, rows, 2 * ceil(count / 2)); a caller that
    fills many slices passes one, so that no slice allocates.
    """
    streams = np.asarray(streams, dtype=np.uint64)
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
    _normals_into(out, [stream])
    return out[0]


def _circulant_embedding(model: GaussianProcessModel, n: int):
    """(m, s) for the smallest nonnegative circulant embedding of R_n, or
    None if there is none up to _CE_MAX_PAD times the minimal size.

    The embedding row is c = (r_0..r_{m/2}, r_{m/2-1}..r_1), m = 2(n-1) at
    first and doubled after a negative eigenvalue; its eigenvalues are
    lambda = rfft(c).  s is sqrt(m lambda) on the half-spectrum, with the
    1/sqrt(2) of the complex interior bins folded in.  Each size's lags come
    from the model's checked cache, `model.autocovariance(m // 2)`.
    """
    m_min = max(2 * (n - 1), 1)
    m = m_min
    while m <= _CE_MAX_PAD * m_min:
        r = model.autocovariance(m // 2)
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


def _circulant_rows(s: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
    """Paths from the normals z (one row of m per path), written over z:
    z = irfft(W, m), W the Hermitian half-spectrum in w (zero on entry in
    the imaginary parts of its end bins) with real parts s*z[:h] and
    interior imaginary parts s*z[h:], h = len(s).  W holds all it needs of
    the normals before the inverse FFT overwrites them."""
    m = z.shape[1]
    h = len(s)
    np.multiply(z[:, :h], s, out=w.real)
    np.multiply(z[:, h:], s[1 : m - h + 1], out=w.imag[:, 1 : m - h + 1])
    np.fft.irfft(w, m, out=z)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_paths(model: GaussianProcessModel, n: int, streams) -> np.ndarray:
    """Ensemble draw of N(0, R_n) paths, one row per stream.

    Row i is the circulant synthesis of m normals from stream streams[i]
    (see `_circulant_embedding`), written over those normals _CE_CHUNK rows
    at a time, and depends on that stream alone.  With at least two chunks
    and two usable CPUs, one thread, started and joined here, draws the
    second half of the rows through its own half of the buffers; an error
    it raises is raised here.  Without a nonnegative embedding, row i is
    L z for the Cholesky factor L of R_n and the n normals z of that
    stream, all rows one stacked product as for a field; a
    non-positive-definite R_n raises NotPositiveDefinite.
    """
    if n < 1:
        raise DimensionMismatch(f"path length must be >= 1, got {n}")
    embedding = _circulant_embedding(model, n)
    if embedding is None:
        z = np.empty((len(streams), n))
        _normals_into(z, streams)
        # a stack of n x 1 columns, one GEMV each, unlike one GEMM z L^T
        # whose blocking would tie a row to the ensemble size
        return (model.cholesky(n) @ z[..., None])[..., 0]
    m, s = embedding
    count = len(streams)
    X = np.empty((count, n))
    chunks = -(-count // _CE_CHUNK)
    threads = 2 if chunks >= 2 and _usable_cpus() >= 2 else 1
    # one set of buffers serves every chunk: multi-MB temporaries made
    # afresh per chunk would be page-faulted in again each time
    rows = min(threads * _CE_CHUNK, count)
    z = np.empty((rows, m))
    w = np.zeros((rows, len(s)), dtype=np.complex128)
    work = np.empty((2, rows, 2 * ((m + 1) // 2)), dtype=np.uint64)

    def draw(lo, hi, b):
        """Rows lo:hi of X, through buffer rows b:b + _CE_CHUNK."""
        for i0 in range(lo, hi, _CE_CHUNK):
            k = min(_CE_CHUNK, hi - i0)
            buf = slice(b, b + k)
            _normals_into(z[buf], streams[i0 : i0 + k], work[:, buf])
            _circulant_rows(s, z[buf], w[buf])
            X[i0 : i0 + k] = z[buf, :n]

    if threads == 1:
        draw(0, count, 0)
        return X
    half = _CE_CHUNK * ((chunks + 1) // 2)
    failed = []

    def second_half():
        try:
            draw(half, count, _CE_CHUNK)
        except BaseException as exc:  # raised again in the caller below
            failed.append(exc)

    worker = threading.Thread(target=second_half, name="sample_paths")
    worker.start()
    try:
        draw(0, half, 0)
    finally:
        worker.join()
    if failed:
        raise failed[0]
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


def sample_field(field_model, n: int, streams) -> np.ndarray:
    """Ensemble draw of separable fields, a (len(streams), n, n) stack.

    Field i is L_a Z_i L_b^T for the Cholesky factors L_a, L_b and the n^2
    normals Z_i of stream streams[i], one GEMM pair per field, so it depends
    on that stream alone.
    """
    if n < 1:
        raise DimensionMismatch(f"field size must be >= 1, got {n}")
    k = len(streams)
    la = field_model.cholesky_a(n)
    lb = field_model.cholesky_b(n)
    z = np.empty((k, n * n))
    _normals_into(z, streams)
    return la @ z.reshape(k, n, n) @ lb.T
