"""Seeded, reproducible sampling of Gaussian paths and separable fields.

The generator is a counter-based SplitMix64 feeding Box-Muller: a stream
is a uint64 id, and its normals are a function of the id alone.  Draws are
ensembles: `sample_paths` and `sample_field` give one path or field per
stream, so a sample depends on its stream alone and identical
(model, n, stream) reproduces it bit-exactly.  `ensemble_streams` derives
the streams of an experiment from (base seed, index).  Nothing in the
package calls `standard_normals` or `ensemble_residuals`; they stay as
hooks of the benchmark's tracer.

Box-Muller's angle 2 pi u is never formed (`_box_muller`): the angle word
splits into an octant and an offset within it, libm takes cos and sin of
an angle in (0, pi/4), where it runs no argument reduction and costs about
half as much, and the octant's swap and signs are integer operations on
the results.  Each normal is within 1.1e-15 r of the direct formula, r
its radius, and closer to the exact value of its uniforms.

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
# a 53-bit angle word is an octant, its top 3 bits, over a 50-bit offset.
# The octant's low bit and the offset are its low 51 bits.  Shifted left by
# 11, the octant is a uint64's top 3 bits and 2^61 is one octant
_PARITY_AND_OFFSET = np.uint64(2**51 - 1)
_OCTANT_ONE = np.uint64(1 << 61)
_SIGN = np.uint64(1 << 63)
# one offset step of an angle word within its octant, (pi/4) 2^-50
_PHI_STEP = math.pi / 4 * 2.0**-50

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


def _normal_scratch(rows: int, count: int):
    """(steps, work) for `_normals_into` on a rows x count draw.

    steps is the counter grid (j + 1) GOLDEN, j < 2 ceil(count / 2), laid
    out by role: the odd counters 1, 3, 5, ... (radius words) fill its first
    half and the even counters 2, 4, 6, ... (angle words) its second, so
    every pass of the kernel runs over contiguous words.  work is the
    kernel's uint64 scratch, (2, rows, len(steps)).  A draw builds both
    once; every slice and thread of it reads the same grid.
    """
    pairs = (count + 1) // 2
    width = 2 * pairs
    steps = np.empty(width, dtype=np.uint64)
    work = np.empty((2, rows, width), dtype=np.uint64)
    np.multiply(np.arange(1, width, 2, dtype=np.uint64), _GOLDEN, out=steps[:pairs])
    np.add(steps[:pairs], _GOLDEN, out=steps[pairs:])
    return steps, work


def _normals_into(out: np.ndarray, streams, steps: np.ndarray, work: np.ndarray) -> None:
    """Fill row i of out with the Box-Muller normals of stream streams[i].

    Normals 2j and 2j + 1 of a stream take their uniforms from its counters
    2j + 1 and 2j + 2; interleaved counters keep each stream
    prefix-consistent across lengths.  `_box_muller` turns the words into
    normals, taking cos and sin of the angle reduced to an octant, where
    libm runs no argument reduction.  steps and work are the counter grid
    and scratch of `_normal_scratch(len(out), out.shape[1])`, or row slices
    of a larger scratch; nothing of the count's size is allocated here.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    words = work[0]
    np.add(streams[:, None], steps, out=words)
    _mix64(words, work[1])
    words >>= np.uint64(11)
    _box_muller(out, work)


def _box_muller(out: np.ndarray, work: np.ndarray) -> None:
    """Fill out with the Box-Muller normals of the 53-bit words k in work[0].

    Each row of work[0] holds the radius words, then the angle words, one
    of each per pair of normals; u = (k + 1/2) 2^-53.  Normal 2j is
    r cos 2 pi u2 and normal 2j + 1 is r sin 2 pi u2, r = sqrt(-2 log u1).
    work[1] and out are the scratch.

    The angle 2 pi u2 is never formed: libm's cos and sin cost 2-3 times
    as much per element on [0, 2 pi), where they reduce the argument, as on
    (0, pi/4), where they do not (26-28 against 10-12 ns on a 2-core
    x86-64 VM).  An angle word is an octant q = k >> 50 and an offset
    w = k mod 2^50.  Complemented in odd octants, the offset gives
    phi = (w + 1/2)(pi/4) 2^-50 in (0, pi/4), and cos 2 pi u2 and
    sin 2 pi u2 are cos phi and sin phi, swapped in octants 1, 2, 5 and
    6, with cos negated in octants 2-5 and sin in 4-7.  The swap and the
    signs are integer operations on the float words, an XOR swap under an
    all-ones mask and a sign-bit XOR: masked ufuncs cost more than the
    reduction saves.
    """
    count = out.shape[1]
    pairs = (count + 1) // 2
    half = count // 2
    words, tmp = work[0], work[1]
    top, ang = words[:, :pairs], words[:, pairs:]
    rad = tmp.view(np.float64)[:, :pairs]
    cos = tmp.view(np.float64)[:, pairs:]
    np.copyto(rad, top, casting="unsafe")
    rad *= 2.0**-53
    rad += 2.0**-54
    np.log(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    # the spent radius words keep the angle words shifted up to the top
    # bit, which puts q in the top 3 bits
    np.left_shift(ang, np.uint64(11), out=top)
    # phi = (2^50 - |y - 2^50 + 1/2|)(pi/4) 2^-50 for y = k mod 2^51, the
    # offset complemented in odd octants; all but the last product is exact
    c = cos.view(np.uint64)
    np.bitwise_and(ang, _PARITY_AND_OFFSET, out=c)
    phi = ang.view(np.float64)
    np.copyto(phi, c, casting="unsafe")
    phi -= 2.0**50 - 0.5
    np.absolute(phi, out=phi)
    np.subtract(2.0**50, phi, out=phi)
    phi *= _PHI_STEP
    np.cos(phi, out=cos)
    np.sin(phi, out=phi)
    s = ang
    # the masks take out's first words, before the products fill them
    mask = out.view(np.uint64)[:, :pairs]
    # swap where bit 1 of q + 1 is set (q = 1, 2, 5, 6)
    np.add(top, _OCTANT_ONE, out=mask)
    mask <<= np.uint64(1)
    np.right_shift(mask.view(np.int64), 63, out=mask.view(np.int64))
    s ^= c
    mask &= s
    c ^= mask
    s ^= c
    # sin's sign is bit 2 of q, cos's bit 2 of q + 2
    np.bitwise_and(top, _SIGN, out=mask)
    s ^= mask
    top += 2 * _OCTANT_ONE
    top &= _SIGN
    c ^= top
    np.multiply(rad, cos, out=out[:, 0::2])
    np.multiply(rad[:, :half], phi[:, :half], out=out[:, 1::2])


def standard_normals(stream: int, count: int) -> np.ndarray:
    """Box-Muller normals from the counter-based stream."""
    out = np.empty((1, count))
    _normals_into(out, [stream], *_normal_scratch(1, count))
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
        _normals_into(z, streams, *_normal_scratch(len(streams), n))
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
    steps, work = _normal_scratch(rows, m)

    def draw(lo, hi, b):
        """Rows lo:hi of X, through buffer rows b:b + _CE_CHUNK."""
        for i0 in range(lo, hi, _CE_CHUNK):
            k = min(_CE_CHUNK, hi - i0)
            buf = slice(b, b + k)
            _normals_into(z[buf], streams[i0 : i0 + k], steps, work[:, buf])
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
    _normals_into(z, streams, *_normal_scratch(k, n * n))
    return la @ z.reshape(k, n, n) @ lb.T
