import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from entrospec import (
    AutoRegressive,
    DimensionMismatch,
    FourierTable,
    GaussianProcessModel,
    NonMonotone,
    NumericalError,
    PoissonKernel,
    SeparableFieldModel,
    SpectralGap,
    White,
)
from entrospec import sampling, toeplitz
from entrospec.cli import EXIT_ASSERT, EXIT_OK, main
from entrospec.sampling import (
    _CE_CHUNK,
    _circulant_embedding,
    _box_muller,
    _circulant_rows,
    _mix64,
    _normal_scratch,
    _normals_into,
    _stream_seeds,
    ensemble_residuals,
    ensemble_streams,
    log_derivative,
    path_sampler,
    sample_field,
    sample_paths,
    standard_normals,
)
from entrospec.smb import _FIELD_BATCH, information_at
from entrospec.toeplitz import _FACTOR_BLOCK

from conftest import dense_cov, dense_innovations, make_non_banded_zoo, make_zoo

# an AR(2) with a sharp spectral peak: its minimal circulant embedding has
# negative eigenvalues at every n tried here
RESONANT = GaussianProcessModel(AutoRegressive([1.6, -0.9], 1.0))


def synthesis_map(model, n):
    """(m, B): the circulant synthesis applied to the identity in place of
    normals, so that a path drawn from the normals z is z @ B."""
    m, s = _circulant_embedding(model, n)
    x = np.eye(m)
    _circulant_rows(s, x, np.zeros((m, len(s)), dtype=np.complex128))
    return m, x[:, :n]


def normals(seed, count):
    """The first count normals of the stream of (seed, index 0)."""
    return standard_normals(scalar_stream(seed, 0), count)


MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """The SplitMix64 finalizer on a Python int."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def scalar_stream(base, index):
    """The stream id of (base, index) in Python integers, a route apart from
    the package's vectorized uint64 arithmetic."""
    base &= MASK
    return mix64(mix64((base + GOLDEN) & MASK) ^ mix64((index * GOLDEN + GOLDEN) & MASK))


class TestStreams:
    def test_stream_seed_deterministic(self):
        assert ensemble_streams(42, 1)[0] == ensemble_streams(42, 1)[0]
        assert ensemble_streams(42, 2)[0] != ensemble_streams(42, 2)[1]
        assert ensemble_streams(42, 1)[0] != ensemble_streams(43, 1)[0]

    def test_streams_decorrelated(self):
        # adjacent indices give normals with negligible empirical correlation
        streams = ensemble_streams(7, 2)
        a = standard_normals(streams[0], 20000)
        b = standard_normals(streams[1], 20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_normals_pass_ks(self):
        z = normals(123, 10000)
        stat = scipy.stats.kstest(z, "norm")
        assert stat.pvalue > 0.001

    def test_normals_moments(self):
        z = normals(5, 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(scipy.stats.skew(z)) < 0.02
        assert abs(scipy.stats.kurtosis(z)) < 0.05


class TestBatchedNormals:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
    def test_rows_bit_identical_to_single_streams(self, n):
        streams = [0, 1, 12345, 2**63, 2**64 - 1]
        X = np.empty((len(streams), n))
        _normals_into(X, np.array(streams, dtype=np.uint64), *_normal_scratch(len(streams), n))
        for row, s in zip(X, streams):
            assert np.array_equal(row, standard_normals(s, n))

    def test_stream_values_pinned(self):
        # bit-exact reproducibility: values recorded from the single-stream
        # generator with the octant-reduced angle
        want = [
            -0.45275774021745807,
            0.20776603893419174,
            2.6506058120796703,
            -0.49042282539864723,
            -0.9886041246243279,
        ]
        assert normals(0, 5).tolist() == want
        assert standard_normals(scalar_stream(2**64 - 1, 3), 3).tolist() == [
            1.1321284469738484,
            -0.016626757606586173,
            -1.2646342872110257,
        ]

    def test_stream_seeds_match_scalar(self):
        bases = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
        for index in (0, 3):
            got = _stream_seeds(bases, index)
            assert [int(v) for v in got] == [scalar_stream(int(b), index) for b in bases]

    @pytest.mark.parametrize("base", [0, 7, 2**63, 2**64 - 1, -3, 2**70 + 5])
    def test_ensemble_seeds_match_scalar(self, base):
        # (base, i) mixed, then (that, 0)
        got = ensemble_streams(base, 300)
        assert got.dtype == np.uint64
        assert got.tolist() == [scalar_stream(scalar_stream(base, i), 0) for i in range(300)]
        assert ensemble_streams(base, 0).size == 0

    def test_draws_pinned(self):
        # recorded from the octant-reduced Box-Muller kernel
        streams = ensemble_streams(5, 3)
        X = sample_paths(GaussianProcessModel(PoissonKernel(0.5)), 8, streams)
        assert X.tolist() == [
            [1.377728069674568, -0.10500467593332408, 0.05061320858122504, 0.5675908180934949,
             0.9457296422018572, 0.42062072306971804, 0.38061001260648586, 0.4811590211485591],
            [-2.544904738291495, -0.7449600820371792, -0.3409438609405476, -0.03751283435681518,
             -0.5823867140564002, -1.3053194716761947, -0.2522814397735884, -1.648462197426701],
            [-1.0275182080777807, -1.2118278025182687, -0.359411029812248, 0.024164474306326574,
             -0.5677908496585143, -1.2545162067039415, 0.4973520379300059, -0.5802350662011686],
        ]
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        assert sample_field(fm, 2, streams).tolist() == [
            [[-0.22307391580926259, 0.031145771256364686], [0.4336284279715053, 0.6341200113271729]],
            [[-2.919663510310328, -1.4207438325248862], [-2.126989667653056, -1.8638708262400348]],
            [[-2.561625509772785, -0.7489699369099004], [-1.2822069851312337, -1.5058580385965148]],
        ]


def box_muller(word_pairs):
    """The normals of (radius word, angle word) pairs fed to the kernel's
    Box-Muller step directly, one pair per row."""
    words = np.array(word_pairs, dtype=np.uint64)
    work = np.empty((2, len(words), 2), dtype=np.uint64)
    work[0] = words
    out = np.empty((len(words), 2))
    _box_muller(out, work)
    return out


def direct_box_muller(k1, k2):
    """(r, r cos 2 pi u2, r sin 2 pi u2) in float64 by the textbook formula,
    u = (k + 1/2) 2^-53 rounded as the kernel rounds it."""
    u1 = float(k1) * 2.0**-53 + 2.0**-54
    u2 = float(k2) * 2.0**-53 + 2.0**-54
    r = math.sqrt(-2.0 * math.log(u1))
    return r, r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


OFFSET = 2**50  # offsets per octant of a 53-bit angle word

# the largest move from the direct formula, in units of the radius r, was
# 1.07e-15 over 200 x 8190 stream normals and 5.3e-16 at the octant edges;
# the direct formula's own angle 2 pi u2 carries up to 6.9e-16 of rounding
DIRECT_TOL = 1.1e-15

# 40-digit mpmath values of (r cos 2 pi u2, r sin 2 pi u2) for word pairs
# (k1, k2), u = (k + 1/2) 2^-53 taken exactly; the kernel was at most
# 2.3e-16 off relative.  In octants 2 and 5 at the offset edges the direct
# formula's cosine is 10% and 47% off: 2 pi u2 rounds near pi/2 and 3 pi/2
MPMATH_PINS = {
    (2**52 + 1, 0): (1.177410022515474408131, 4.106651326771357190604e-16),
    (2**52 + 987654321, OFFSET + 3): (0.8325544794526375928401, 0.8325544794526416582168),
    (2**52, 2 * OFFSET): (-4.106651326771357848372e-16, 1.177410022515474596718),
    (2**50, 3 * OFFSET + 2**49 + 7): (-1.88409892438870399756, 0.7804193273343501870672),
    (2**51, 5 * OFFSET - 5): (-1.177410022515478292704, -1.177410022515470900732),
    (2**52, 6 * OFFSET - 1): (-4.106651326771357848372e-16, -1.177410022515474596718),
    (3 * 2**50, 6 * OFFSET + 2**48): (0.2732419829855182669959, -1.373680211969872529378),
    (12345, 7 * OFFSET + 2**49): (6.82868276589907641633, -2.828533014778813514314),
}


class TestBoxMullerAngle:
    @pytest.mark.parametrize("octant", range(8))
    def test_octant_edges_match_direct_formula(self, octant):
        # both edges of the octant's offsets, under small, middling and
        # large radii
        pairs = [
            (k1, octant * OFFSET + w)
            for w in (0, OFFSET - 1)
            for k1 in (12345, 2**52, 2**53 - 2**20)
        ]
        for (k1, k2), (c, s) in zip(pairs, box_muller(pairs)):
            r, want_c, want_s = direct_box_muller(k1, k2)
            assert abs(c - want_c) <= DIRECT_TOL * r
            assert abs(s - want_s) <= DIRECT_TOL * r

    def test_edge_values_are_exact(self):
        # at offset 0 of octants 0 and 2, phi = (pi/4) 2^-51 and cos phi = 1,
        # so one normal of each pair is the radius itself
        (c0, s0), (c2, s2) = box_muller([(2**52, 0), (2**52, 2 * OFFSET)])
        r = math.sqrt(-2.0 * math.log(0.5 + 2.0**-54))
        assert c0 == s2 == r
        assert s0 == -c2 == r * (math.pi / 4 * 2.0**-51)

    def test_stream_matches_direct_formula(self):
        streams = ensemble_streams(11, 4)
        steps, work = _normal_scratch(4, 8190)
        got = np.empty((4, 8190))
        _normals_into(got, streams, steps, work)
        np.add(streams[:, None], steps, out=work[0])
        _mix64(work[0], work[1])
        k = work[0] >> np.uint64(11)
        u1 = k[:, :4095].astype(np.float64) * 2.0**-53 + 2.0**-54
        u2 = k[:, 4095:].astype(np.float64) * 2.0**-53 + 2.0**-54
        r = np.sqrt(-2.0 * np.log(u1))
        # all eight octants are drawn
        assert set((k[:, 4095:] >> np.uint64(50)).ravel().tolist()) == set(range(8))
        assert np.all(np.abs(got[:, 0::2] - r * np.cos(2.0 * np.pi * u2)) <= DIRECT_TOL * r)
        assert np.all(np.abs(got[:, 1::2] - r * np.sin(2.0 * np.pi * u2)) <= DIRECT_TOL * r)

    def test_vs_mpmath(self):
        got = box_muller(list(MPMATH_PINS))
        want = np.array(list(MPMATH_PINS.values()))
        assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))

    def test_kernel_allocates_nothing_of_its_size(self):
        # the counter grid and every temporary come from the caller: one
        # 4 x 8190 draw allocates no 64 KB row of words
        streams = ensemble_streams(3, 4)
        out = np.empty((4, 8190))
        steps, work = _normal_scratch(4, 8190)
        tracemalloc.start()
        try:
            _normals_into(out, streams, steps, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096


class TestSamplePath:
    def test_bit_exact_reproducibility(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        a = sample_paths(model, 64, [99])[0]
        b = sample_paths(model, 64, [99])[0]
        assert np.array_equal(a, b)

    def test_seed_changes_path(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        a = sample_paths(model, 64, [99])[0]
        b = sample_paths(model, 64, [100])[0]
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "model, n",
        [
            (make_zoo()["poisson05"], 256),
            (make_non_banded_zoo()["power"], 256),
            (RESONANT, 64),
        ],
        ids=["poisson05", "power", "resonant_padded"],
    )
    def test_lag_covariances_match(self, model, n):
        # per-path averages of x_j x_{j+k}, k = 0..3, over many paths: their
        # ensemble mean is r(k) within 5 standard errors
        M = 4000
        X = sample_paths(model, n, range(M))
        r = model.autocovariance(3)
        for k in range(4):
            g = np.mean(X[:, : n - k] * X[:, k:], axis=1)
            assert abs(g.mean() - r[k]) <= 5.0 * g.std(ddof=1) / math.sqrt(M)

    def test_marginal_is_standard_over_seeds(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        x0 = np.array([sample_paths(model, 1, [s])[0, 0] for s in range(10000)])
        stat = scipy.stats.kstest(x0, "norm")
        assert stat.pvalue > 0.001

    def test_lag_one_covariance(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 2, range(100000))
        est = float(np.mean(X[:, 0] * X[:, 1]))
        assert est == pytest.approx(0.5, abs=0.01)

    def test_quadratic_form_is_chi_square(self):
        # x^T R_n^{-1} x ~ chi^2_n: mean n, variance 2n
        model = GaussianProcessModel(PoissonKernel(0.5))
        n, M = 8, 4000
        X = sample_paths(model, n, range(M))
        fact = model.factorization(n)
        q = np.array([fact.quadratic_form(row) for row in X])
        assert q.mean() == pytest.approx(n, abs=4 * math.sqrt(2 * n / M) * math.sqrt(n))
        assert q.var(ddof=1) == pytest.approx(2 * n, rel=0.15)


def allow_cpus(monkeypatch, count):
    """Make `sample_paths` see count usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_synthesis_threads(monkeypatch):
    """The set of threads that run `_circulant_rows` from now on."""
    threads = set()
    rows = sampling._circulant_rows

    def recorded(*args):
        threads.add(threading.current_thread())
        rows(*args)

    monkeypatch.setattr(sampling, "_circulant_rows", recorded)
    return threads


class TestEnsemble:
    def test_rows_match_single_paths(self, monkeypatch):
        # rows are bit-identical to single paths across chunk seams and across
        # the two threads' halves, and each is the synthesis map applied to
        # that stream's normals; a second thread draws once there are two chunks
        allow_cpus(monkeypatch, 2)
        model = GaussianProcessModel(PoissonKernel(0.5))
        n = 128
        m, B = synthesis_map(model, n)
        for M in (1, 3, 4, 5, 9, 17, 200, 257):
            streams = list(range(M - 1)) + [159]
            threads = record_synthesis_threads(monkeypatch)
            X = sample_paths(model, n, streams)
            assert len(threads) == (2 if M > _CE_CHUNK else 1)
            for i, s in enumerate(streams):
                assert np.array_equal(X[i], sample_paths(model, n, [s])[0])
                assert np.max(np.abs(X[i] - standard_normals(s, m) @ B)) <= 1e-10

    def test_one_cpu_draws_serially(self, monkeypatch):
        model = GaussianProcessModel(PoissonKernel(0.5))
        streams = ensemble_streams(4, 3 * _CE_CHUNK + 1)
        allow_cpus(monkeypatch, 2)
        split = sample_paths(model, 100, streams)
        allow_cpus(monkeypatch, 1)
        threads = record_synthesis_threads(monkeypatch)
        assert np.array_equal(sample_paths(model, 100, streams), split)
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("count", [1, None, 2])
    def test_cpu_count_without_affinity(self, monkeypatch, count):
        # where os has no sched_getaffinity (as on macOS) the usable CPUs are
        # os.cpu_count(), 1 when it is unknown; the rows do not depend on them
        model = GaussianProcessModel(PoissonKernel(0.5))
        streams = ensemble_streams(4, 3 * _CE_CHUNK + 1)
        default = sample_paths(model, 100, streams)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        threads = record_synthesis_threads(monkeypatch)
        assert np.array_equal(sample_paths(model, 100, streams), default)
        assert len(threads) == (2 if count == 2 else 1)
        assert threading.current_thread() in threads

    @pytest.mark.parametrize("side", [None, "worker", "caller"])
    def test_worker_is_joined_and_its_error_raised(self, monkeypatch, side):
        # the worker's rows are slowed, so that a return before the join
        # would show: the rows are complete, no thread outlives the call, and
        # an error in either half reaches the caller with its type
        class Injected(Exception):
            pass

        caller = threading.current_thread()
        rows = sampling._circulant_rows

        def slowed(*args):
            on_worker = threading.current_thread() is not caller
            if on_worker:
                time.sleep(0.01)
            if side == ("worker" if on_worker else "caller"):
                raise Injected(side)
            rows(*args)

        model = GaussianProcessModel(PoissonKernel(0.5))
        streams = range(3 * _CE_CHUNK)
        allow_cpus(monkeypatch, 1)
        serial = sample_paths(model, 64, streams)
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(sampling, "_circulant_rows", slowed)
        before = threading.active_count()
        if side is None:
            assert np.array_equal(sample_paths(model, 64, streams), serial)
        else:
            with pytest.raises(Injected, match=side):
                sample_paths(model, 64, streams)
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", sorted(make_non_banded_zoo()))
    def test_non_banded_rows_across_block_seams(self, name):
        # every predictor order differs, so each row block of the inverse
        # factor is dense and a seam error would show in later innovations
        model = make_non_banded_zoo()[name]
        n = 2 * _FACTOR_BLOCK + 3
        streams = [3, 14, 159]
        X = sample_paths(model, n, streams)
        E = ensemble_residuals(model, X)
        m, B = synthesis_map(model, n)
        for i, s in enumerate(streams):
            z = standard_normals(s, m)
            assert np.max(np.abs(X[i] - z @ B)) <= 1e-10
            assert np.max(np.abs(E[i] - dense_innovations(model, X[i]))) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4 * _FACTOR_BLOCK + 3])
    @pytest.mark.parametrize("name", sorted({**make_zoo(), **make_non_banded_zoo()}))
    def test_synthesis_covariance_is_exact(self, name, n):
        # the synthesis map B carries white normals to N(0, B^T B) = N(0, R_n)
        model = {**make_zoo(), **make_non_banded_zoo()}[name]
        assert path_sampler(model, n) == "circulant"
        _, B = synthesis_map(model, n)
        assert np.max(np.abs(B.T @ B - dense_cov(model, n))) <= 1e-12

    def test_k1_mutation_fails_gate(self, monkeypatch):
        # the sampler does not use the Levinson factor, so a wrong reflection
        # coefficient in the evaluator shifts the mean information past the band
        argv = ["smb", "--model", "ar:0.5:0.75", "--n", "64,256,1024,4096",
                "--m", "200", "--seed", "7", "--assert"]
        assert main(argv) == EXIT_OK
        levinson = toeplitz.levinson

        def mutated(r, n):
            # a factorization's arrays are read-only: rebuild it around a copy
            fact = levinson(r, n)
            k = fact.reflections.copy()
            k[0] += 0.1
            return toeplitz.LevinsonFactorization(
                fact.sigma2, k, fact.r0, fact._logdet, fact.predictor, fact._log_comp
            )

        monkeypatch.setattr(toeplitz, "levinson", mutated)
        assert main(argv) == EXIT_ASSERT

    def test_one_dimensional_input_is_one_row(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 64, [5])
        assert np.array_equal(ensemble_residuals(model, X[0]), ensemble_residuals(model, X)[0])

    def test_residuals_are_white(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 4, range(20000))
        E = ensemble_residuals(model, X)
        fact = model.factorization(4)
        Z = E / np.sqrt(fact.sigma2[:4])[None, :]
        C = np.cov(Z.T)
        assert np.allclose(np.diag(C), 1.0, atol=0.03)
        off = C - np.diag(np.diag(C))
        assert np.max(np.abs(off)) < 0.03


class TestSamplerChoice:
    CASES = {
        "resonant_n16": (RESONANT, 16),
        # a density that vanishes on an arc has no nonnegative embedding at any n
        "gap_white_n64": (GaussianProcessModel(SpectralGap(0.25) + White(0.01)), 64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_levinson_fallback_matches_cholesky(self, case):
        # no nonnegative embedding up to 4x: rows are the dense Cholesky draw
        # L z of n normals, all rows one stacked product, each row a function
        # of its own stream whatever the ensemble size
        model, n = self.CASES[case]
        assert path_sampler(model, n) == "cholesky"
        chol = np.linalg.cholesky(dense_cov(model, n))
        sigma = np.sqrt(model.factorization(n).sigma2[:n])
        for k in (1, 3, 200):
            streams = [3, 14, 159, *range(1000, 1197)][:k]
            X = sample_paths(model, n, streams)
            assert X.shape == (k, n)
            # independent of the sampler: the Levinson innovations whiten each row
            Z = ensemble_residuals(model, X) / sigma
            for i, s in enumerate(streams):
                z = standard_normals(s, n)
                assert np.max(np.abs(X[i] - chol @ z)) <= 1e-10
                assert np.max(np.abs(Z[i] - z)) <= 1e-10
                assert np.array_equal(X[i], sample_paths(model, n, [s])[0])

    @pytest.mark.parametrize(
        "density", [AutoRegressive([1.8, -0.9], 1.0), AutoRegressive([0.5], 0.75)], ids=str
    )
    def test_drawing_factors_nothing(self, monkeypatch, density):
        # a draw reads lags only; Levinson runs for the model's scores
        def refused(*args):
            raise AssertionError("the draw ran Levinson")

        monkeypatch.setattr(toeplitz, "levinson", refused)
        monkeypatch.setattr(toeplitz.LevinsonFactorization, "extend", refused)
        assert path_sampler(GaussianProcessModel(density), 30) == "circulant"
        X = sample_paths(GaussianProcessModel(density), 30, ensemble_streams(0, 9))
        assert X.shape == (9, 30) and np.isfinite(X).all()

    def test_padded_embedding_checks_its_lags(self):
        # n = 30 needs the embedding of twice the minimal size, whose lags
        # reach 58: a NaN there is a NumericalError, not a Cholesky draw
        class NanPastForty(AutoRegressive):
            def autocovariance(self, max_lag):
                acov = super().autocovariance(max_lag)
                acov[41:] = math.nan
                return acov

        model = GaussianProcessModel(NanPastForty([1.8, -0.9], 1.0))
        with pytest.raises(NumericalError, match=r"ar:1.8,-0.9:1: r\(41\) = nan"):
            sample_paths(model, 30, ensemble_streams(0, 3))

    def test_fourier_table_pads_embedding(self):
        # the embeddings of [1, .9, .7] of size 4 and 8 are negative; the one
        # of size 16 reads the lags of the table's maximum-entropy extension
        model = GaussianProcessModel(FourierTable([1.0, 0.9, 0.7]))
        n = 3
        m, B = synthesis_map(model, n)
        assert path_sampler(model, n) == "circulant"
        assert m == 4 * 2 * (n - 1)
        assert np.max(np.abs(B.T @ B - dense_cov(model, n))) <= 1e-12
        streams = [3, 14, 159]
        X = sample_paths(model, n, streams)
        for i, s in enumerate(streams):
            assert np.max(np.abs(X[i] - standard_normals(s, m) @ B)) <= 1e-12
            assert np.array_equal(X[i], sample_paths(model, n, [s])[0])

    def test_padded_embedding(self):
        # the minimal embedding of size 2(n-1) is negative; twice that is not
        n = 64
        m, B = synthesis_map(RESONANT, n)
        assert path_sampler(RESONANT, n) == "circulant"
        assert m == 4 * (n - 1)
        assert np.max(np.abs(B.T @ B - dense_cov(RESONANT, n))) <= 1e-12 * RESONANT.r0


class TestTransformPath:
    # a transform phi enters the path information only through log phi'
    def test_identity_transform(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 16, [1])
        ones = lambda x: np.ones_like(x)
        assert np.sum(log_derivative(ones, X[0])) == 0.0
        grid = range(1, 17)
        assert np.array_equal(information_at(model, X, grid, ones), information_at(model, X, grid))

    def test_affine_transform_jacobian(self):
        model = GaussianProcessModel(White(1.0))
        X = sample_paths(model, 10, [2])
        threes = lambda x: 3 * np.ones_like(x)
        assert np.sum(log_derivative(threes, X[0])) == pytest.approx(10 * math.log(3.0), abs=1e-12)
        shift = information_at(model, X, [10], threes) - information_at(model, X, [10])
        assert shift[0, 0] == pytest.approx(10 * math.log(3.0), abs=1e-12)

    def test_nonmonotone_rejected(self):
        model = GaussianProcessModel(White(1.0))
        X = sample_paths(model, 10, [2])
        with pytest.raises(NonMonotone):
            log_derivative(lambda x: 2 * x, X[0])
        with pytest.raises(NonMonotone):
            information_at(model, X, [10], lambda x: 2 * x)


class TestSampleField:
    def test_reproducible(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        a = sample_field(fm, 8, [4])
        b = sample_field(fm, 8, [4])
        assert a.shape == (1, 8, 8)
        assert np.array_equal(a, b)

    def test_covariance_structure(self):
        # cov(X_{0,0}, X_{0,1}) = r_a(0) r_b(1) = 0.5; cov with X_{1,1} = 0.25
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        vals = sample_field(fm, 2, range(100000))
        assert float(np.mean(vals[:, 0, 0] * vals[:, 0, 1])) == pytest.approx(0.5, abs=0.01)
        assert float(np.mean(vals[:, 0, 0] * vals[:, 1, 1])) == pytest.approx(0.25, abs=0.01)
        assert float(np.mean(vals[:, 0, 0] ** 2)) == pytest.approx(1.0, abs=0.015)

    def test_anisotropic_factors(self):
        # cov(X_{0,0}, X_{1,0}) = r_a(1); cov(X_{0,0}, X_{0,1}) = r_b(1)
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        vals = sample_field(fm, 2, range(100000))
        assert float(np.mean(vals[:, 0, 0] * vals[:, 1, 0])) == pytest.approx(0.5, abs=0.01)
        assert float(np.mean(vals[:, 0, 0] * vals[:, 0, 1])) == pytest.approx(0.0, abs=0.01)

    @pytest.mark.parametrize("n", [1, 3, 45, 64, 129])
    def test_stacks_match_single_fields(self, n):
        # stacks of smb2d's size, max(1, _FIELD_BATCH // n^2) fields; n^2 is
        # odd at 1, 3, 45 and 129, and the stacks of 45 and 64 end inside the
        # streams, so the comparison crosses stack seams and a partial last stack
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        batch = max(1, _FIELD_BATCH // (n * n))
        streams = [0, 1, 2**64 - 1] + list(range(10, 10 + 2 * batch))
        stack = np.concatenate(
            [sample_field(fm, n, streams[i0 : i0 + batch]) for i0 in range(0, len(streams), batch)]
        )
        assert stack.shape == (len(streams), n, n)
        for i in {0, 1, 2, batch - 1, batch, len(streams) - 1}:
            assert np.array_equal(stack[i], sample_field(fm, n, [streams[i]])[0])

    def test_single_field_is_cholesky_draw(self):
        # L_a Z L_b^T from the stream's own normals, independent of the stacking
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        n = 5
        z = standard_normals(11, n * n).reshape(n, n)
        want = fm.cholesky_a(n) @ z @ fm.cholesky_b(n).T
        assert np.max(np.abs(sample_field(fm, n, [11])[0] - want)) <= 1e-14

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_size_raises(self, n):
        fm = SeparableFieldModel(White(1.0), White(1.0))
        for streams in ([0], [0, 1]):
            with pytest.raises(DimensionMismatch):
                sample_field(fm, n, streams)
