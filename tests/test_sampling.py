import math

import numpy as np
import pytest
import scipy.stats

from entrospec import (
    AutoRegressive,
    DimensionMismatch,
    FourierTable,
    GaussianProcessModel,
    NonMonotone,
    PoissonKernel,
    SeparableFieldModel,
    White,
)
from entrospec import toeplitz
from entrospec.cli import EXIT_ASSERT, EXIT_OK, main
from entrospec.sampling import (
    _CE_CHUNK,
    _circulant_embedding,
    _circulant_rows,
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
    x = np.empty((m, m))
    _circulant_rows(s, np.eye(m), np.zeros((m, len(s)), dtype=np.complex128), x)
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
        _normals_into(X, np.array(streams, dtype=np.uint64))
        for row, s in zip(X, streams):
            assert np.array_equal(row, standard_normals(s, n))

    def test_stream_values_pinned(self):
        # bit-exact reproducibility: values recorded from the single-stream generator
        want = [
            -0.45275774021745807,
            0.20776603893419174,
            2.65060581207967,
            -0.49042282539864784,
            -0.9886041246243277,
        ]
        assert normals(0, 5).tolist() == want
        assert standard_normals(scalar_stream(2**64 - 1, 3), 3).tolist() == [
            1.1321284469738484,
            -0.016626757606585725,
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
        # recorded before the draws took streams, from the same streams
        streams = ensemble_streams(5, 3)
        X = sample_paths(GaussianProcessModel(PoissonKernel(0.5)), 8, streams)
        assert X.tolist() == [
            [1.377728069674568, -0.10500467593332381, 0.05061320858122478, 0.5675908180934951,
             0.9457296422018568, 0.42062072306971815, 0.38061001260648575, 0.48115902114855924],
            [-2.5449047382914944, -0.7449600820371785, -0.34094386094054724, -0.03751283435681493,
             -0.5823867140564002, -1.305319471676195, -0.2522814397735891, -1.6484621974267022],
            [-1.0275182080777803, -1.2118278025182683, -0.359411029812248, 0.02416447430632651,
             -0.5677908496585148, -1.2545162067039417, 0.4973520379300059, -0.5802350662011684],
        ]
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        assert sample_field(fm, 2, streams).tolist() == [
            [[-0.2230739158092626, 0.031145771256364644], [0.4336284279715053, 0.6341200113271729]],
            [[-2.919663510310328, -1.4207438325248851], [-2.1269896676530564, -1.863870826240034]],
            [[-2.561625509772785, -0.7489699369099], [-1.282206985131233, -1.5058580385965141]],
        ]


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


class TestEnsemble:
    def test_rows_match_single_paths(self):
        # rows are bit-identical to single paths across chunk seams, and each
        # is the synthesis map applied to that stream's normals
        model = GaussianProcessModel(PoissonKernel(0.5))
        n = 128
        streams = list(range(_CE_CHUNK + 5)) + [159]
        X = sample_paths(model, n, streams)
        m, B = synthesis_map(model, n)
        for i, s in enumerate(streams):
            assert np.array_equal(X[i], sample_paths(model, n, [s])[0])
            assert np.max(np.abs(X[i] - standard_normals(s, m) @ B)) <= 1e-10

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
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_levinson_fallback_matches_cholesky(self, case):
        # no nonnegative embedding up to 4x: rows are the dense Cholesky draw
        # L z of n normals, one GEMV each
        model, n = self.CASES[case]
        assert path_sampler(model, n) == "cholesky"
        streams = [3, 14, 159]
        X = sample_paths(model, n, streams)
        chol = np.linalg.cholesky(dense_cov(model, n))
        # independent of the sampler: the Levinson innovations whiten each row
        Z = ensemble_residuals(model, X) / np.sqrt(model.factorization(n).sigma2[:n])
        for i, s in enumerate(streams):
            z = standard_normals(s, n)
            assert np.max(np.abs(X[i] - chol @ z)) <= 1e-10
            assert np.max(np.abs(Z[i] - z)) <= 1e-10
            assert np.array_equal(X[i], sample_paths(model, n, [s])[0])

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
