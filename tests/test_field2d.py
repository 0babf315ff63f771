import math

import numpy as np
import pytest

from entrospec import (
    DimensionMismatch,
    MovingAverage,
    PoissonKernel,
    SeparableFieldModel,
    White,
)
from entrospec.gaussian_model import HALF_LOG_2PI_E, LOG_2PI
from entrospec.modelspec import density_from_string
from entrospec.spectral import NEG_INF
from entrospec.toeplitz import _FACTOR_BLOCK, toeplitz_matrix

from conftest import ARC_GAP, dense_cov


def form(fm, X):
    """The Kronecker quadratic form of one (n, n) field, from a stack of one."""
    return float(fm.kronecker_quadratic_form(X[None], [X.shape[-1]])[0, 0])


def density(fm, X):
    """The log block density of one (n, n) field, from a stack of one."""
    return float(fm.log_block_density_2d(X[None], [X.shape[-1]])[0, 0])


def dense_kron_cov(fm, n):
    ra = toeplitz_matrix(fm.factor_a.autocovariance(n - 1), n)
    rb = toeplitz_matrix(fm.factor_b.autocovariance(n - 1), n)
    return np.kron(ra, rb)


FIELDS = {
    "p05xp05": lambda: SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5)),
    "p05xwhite": lambda: SeparableFieldModel(PoissonKernel(0.5), White(1.0)),
    "ma1xp03": lambda: SeparableFieldModel(
        MovingAverage([1.0, 0.5]), PoissonKernel(-0.3)
    ),
}


class TestKroneckerAgainstDense:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_log_det(self, name, n):
        fm = FIELDS[name]()
        R = dense_kron_cov(fm, n)
        sign, want = np.linalg.slogdet(R)
        assert sign > 0
        assert fm.log_det(n) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_quadratic_form(self, name, n):
        fm = FIELDS[name]()
        R = dense_kron_cov(fm, n)
        rng = np.random.default_rng(77)
        for _ in range(5):
            X = rng.standard_normal((n, n))
            want = X.ravel() @ np.linalg.solve(R, X.ravel())
            assert form(fm, X) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_quadratic_form_across_block_seams(self, name):
        # tr(R_a^-1 X R_b^-1 X^T) with scipy Toeplitz matrices, at a size
        # where the inverse factors are assembled from several row blocks
        fm = FIELDS[name]()
        n = _FACTOR_BLOCK + 2
        ra = dense_cov(fm.factor_a, n)
        rb = dense_cov(fm.factor_b, n)
        X = np.random.default_rng(79).standard_normal((n, n))
        want = float(np.sum(np.linalg.solve(ra, X) * np.linalg.solve(rb, X.T).T))
        assert form(fm, X) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 3, 4, _FACTOR_BLOCK + 2, 2 * _FACTOR_BLOCK + 2])
    def test_stacked_quadratic_form_matches_single(self, name, n):
        fm = FIELDS[name]()
        stack = np.random.default_rng(80).standard_normal((5, n, n))
        got = fm.kronecker_quadratic_form(stack, [n])
        assert got.shape == (5, 1)
        assert got[:, 0].tolist() == [form(fm, X) for X in stack]
        dens = fm.log_block_density_2d(stack, [n])
        assert dens.shape == (5, 1)
        assert dens[:, 0].tolist() == [density(fm, X) for X in stack]

    def test_grid_forms_match_leading_blocks(self):
        # a dense inverse factor (every A row full): the grid forms of one
        # product equal the size-m forms of the contiguous leading blocks
        fm = SeparableFieldModel(
            density_from_string("power_singular:0.3"), density_from_string("ma:1,0.9")
        )
        grid = [8, 16, 32, 64]
        stack = np.random.default_rng(81).standard_normal((3, 64, 64))
        got = fm.kronecker_quadratic_form(stack, grid)
        assert got.shape == (3, len(grid))
        dens = fm.log_block_density_2d(stack, grid)
        for X, q, d in zip(stack, got, dens):
            assert fm.kronecker_quadratic_form(X[None], grid)[0].tolist() == q.tolist()
            for col, m in enumerate(grid):
                block = np.ascontiguousarray(X[:m, :m])
                assert q[col] == pytest.approx(form(fm, block), rel=1e-12)
                assert d[col] == pytest.approx(density(fm, block), rel=1e-12)

    @pytest.mark.parametrize("grid", [[0, 4], [4, 5], [-1], []], ids=str)
    def test_grid_outside_field_rejected(self, grid):
        fm = FIELDS["p05xp05"]()
        with pytest.raises(DimensionMismatch):
            fm.kronecker_quadratic_form(np.ones((2, 4, 4)), grid)
        with pytest.raises(DimensionMismatch):
            fm.log_block_density_2d(np.ones((2, 4, 4)), grid)

    # a single (n, n) field is not a stack either
    @pytest.mark.parametrize(
        "shape", [(), (3,), (3, 4), (1, 1), (2, 3, 4), (0, 0), (2, 0, 0), (1, 1, 2, 2)], ids=str
    )
    def test_quadratic_form_rejects_non_square(self, shape):
        fm = FIELDS["p05xp05"]()
        with pytest.raises(DimensionMismatch):
            fm.kronecker_quadratic_form(np.ones(shape), [1])
        with pytest.raises(DimensionMismatch):
            fm.log_block_density_2d(np.ones(shape), [1])

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_log_block_density(self, name):
        fm = FIELDS[name]()
        n = 4
        R = dense_kron_cov(fm, n)
        rng = np.random.default_rng(78)
        X = rng.standard_normal((n, n))
        x = X.ravel()
        _, logdet = np.linalg.slogdet(R)
        want = -0.5 * (n * n * LOG_2PI + logdet + x @ np.linalg.solve(R, x))
        assert density(fm, X) == pytest.approx(want, abs=1e-8)


class TestBlockEntropy2d:
    def test_white_field(self):
        fm = SeparableFieldModel(White(1.0), White(1.0))
        for n in (1, 2, 5):
            assert fm.block_entropy(n) == pytest.approx(
                n * n * HALF_LOG_2PI_E, abs=1e-12
            )

    def test_poisson_cross_white(self):
        # factor logdets: D_a(2) = log 0.75, D_b(2) = 0
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        want = 4 * HALF_LOG_2PI_E + 0.5 * 2 * math.log(0.75)
        assert fm.block_entropy(2) == pytest.approx(want, abs=1e-12)

    def test_poisson_square(self):
        # both factors contribute: n(D_a + D_b) = 2(log .75 + log .75)
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        want = 4 * HALF_LOG_2PI_E + 0.5 * 4 * math.log(0.75)
        assert fm.block_entropy(2) == pytest.approx(want, abs=1e-12)

    def test_normalized_entropy_converges_to_rate(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        se = fm.entropy_rate()
        vals = [fm.block_entropy(n) / (n * n) for n in (8, 32, 128)]
        errs = [abs(v - se) for v in vals]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 1e-2

    def test_rate_is_sum_of_factor_integrals(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), MovingAverage([1.0, 0.5]))
        want = HALF_LOG_2PI_E + 0.5 * (
            fm.factor_a.szego_integral() + fm.factor_b.szego_integral()
        )
        assert fm.entropy_rate() == pytest.approx(want, abs=1e-12)

    def test_degenerate_factor_gives_minus_inf(self):
        fm = SeparableFieldModel(ARC_GAP, White(1.0))
        assert fm.entropy_rate() == NEG_INF


class TestCaches:
    def test_cholesky_factors_are_read_only(self):
        # a caller's write into a returned factor must not reach the cache
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        for factor in (fm.cholesky_a(4), fm.cholesky_b(4)):
            with pytest.raises(ValueError):
                factor[0, 0] = 99.0
        assert fm.cholesky_a(4)[0, 0] == 1.0

    def test_concurrent_queries_share_cached_factors(self):
        # more threads than cores, switching often: a cache filled twice for
        # one n would hand some thread an object that is not the cached one
        import sys
        from concurrent.futures import ThreadPoolExecutor

        fm = SeparableFieldModel(PoissonKernel(0.5), MovingAverage([1.0, 0.5]))
        X = np.random.default_rng(3).standard_normal((256, 256))
        # eight threads ask for each n at once
        sizes = [n for n in (64, 128, 256) for _ in range(8)]

        def query(n):
            chol = fm.cholesky_a(n)
            return density(fm, X[:n, :n]), chol, fm.factor_a.whitening_factor(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(query, sizes, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for n, (dens, chol, white) in zip(sizes, results):
            assert chol is fm.factor_a.cholesky(n)
            assert white is fm.factor_a.whitening_factor(n)
            assert dens == density(fm, X[:n, :n])


class TestSeparableConfig:
    def test_literal_config_matches_direct_field(self):
        from entrospec.modelspec import model_from_config

        fm = SeparableFieldModel(PoissonKernel(0.5), MovingAverage([1.0, 0.5]))
        parsed = model_from_config(
            {
                "kind": "separable",
                "factor_a": {"kind": "poisson", "r": 0.5},
                "factor_b": {"kind": "ma", "coeffs": [1.0, 0.5]},
            }
        )
        assert isinstance(parsed, SeparableFieldModel)
        assert parsed.describe() == fm.describe()
        assert parsed.log_det(5) == pytest.approx(fm.log_det(5), abs=1e-12)
