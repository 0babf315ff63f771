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
from entrospec.field2d import toeplitz_matrix
from entrospec.gaussian_model import HALF_LOG_2PI_E, LOG_2PI
from entrospec.spectral import NEG_INF
from entrospec.toeplitz import _FACTOR_BLOCK

from conftest import dense_cov


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
        assert fm.log_det_2d(n) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_quadratic_form(self, name, n):
        fm = FIELDS[name]()
        R = dense_kron_cov(fm, n)
        rng = np.random.default_rng(77)
        for _ in range(5):
            X = rng.standard_normal((n, n))
            want = X.ravel() @ np.linalg.solve(R, X.ravel())
            assert fm.kronecker_quadratic_form(X) == pytest.approx(want, abs=1e-8)

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
        assert fm.kronecker_quadratic_form(X) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 3, 4, _FACTOR_BLOCK + 2, 2 * _FACTOR_BLOCK + 2])
    def test_stacked_quadratic_form_matches_single(self, name, n):
        fm = FIELDS[name]()
        stack = np.random.default_rng(80).standard_normal((5, n, n))
        got = fm.kronecker_quadratic_form(stack)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        for q, X in zip(got, stack):
            single = fm.kronecker_quadratic_form(X)
            assert isinstance(single, float)
            assert q == single
        dens = fm.log_block_density_2d(stack)
        assert [float(d) for d in dens] == [fm.log_block_density_2d(X) for X in stack]

    @pytest.mark.parametrize(
        "shape", [(), (3,), (3, 4), (2, 3, 4), (0, 0), (2, 0, 0), (1, 1, 2, 2)], ids=str
    )
    def test_quadratic_form_rejects_non_square(self, shape):
        fm = FIELDS["p05xp05"]()
        with pytest.raises(DimensionMismatch):
            fm.kronecker_quadratic_form(np.ones(shape))
        with pytest.raises(DimensionMismatch):
            fm.log_block_density_2d(np.ones(shape))

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
        assert fm.log_block_density_2d(X) == pytest.approx(want, abs=1e-8)


class TestBlockEntropy2d:
    def test_white_field(self):
        fm = SeparableFieldModel(White(1.0), White(1.0))
        for n in (1, 2, 5):
            assert fm.block_entropy_2d(n) == pytest.approx(
                n * n * HALF_LOG_2PI_E, abs=1e-12
            )

    def test_poisson_cross_white(self):
        # factor logdets: D_a(2) = log 0.75, D_b(2) = 0
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        want = 4 * HALF_LOG_2PI_E + 0.5 * 2 * math.log(0.75)
        assert fm.block_entropy_2d(2) == pytest.approx(want, abs=1e-12)

    def test_poisson_square(self):
        # both factors contribute: n(D_a + D_b) = 2(log .75 + log .75)
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        want = 4 * HALF_LOG_2PI_E + 0.5 * 4 * math.log(0.75)
        assert fm.block_entropy_2d(2) == pytest.approx(want, abs=1e-12)

    def test_normalized_entropy_converges_to_rate(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        se = fm.entropy_rate_2d()
        vals = [fm.block_entropy_2d(n) / (n * n) for n in (8, 32, 128)]
        errs = [abs(v - se) for v in vals]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 1e-2

    def test_rate_is_sum_of_factor_integrals(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), MovingAverage([1.0, 0.5]))
        want = HALF_LOG_2PI_E + 0.5 * (
            fm.factor_a.szego_integral() + fm.factor_b.szego_integral()
        )
        assert fm.entropy_rate_2d() == pytest.approx(want, abs=1e-12)

    def test_degenerate_factor_gives_minus_inf(self):
        import entrospec

        n = np.arange(1, 513)
        coeffs = np.concatenate(
            ([1.0], -(4.0 / 3.0) * np.sin(n * math.pi / 4) / (math.pi * n))
        )
        table = entrospec.FourierTable(entrospec.AutocovarianceSequence(coeffs))
        fm = SeparableFieldModel(table, White(1.0))
        assert fm.entropy_rate_2d() == NEG_INF


class TestProductMarginalKL:
    def test_white_field_zero(self):
        fm = SeparableFieldModel(White(1.0), White(1.0))
        for n in (1, 3, 8):
            assert fm.product_marginal_kl_2d(n) == pytest.approx(0.0, abs=1e-12)

    def test_independence_characterization(self):
        # KL = 0 at every n iff both factors are white
        dependent = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        assert dependent.product_marginal_kl_2d(1) == pytest.approx(0.0, abs=1e-12)
        assert dependent.product_marginal_kl_2d(2) > 1e-3

    def test_nonnegative_and_superadditive_vs_1d(self):
        # 2-D product KL dominates n x (each factor's 1-D product KL)
        from entrospec.entropy_analysis import kl_to_marginal_product

        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(-0.3))
        for n in (2, 4, 16):
            kl2 = fm.product_marginal_kl_2d(n)
            kla = kl_to_marginal_product(fm.factor_a, n)
            klb = kl_to_marginal_product(fm.factor_b, n)
            assert kl2 >= n * (kla + klb) - 1e-10

    def test_dense_oracle(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(-0.3))
        n = 4
        R = dense_kron_cov(fm, n)
        _, logdet = np.linalg.slogdet(R)
        want = 0.5 * (n * n * math.log(R[0, 0]) - logdet)
        assert fm.product_marginal_kl_2d(n) == pytest.approx(want, abs=1e-8)


class TestConfigRoundTrip:
    def test_to_config_and_back(self):
        from entrospec.modelspec import model_from_config

        fm = SeparableFieldModel(PoissonKernel(0.5), MovingAverage([1.0, 0.5]))
        clone = model_from_config(fm.to_config())
        assert isinstance(clone, SeparableFieldModel)
        assert clone.log_det_2d(5) == pytest.approx(fm.log_det_2d(5), abs=1e-12)
