import math

import numpy as np
import pytest

from entrospec import (
    DimensionMismatch,
    GaussianProcessModel,
    NotPositiveDefinite,
    PoissonKernel,
    levinson,
)
from entrospec.sampling import ensemble_residuals, sample_paths
from entrospec.toeplitz import _FACTOR_BLOCK

from conftest import (
    dense_cov,
    dense_log_det,
    dense_predictor,
    dense_quadratic_form,
    make_non_banded_zoo,
    make_zoo,
)


class TestLevinson:
    def test_identity_covariance(self):
        fact = levinson([1.0, 0, 0, 0, 0], 5)
        assert np.all(fact.reflections == 0.0)
        assert np.all(fact.sigma2 == 1.0)
        assert fact.log_det(5) == 0.0

    def test_ar1_single_reflection(self):
        fact = levinson([1.0, 0.5, 0.25, 0.125], 4)
        assert np.allclose(fact.reflections, [0.5, 0, 0], atol=1e-14)
        assert np.allclose(fact.sigma2, [1, 0.75, 0.75, 0.75], atol=1e-14)

    def test_ma1_third_order(self):
        fact = levinson([1.0, 0.4, 0.0], 3)
        assert fact.sigma2[1] == pytest.approx(0.84, abs=1e-14)
        # det R_3 = 0.68 from the dense determinant
        assert math.exp(fact.log_det(3)) == pytest.approx(0.68, abs=1e-12)

    def test_not_positive_definite_reports_order(self):
        with pytest.raises(NotPositiveDefinite) as err:
            levinson([1.0, 1.0, 1.0], 3)
        assert err.value.order == 1

    def test_requires_enough_lags(self):
        with pytest.raises(DimensionMismatch):
            levinson([1.0, 0.5], 4)

    def test_innovation_variances_nonincreasing(self, zoo):
        for model in zoo.values():
            fact = model.factorization(128)
            assert np.all(np.diff(fact.sigma2) <= 1e-12)
            assert np.all(fact.sigma2 > 0.0)

    def test_reflections_inside_unit_interval(self, zoo):
        for model in zoo.values():
            fact = model.factorization(128)
            assert np.max(np.abs(fact.reflections)) < 1.0


class TestLogDet:
    def test_identity_is_zero(self):
        fact = levinson(np.eye(1, 70)[0], 64)
        assert fact.log_det(64) == 0.0

    def test_ar1_closed_form(self):
        fact = levinson(0.5 ** np.arange(8), 3)
        assert fact.log_det(3) == pytest.approx(2 * math.log(0.75), abs=1e-14)

    def test_ma1_closed_form(self):
        fact = levinson([1.0, 0.4, 0.0], 2)
        assert fact.log_det(2) == pytest.approx(math.log(0.84), abs=1e-14)

    def test_prefix_differences_are_log_sigma2(self, zoo):
        for model in zoo.values():
            fact = model.factorization(64)
            for m in (1, 2, 17, 64):
                diff = fact.log_det(m) - fact.log_det(m - 1)
                assert diff == pytest.approx(math.log(fact.sigma2[m - 1]), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(make_zoo()))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 128])
    def test_against_dense_cholesky(self, zoo, name, n):
        model = zoo[name]
        got = model.log_det(n)
        want = dense_log_det(model, n)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_fischer_subadditivity(self, zoo):
        # log det R_{n+p} <= log det R_n + log det R_p
        for model in zoo.values():
            fact = model.factorization(128)
            for n in (1, 3, 8, 31, 64):
                for p in (1, 5, 17, 64):
                    assert fact.log_det(n + p) <= fact.log_det(n) + fact.log_det(p) + 1e-10


class TestQuadraticForm:
    def test_identity(self):
        fact = levinson([1.0, 0.0], 2)
        assert fact.quadratic_form([3.0, 4.0]) == pytest.approx(25.0, abs=1e-12)

    def test_ar1_basis_vector(self):
        fact = levinson([1.0, 0.5], 2)
        assert fact.quadratic_form([1.0, 0.0]) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_ar1_ones_vector(self):
        fact = levinson([1.0, 0.5], 2)
        assert fact.quadratic_form([1.0, 1.0]) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        fact = levinson([1.0, 0.5], 2)
        with pytest.raises(DimensionMismatch):
            fact.quadratic_form([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("name", sorted(make_zoo()))
    def test_against_dense_solve(self, zoo, name):
        model = zoo[name]
        rng = np.random.default_rng(20240811)
        for n in (1, 2, 5, 16, 64, 128):
            for _ in range(17):
                x = rng.standard_normal(n)
                got = model.factorization(n).quadratic_form(x)
                want = dense_quadratic_form(model, x)
                assert got >= 0.0
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_zero_iff_zero_vector(self, zoo):
        for model in zoo.values():
            fact = model.factorization(8)
            assert fact.quadratic_form(np.zeros(8)) == 0.0


class TestPredictorCoefficients:
    """Row m of the inverse factor is (-b, 1), b the order-m backward
    predictor with v_m ~ sum_j b_j v_j and residual variance sigma2_m."""

    @staticmethod
    def predictor(fact, m):
        return -TestInverseFactorBlocks._assemble(fact, m + 1)[m, :m]

    def test_identity_zero(self):
        fact = levinson([1.0, 0, 0, 0], 4)
        assert np.all(self.predictor(fact, 3) == 0.0)

    def test_ar1_markov(self):
        fact = levinson(0.5 ** np.arange(8), 8)
        b = self.predictor(fact, 3)
        assert np.allclose(b, [0, 0, 0.5], atol=1e-14)

    def test_ma1_first_order(self):
        fact = levinson([1.0, 0.4, 0.0], 3)
        assert self.predictor(fact, 1) == pytest.approx([0.4])

    @pytest.mark.parametrize("name", sorted(make_zoo()))
    def test_normal_equations(self, zoo, name):
        # b solves R_m b = (r(m), ..., r(1)) reversed; oracle = dense solve
        model = zoo[name]
        for m in (1, 2, 7, 33):
            b = self.predictor(model.factorization(m + 1), m)
            assert np.allclose(b, dense_predictor(model, m), atol=1e-9)

    def test_szego_limit_of_innovation_variances(self):
        # sigma2_n -> exp(int log f) for AR/MA models
        import entrospec

        for density in (
            entrospec.PoissonKernel(0.5),
            entrospec.MovingAverage([1.0 / math.sqrt(1.25), 0.5 / math.sqrt(1.25)]),
            entrospec.AutoRegressive([0.5, -0.2], 1.0),
        ):
            model = entrospec.GaussianProcessModel(density)
            fact = model.factorization(513)
            assert abs(fact.sigma2[512] - math.exp(model.szego_integral())) <= 1e-3


class TestInverseFactorBlocks:
    # the first two block seams, and a partial last block
    SIZES = [1, _FACTOR_BLOCK - 1, _FACTOR_BLOCK, _FACTOR_BLOCK + 1,
             2 * _FACTOR_BLOCK - 1, 2 * _FACTOR_BLOCK, 2 * _FACTOR_BLOCK + 1, 300]
    MODELS = {**make_zoo(), **make_non_banded_zoo()}

    @staticmethod
    def _assemble(fact, n):
        # the block layout, then the full A from the blocks
        A = np.zeros((n, n))
        rows = []
        for j0, blk in fact.inverse_factor_blocks(n):
            assert j0 % _FACTOR_BLOCK == 0
            assert blk.shape == (min(_FACTOR_BLOCK, n - j0), j0 + blk.shape[0])
            rows.extend(range(j0, j0 + blk.shape[0]))
            A[j0 : j0 + blk.shape[0], : blk.shape[1]] = blk
        assert rows == list(range(n))
        return A

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", SIZES)
    def test_diagonalizes_dense_covariance(self, name, n):
        # A R_n A^T = diag(sigma2) against the scipy Toeplitz matrix
        model = self.MODELS[name]
        fact = model.factorization(n)
        A = self._assemble(fact, n)
        assert np.array_equal(np.diag(A), np.ones(n))
        assert np.all(np.triu(A, 1) == 0.0)
        got = A @ dense_cov(model, n) @ A.T
        want = np.diag(fact.sigma2[:n])
        assert np.max(np.abs(got - want)) <= 1e-13 * fact.r0

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_are_reversed_predictors(self, name):
        # row m is (-b, 1), b the order-m predictor of the dense Yule-Walker solve
        model = self.MODELS[name]
        A = self._assemble(model.factorization(300), 300)
        seams = (_FACTOR_BLOCK, _FACTOR_BLOCK + 1, 2 * _FACTOR_BLOCK, 2 * _FACTOR_BLOCK + 1)
        for m in (1, 2, *seams, 299):
            assert np.max(np.abs(A[m, :m] + dense_predictor(model, m))) <= 1e-12

    def test_order_outside_factorization(self):
        fact = levinson([1.0, 0.5, 0.25], 3)
        with pytest.raises(DimensionMismatch):
            list(fact.inverse_factor_blocks(4))


class TestResidualBlocks:
    MODELS = {**make_zoo(), **make_non_banded_zoo()}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, _FACTOR_BLOCK, _FACTOR_BLOCK + 1, 2 * _FACTOR_BLOCK + 3])
    def test_blocks_concatenate_to_residuals(self, name, n):
        # rows of paths and a single path, across the factor-block seams
        fact = self.MODELS[name].factorization(n)
        X = np.random.default_rng(n).standard_normal((5, n))
        for x in (X, X[2]):
            starts, blocks = zip(*fact.residual_blocks(x))
            assert starts == tuple(range(0, n, _FACTOR_BLOCK))
            assert np.array_equal(np.concatenate(blocks, axis=-1), fact.residuals(x))

    def test_bad_shape_raises(self):
        fact = levinson([1.0, 0.5, 0.25], 3)
        for x in (np.ones(4), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(DimensionMismatch):
                list(fact.residual_blocks(x))


class TestEmptyInput:
    CALLS = {
        "ensemble_residuals": lambda model: ensemble_residuals(model, np.array([])),
        "residuals": lambda model: model.factorization(4).residuals([]),
        "quadratic_form": lambda model: model.factorization(4).quadratic_form([]),
        "log_block_density": lambda model: model.log_block_density(np.array([])),
        "sample_path": lambda model: sample_paths(model, 0, [5]),
        "sample_paths": lambda model: sample_paths(model, 0, [5, 6]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch):
            self.CALLS[call](GaussianProcessModel(PoissonKernel(0.5)))
