import math

import numpy as np
import pytest

from entrospec import (
    AutocovarianceSequence,
    FourierTable,
    GaussianProcessModel,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    White,
    ZeroSymbol,
    block_entropy,
    entropy_rate,
    infinite_prediction_error,
    log_block_density,
)
from entrospec import toeplitz
from entrospec.gaussian_model import HALF_LOG_2PI_E, LOG_2PI
from entrospec.prediction import prediction_gap_series
from entrospec.sampling import sample_paths
from entrospec.spectral import NEG_INF


class TestLogBlockDensity:
    def test_standard_normal_at_origin(self):
        model = GaussianProcessModel(White(1.0))
        assert log_block_density(model, [0.0]) == pytest.approx(
            -0.5 * LOG_2PI, abs=1e-14
        )

    def test_standard_normal_vector(self):
        model = GaussianProcessModel(White(1.0))
        x = [1.0, -2.0, 0.5]
        want = -0.5 * (3 * LOG_2PI + 1 + 4 + 0.25)
        assert log_block_density(model, x) == pytest.approx(want, abs=1e-12)

    def test_ar1_pair(self):
        # R_2 = [[1,.5],[.5,1]]; x=(1,1): logdet=log .75, Q=4/3
        model = GaussianProcessModel(PoissonKernel(0.5))
        want = -0.5 * (2 * LOG_2PI + math.log(0.75) + 4.0 / 3.0)
        assert log_block_density(model, [1.0, 1.0]) == pytest.approx(want, abs=1e-12)

    def test_scaling_shift(self):
        # density of c*X is density of X shifted by -n log c in log form
        base = GaussianProcessModel(PoissonKernel(0.5))
        scaled = GaussianProcessModel(PoissonKernel(0.5).scaled(4.0))
        x = np.array([0.3, -1.1, 0.7])
        got = log_block_density(scaled, 2.0 * x)
        want = log_block_density(base, x) - 3 * math.log(2.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_mean_is_block_entropy(self, zoo):
        # E[-log rho_n(X^n)] = H_n; ensemble check at loose MC tolerance
        model = zoo["ar2"]
        n, M = 16, 4000
        X = sample_paths(model, n, range(M))
        vals = np.array([-log_block_density(model, row) for row in X])
        h = block_entropy(model, n)
        assert abs(vals.mean() - h) < 4.0 * vals.std() / math.sqrt(M)


class TestBlockEntropy:
    def test_white_unit(self):
        model = GaussianProcessModel(White(1.0))
        for n in (1, 2, 10):
            assert block_entropy(model, n) == pytest.approx(n * HALF_LOG_2PI_E, abs=1e-14)

    def test_white_scaled(self):
        model = GaussianProcessModel(White(4.0))
        assert block_entropy(model, 3) == pytest.approx(
            3 * (HALF_LOG_2PI_E + 0.5 * math.log(4.0)), abs=1e-12
        )

    def test_poisson_pair(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        want = 2 * HALF_LOG_2PI_E + 0.5 * math.log(0.75)
        assert block_entropy(model, 2) == pytest.approx(want, abs=1e-12)

    def test_max_entropy_bound(self, zoo):
        # among unit-variance models the white one maximizes H_n
        for name, model in zoo.items():
            bound = (model.factorization(1).sigma2[0],)
            for n in (1, 4, 32):
                assert (
                    block_entropy(model, n)
                    <= n * (HALF_LOG_2PI_E + 0.5 * math.log(model.r0)) + 1e-10
                )

    def test_rate_sequence_monotone(self, zoo):
        # H_n / n is nonincreasing and bounded below by the entropy rate
        for model in zoo.values():
            ratios = [block_entropy(model, n) / n for n in range(1, 65)]
            assert np.all(np.diff(ratios) <= 1e-12)
            assert ratios[-1] >= entropy_rate(model) - 1e-12


class TestEntropyRate:
    def test_white(self):
        assert entropy_rate(GaussianProcessModel(White(1.0))) == pytest.approx(
            HALF_LOG_2PI_E, abs=1e-14
        )

    def test_poisson_closed_form(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert entropy_rate(model) == pytest.approx(
            HALF_LOG_2PI_E + 0.5 * math.log(0.75), abs=1e-12
        )

    def test_block_entropy_rate_limit(self, zoo):
        for model in zoo.values():
            se = entropy_rate(model)
            assert abs(block_entropy(model, 4096) / 4096 - se) < 1e-3

    def test_degenerate_rate_is_minus_inf(self):
        import entrospec

        n = np.arange(1, 513)
        coeffs = np.concatenate(
            ([1.0], -(4.0 / 3.0) * np.sin(n * math.pi / 4) / (math.pi * n))
        )
        table = entrospec.FourierTable(entrospec.AutocovarianceSequence(coeffs))
        model = GaussianProcessModel(table)
        assert entropy_rate(model) == NEG_INF
        assert infinite_prediction_error(model) == 0.0

    def test_prediction_error_poisson(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert infinite_prediction_error(model) == pytest.approx(0.75, abs=1e-12)


class TestModelAlgebra:
    def test_filtered_model_density(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        filt = model.filtered_model([1.0, -0.5])
        t = np.linspace(-math.pi, math.pi, 51)
        assert np.allclose(filt.density.eval(t), 0.75, atol=1e-12)
        assert entropy_rate(filt) == pytest.approx(
            HALF_LOG_2PI_E + 0.5 * math.log(0.75), abs=1e-9
        )

    def test_zero_symbol_rejected(self):
        model = GaussianProcessModel(White(1.0))
        with pytest.raises(ZeroSymbol):
            model.filtered_model([0.0, 0.0])

    def test_sum_independent_covariance(self):
        a = GaussianProcessModel(PoissonKernel(0.5))
        b = GaussianProcessModel(White(1.0))
        s = a.sum_independent(b)
        assert s.r0 == pytest.approx(2.0, abs=1e-12)
        assert s.autocovariance(2)[1] == pytest.approx(0.5, abs=1e-12)

    def test_sum_increases_entropy(self):
        a = GaussianProcessModel(MovingAverage([1.0, 0.5]))
        b = GaussianProcessModel(White(1.0))
        s = a.sum_independent(b)
        for n in (1, 8, 32):
            assert block_entropy(s, n) > block_entropy(a, n)
            assert block_entropy(s, n) > block_entropy(b, n)


class TestCaching:
    def test_growth_consistency(self):
        # quantities computed at small order survive cache growth
        model = GaussianProcessModel(PoissonKernel(0.5), initial_order=2)
        d4 = model.log_det(4)
        model.factorization(300)
        assert model.log_det(4) == d4

    def test_large_request_factors_its_own_order(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert model.factorization(8193).order == 8193

    def test_small_steps_grow_geometrically(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        model.factorization(300)
        assert model.factorization(301).order >= 600

    def test_fourier_table_never_factors_past_table(self):
        table = AutocovarianceSequence(0.5 ** np.arange(100))
        model = GaussianProcessModel(FourierTable(table))
        for n in (10, 60, 61, 99, 100):
            assert n <= model.factorization(n).order <= 100

    def test_grown_prefix_bit_identical(self):
        density = PowerSingular(0.3, 1.0)
        grown = GaussianProcessModel(density)
        grown.factorization(8193)
        straight = GaussianProcessModel(density, initial_order=4096)
        a, b = grown.factorization(4096), straight.factorization(4096)
        assert b.order == 4096
        assert np.array_equal(a.sigma2[:4096], b.sigma2)
        assert all(a.log_det(m) == b.log_det(m) for m in range(4097))

    def test_prediction_series_factors_once(self, monkeypatch):
        # 64 for the constructor, then exactly the n_max + 1 asked for
        orders = []
        levinson = toeplitz.levinson

        def counting(r, n):
            orders.append(n)
            return levinson(r, n)

        monkeypatch.setattr(toeplitz, "levinson", counting)
        model = GaussianProcessModel(PowerSingular(0.3, 1.0))
        prediction_gap_series(model, 8192)
        assert sum(orders) <= 64 + 8193

    def test_concurrent_queries(self):
        from concurrent.futures import ThreadPoolExecutor

        model = GaussianProcessModel(PoissonKernel(0.5), initial_order=2)
        with ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(lambda n: model.log_det(n), [64] * 32))
        assert len(set(vals)) == 1
