import math

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    FilterProduct,
    FourierTable,
    GaussianProcessModel,
    MovingAverage,
    NotPositiveDefinite,
    PoissonKernel,
    PowerSingular,
    SpectralGap,
    White,
    ZeroSymbol,
)
from entrospec import toeplitz
from entrospec.gaussian_model import HALF_LOG_2PI_E, LOG_2PI
from entrospec.prediction import prediction_gap_series
from entrospec.sampling import sample_paths
from entrospec.spectral import NEG_INF, log_abs_symbol_integral

from conftest import ARC_GAP, make_zoo


class TestLogBlockDensity:
    def test_standard_normal_at_origin(self):
        model = GaussianProcessModel(White(1.0))
        assert model.log_block_density([0.0]) == pytest.approx(
            -0.5 * LOG_2PI, abs=1e-14
        )

    def test_standard_normal_vector(self):
        model = GaussianProcessModel(White(1.0))
        x = [1.0, -2.0, 0.5]
        want = -0.5 * (3 * LOG_2PI + 1 + 4 + 0.25)
        assert model.log_block_density(x) == pytest.approx(want, abs=1e-12)

    def test_ar1_pair(self):
        # R_2 = [[1,.5],[.5,1]]; x=(1,1): logdet=log .75, Q=4/3
        model = GaussianProcessModel(PoissonKernel(0.5))
        want = -0.5 * (2 * LOG_2PI + math.log(0.75) + 4.0 / 3.0)
        assert model.log_block_density([1.0, 1.0]) == pytest.approx(want, abs=1e-12)

    def test_scaling_shift(self):
        # density of c*X is density of X shifted by -n log c in log form
        base = GaussianProcessModel(PoissonKernel(0.5))
        scaled = GaussianProcessModel(PoissonKernel(0.5).scaled(4.0))
        x = np.array([0.3, -1.1, 0.7])
        got = scaled.log_block_density(2.0 * x)
        want = base.log_block_density(x) - 3 * math.log(2.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_mean_is_block_entropy(self, zoo):
        # E[-log rho_n(X^n)] = H_n; ensemble check at loose MC tolerance
        model = zoo["ar2"]
        n, M = 16, 4000
        X = sample_paths(model, n, range(M))
        vals = np.array([-model.log_block_density(row) for row in X])
        h = model.block_entropy(n)
        assert abs(vals.mean() - h) < 4.0 * vals.std() / math.sqrt(M)


class TestBlockEntropy:
    def test_white_unit(self):
        model = GaussianProcessModel(White(1.0))
        for n in (1, 2, 10):
            assert model.block_entropy(n) == pytest.approx(n * HALF_LOG_2PI_E, abs=1e-14)

    def test_white_scaled(self):
        model = GaussianProcessModel(White(4.0))
        assert model.block_entropy(3) == pytest.approx(
            3 * (HALF_LOG_2PI_E + 0.5 * math.log(4.0)), abs=1e-12
        )

    def test_poisson_pair(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        want = 2 * HALF_LOG_2PI_E + 0.5 * math.log(0.75)
        assert model.block_entropy(2) == pytest.approx(want, abs=1e-12)

    def test_max_entropy_bound(self, zoo):
        # among unit-variance models the white one maximizes H_n
        for name, model in zoo.items():
            bound = (model.factorization(1).sigma2[0],)
            for n in (1, 4, 32):
                assert (
                    model.block_entropy(n)
                    <= n * (HALF_LOG_2PI_E + 0.5 * math.log(model.r0)) + 1e-10
                )

    def test_rate_sequence_monotone(self, zoo):
        # H_n / n is nonincreasing and bounded below by the entropy rate
        for model in zoo.values():
            ratios = [model.block_entropy(n) / n for n in range(1, 65)]
            assert np.all(np.diff(ratios) <= 1e-12)
            assert ratios[-1] >= model.entropy_rate() - 1e-12


class TestEntropyRate:
    def test_white(self):
        assert GaussianProcessModel(White(1.0)).entropy_rate() == pytest.approx(
            HALF_LOG_2PI_E, abs=1e-14
        )

    def test_poisson_closed_form(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert model.entropy_rate() == pytest.approx(
            HALF_LOG_2PI_E + 0.5 * math.log(0.75), abs=1e-12
        )

    def test_block_entropy_rate_limit(self, zoo):
        for model in zoo.values():
            se = model.entropy_rate()
            assert abs(model.block_entropy(4096) / 4096 - se) < 1e-3

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_degenerate_rate_needs_no_factorization(self, fraction):
        # R_n of a gap turns numerically singular at small n (order 23 for
        # fraction 0.5), so its rate must not wait on a factorization
        model = GaussianProcessModel(SpectralGap(fraction, 1.0))
        assert model.entropy_rate() == NEG_INF
        assert model.r0 == 1.0 - fraction
        if fraction > 0.25:
            with pytest.raises(NotPositiveDefinite):
                model.factorization(64)

    def test_degenerate_rate_is_minus_inf(self):
        model = GaussianProcessModel(ARC_GAP)
        assert model.entropy_rate() == NEG_INF
        # the infinite-past prediction error exp(int log f) is 0
        assert math.exp(model.szego_integral()) == 0.0

    def test_prediction_error_poisson(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert math.exp(model.szego_integral()) == pytest.approx(0.75, abs=1e-12)


class TestModelAlgebra:
    def test_filter_product_density(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        filt = GaussianProcessModel(FilterProduct([1.0, -0.5], model.density))
        t = np.linspace(-math.pi, math.pi, 51)
        assert np.allclose(filt.density.eval(t), 0.75, atol=1e-12)
        assert filt.entropy_rate() == pytest.approx(
            HALF_LOG_2PI_E + 0.5 * math.log(0.75), abs=1e-9
        )

    def test_zero_symbol_rejected(self):
        model = GaussianProcessModel(White(1.0))
        with pytest.raises(ZeroSymbol):
            GaussianProcessModel(FilterProduct([0.0, 0.0], model.density))
        with pytest.raises(ZeroSymbol):
            log_abs_symbol_integral([0.0, 0.0])

    def test_sum_density_covariance(self):
        a = GaussianProcessModel(PoissonKernel(0.5))
        b = GaussianProcessModel(White(1.0))
        s = GaussianProcessModel(a.density + b.density)
        assert s.r0 == pytest.approx(2.0, abs=1e-12)
        assert s.autocovariance(2)[1] == pytest.approx(0.5, abs=1e-12)

    def test_sum_increases_entropy(self):
        a = GaussianProcessModel(MovingAverage([1.0, 0.5]))
        b = GaussianProcessModel(White(1.0))
        s = GaussianProcessModel(a.density + b.density)
        for n in (1, 8, 32):
            assert s.block_entropy(n) > a.block_entropy(n)
            assert s.block_entropy(n) > b.block_entropy(n)


class TestCaching:
    def test_growth_consistency(self):
        # quantities computed at small order survive cache growth
        model = GaussianProcessModel(PoissonKernel(0.5))
        d4 = model.log_det(4)
        model.factorization(300)
        assert model.log_det(4) == d4

    def test_large_request_factors_its_own_order(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert model.factorization(8193).order == 8193

    def test_small_step_computes_one_order(self, monkeypatch):
        steps = []
        extend = toeplitz.LevinsonFactorization.extend

        def counting(self, r, n):
            steps.append(n - self.order)
            return extend(self, r, n)

        monkeypatch.setattr(toeplitz.LevinsonFactorization, "extend", counting)
        model = GaussianProcessModel(PoissonKernel(0.5))
        model.factorization(300)
        steps.clear()
        assert model.factorization(301).order == 301
        assert steps == [1]

    GROWN = {**make_zoo(), "ar_1.8_-0.9": GaussianProcessModel(AutoRegressive([1.8, -0.9], 1.0))}

    @pytest.mark.parametrize("name", sorted(GROWN))
    def test_growth_matches_fresh_levinson(self, name):
        # extending from every cached order, or in jumps, must give the bits
        # of one run
        for pieces in ((1, 2, 63, 64, 65, 300, 4097), (1, 65, 300)):
            model = GaussianProcessModel(self.GROWN[name].density)
            for n in pieces:
                grown = model.factorization(n)
                fresh = toeplitz.levinson(model.autocovariance(n - 1), n)
                assert grown.order == n
                for attr in ("sigma2", "reflections", "predictor"):
                    assert np.array_equal(getattr(grown, attr), getattr(fresh, attr))
                assert [grown.log_det(m) for m in range(n + 1)] == [
                    fresh.log_det(m) for m in range(n + 1)
                ]

    def test_growth_stops_at_order_asked_for(self):
        # the gap's R_n is positive definite up to some m* and not past it;
        # a model grown to m* - 1 must still factor m*, and fail only past it
        with pytest.raises(NotPositiveDefinite) as err:
            GaussianProcessModel(SpectralGap(0.25, 1.0)).factorization(4096)
        m_star = err.value.order
        model = GaussianProcessModel(SpectralGap(0.25, 1.0))
        model.factorization(m_star - 1)
        assert model.factorization(m_star).order == m_star
        with pytest.raises(NotPositiveDefinite) as err:
            model.factorization(m_star + 1)
        assert err.value.order == m_star
        assert model.factorization(m_star).order == m_star

    def test_fourier_table_factors_past_table(self):
        # a table model grows like any other; past q its innovation variance
        # stays the table's sigma2_q, the infinite-past prediction error
        table = FourierTable(0.5 ** np.arange(100))
        model = GaussianProcessModel(table)
        for n in (10, 60, 61, 99, 100, 101, 300):
            assert n <= model.factorization(n).order
        fact = model.factorization(300)
        assert np.array_equal(fact.sigma2[:100], toeplitz.levinson(table.table, 100).sigma2)
        assert np.all(fact.sigma2[100:300] == fact.sigma2[99])
        assert fact.sigma2[99] == math.exp(model.szego_integral())

    def test_grown_prefix_bit_identical(self):
        density = PowerSingular(0.3, 1.0)
        grown = GaussianProcessModel(density)
        grown.factorization(8193)
        straight = GaussianProcessModel(density)
        b = straight.factorization(4096)
        a = grown.factorization(4096)
        assert b.order == 4096
        assert np.array_equal(a.sigma2[:4096], b.sigma2)
        assert all(a.log_det(m) == b.log_det(m) for m in range(4097))

    def test_prediction_series_factors_once(self, monkeypatch):
        # exactly the n_max + 1 asked for
        orders = []
        levinson = toeplitz.levinson

        def counting(r, n):
            orders.append(n)
            return levinson(r, n)

        monkeypatch.setattr(toeplitz, "levinson", counting)
        model = GaussianProcessModel(PowerSingular(0.3, 1.0))
        prediction_gap_series(model, 8192)
        assert orders == [8193]

    def test_construction_reads_r0_only(self, monkeypatch):
        calls = []
        plain = PoissonKernel.autocovariance

        def counting(self, max_lag):
            calls.append(max_lag)
            return plain(self, max_lag)

        monkeypatch.setattr(PoissonKernel, "autocovariance", counting)
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert calls == [0]
        assert model.r0 == 1.0 and type(model.r0) is float
        # the first request factors exactly its own order
        assert model.factorization(5).order == 5

    def test_caches_are_read_only(self):
        # a caller's write into a returned array must not reach the cache
        model = GaussianProcessModel(PoissonKernel(0.5))
        with pytest.raises(ValueError):
            model.autocovariance(5)[0] = 99.0
        assert model.r0 == 1.0
        fact = model.factorization(8)
        for array in (fact.sigma2, fact.reflections, fact.predictor):
            with pytest.raises(ValueError):
                array[2] = -5.0
        with pytest.raises(ValueError):
            fact._logdet[2] = -5.0
        assert model.factorization(8).sigma2[2] == 0.75
        for factor in (model.cholesky(8), model.whitening_factor(8)):
            with pytest.raises(ValueError):
                factor[2, 1] = -5.0
        assert model.cholesky(8)[0, 0] == 1.0
        assert model.whitening_factor(8)[1, 0] == -0.5 / math.sqrt(0.75)

    def test_concurrent_queries(self):
        from concurrent.futures import ThreadPoolExecutor

        model = GaussianProcessModel(PoissonKernel(0.5))
        with ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(lambda n: model.log_det(n), [64] * 32))
        assert len(set(vals)) == 1

    def test_concurrent_growth(self):
        # threads extend whatever order another one left; no extension may
        # be lost or overwritten by a smaller one
        import sys
        from concurrent.futures import ThreadPoolExecutor

        density = AutoRegressive([0.5, -0.2], 1.0)
        model = GaussianProcessModel(density)
        sizes = list(range(2, 600, 5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                dets = list(pool.map(model.log_det, sizes, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert model.factorization(1).order == max(sizes)
        fresh = GaussianProcessModel(density).factorization(max(sizes))
        assert dets == [fresh.log_det(n) for n in sizes]


class TestDenseFactors:
    # the zoo and an AR(2) with roots near the circle, whose R_n is the
    # worst conditioned here
    MODELS = {**make_zoo(), "ar_1.8_-0.9": GaussianProcessModel(AutoRegressive([1.8, -0.9], 1.0))}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 64, 65, 300])
    def test_whitening_inverts_cholesky(self, name, n):
        # two independent routes to R_n: LAPACK's L L^T and the Levinson
        # W R_n W^T = I, so W L is orthogonal and lower triangular, hence I
        model = self.MODELS[name]
        product = model.whitening_factor(n) @ model.cholesky(n)
        assert np.max(np.abs(product - np.eye(n))) <= 1e-12
