import math

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    DegenerateProcess,
    GaussianProcessModel,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    White,
)
from entrospec.prediction import prediction_gap_series

from conftest import ARC_GAP, dense_cov, quad_szego

# Frozen diagnostics for the power-type singular density (alpha=0.3):
# partial sums of delta_n = r0 prod_{j<=n} (1 - k_j^2) - 1 with the
# closed-form k_j = -alpha/(j + alpha), evaluated at 40 digits, not Levinson.
POWER_S_512 = 0.53746550824656847
POWER_S_4096 = 0.72442245730449707


class TestPredictionGapSeries:
    def test_white_everything_zero(self):
        diag = prediction_gap_series(GaussianProcessModel(White(1.0)), 32)
        assert np.all(diag.sigma2 == 1.0)
        assert np.all(diag.delta == 0.0)
        assert np.all(diag.gap_partial_sums == 0.0)
        assert np.all(diag.strong_szego_partial_sums == 0.0)

    def test_ar_gap_vanishes_after_order(self):
        # finite-order autoregression: delta_n = 0 for n >= order
        diag = prediction_gap_series(
            GaussianProcessModel(AutoRegressive([0.5, -0.2], 1.0)), 64
        )
        assert diag.sigma2_inf == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(diag.delta[2:]) <= 1e-12)
        assert abs(diag.gap_partial_sums[-1] - diag.gap_partial_sums[2]) <= 1e-12

    def test_ma1_strong_szego_sum(self):
        # T_N -> sum n (0.5^n/n)^2 ... for |1+0.5z|^2: L(n) = (-1)^{n+1} 0.5^n / n
        # so T_inf = sum 0.25^n / n = -log(0.75)
        diag = prediction_gap_series(GaussianProcessModel(MovingAverage([1.0, 0.5])), 512)
        assert diag.strong_szego_partial_sums[-1] == pytest.approx(
            -math.log(0.75), abs=1e-12
        )
        assert 0.2876820724517809 == pytest.approx(-math.log(0.75), abs=1e-15)

    def test_poisson_gap_sum_converges(self):
        # short-memory model: S_N stabilizes
        diag = prediction_gap_series(GaussianProcessModel(PoissonKernel(0.5)), 512)
        s = diag.gap_partial_sums
        assert abs(s[511] - s[255]) < 1e-10

    def test_power_singular_gap_sum_diverges(self):
        model = GaussianProcessModel(PowerSingular(0.3, 1.0))
        diag = prediction_gap_series(model, 4096)
        assert diag.gap_partial_sums[511] == pytest.approx(POWER_S_512, abs=1e-9)
        assert diag.gap_partial_sums[4095] == pytest.approx(POWER_S_4096, abs=1e-9)
        assert diag.gap_partial_sums[4095] > 1.1 * diag.gap_partial_sums[511]
        # strong-Szego sums diverge logarithmically too: T_N = alpha^2 H_N
        n = np.arange(1, 4097)
        want = 0.09 * np.cumsum(1.0 / n)
        assert np.allclose(diag.strong_szego_partial_sums, want, atol=1e-10)

    def test_delta_nonnegative_decreasing(self, zoo):
        for model in zoo.values():
            diag = prediction_gap_series(model, 128)
            assert np.all(diag.delta >= -1e-14)
            assert np.all(np.diff(diag.delta) <= 1e-14)

    def test_delta_matches_projection_distance(self, zoo):
        # oracle: delta_n ~= sigma2_n - sigma2_N for N >> n (Pythagoras chain)
        for name, model in zoo.items():
            diag = prediction_gap_series(model, 16)
            fact = model.factorization(2048)
            for n in (1, 4, 16):
                assert diag.delta[n - 1] == pytest.approx(
                    fact.sigma2[n] - fact.sigma2[2047], abs=1e-6
                )

    def test_dense_gram_projection_oracle(self):
        # delta_n via explicit finite-past projection with dense linear algebra
        model = GaussianProcessModel(PoissonKernel(0.5))
        diag = prediction_gap_series(model, 8)
        for n in (1, 2, 5, 8):
            R = dense_cov(model, n)
            rhs = np.array([model.autocovariance(n)[j] for j in range(1, n + 1)])
            sigma2_n = model.r0 - rhs @ np.linalg.solve(R, rhs)
            assert diag.sigma2[n - 1] == pytest.approx(sigma2_n, abs=1e-10)
            assert diag.delta[n - 1] == pytest.approx(
                sigma2_n - diag.sigma2_inf, abs=1e-10
            )

    def test_degenerate_raises(self):
        model = GaussianProcessModel(ARC_GAP)
        with pytest.raises(DegenerateProcess):
            prediction_gap_series(model, 16)

    def test_csv_round(self):
        diag = prediction_gap_series(GaussianProcessModel(PoissonKernel(0.5)), 4)
        lines = diag.to_csv().splitlines()
        assert lines[0] == "n,sigma2_n,delta_n,S_N,T_N"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.75, abs=1e-12)


class TestLongMemory:
    """Fractional differencing |1 - e^{it}|^{2 alpha} at n = 8192 against its
    closed-form reflections k_n = -alpha/(n + alpha), which Levinson never sees."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_levinson_matches_closed_form(self, alpha):
        n_max = 8192
        model = GaussianProcessModel(PowerSingular(alpha, 1.0))
        diag = prediction_gap_series(model, n_max)
        fact = model.factorization(n_max + 1)
        n = np.arange(1, n_max + 1)
        k = -alpha / (n + alpha)
        assert np.max(np.abs(fact.reflections[:n_max] - k)) <= 1e-14
        r0 = math.exp(math.lgamma(1.0 + 2.0 * alpha) - 2.0 * math.lgamma(1.0 + alpha))
        sigma2 = r0 * np.cumprod(1.0 - k * k)
        assert np.max(np.abs(diag.sigma2 / sigma2 - 1.0)) <= 1e-12
        assert np.all(diag.delta > 0.0)

    def test_sum_with_short_memory_gap_nonnegative(self):
        density = PoissonKernel(0.5) + PowerSingular(0.3, 1.0)
        diag = prediction_gap_series(GaussianProcessModel(density), 4096)
        assert diag.sigma2_inf == pytest.approx(math.exp(quad_szego(density)), rel=1e-13)
        # min delta_n is 6.3e-11, so an error of 1e-11 in sigma2_inf eats most of it
        assert np.min(diag.delta) > 2e-11


class TestSzegoIntegrability:
    # the isomorphism criterion is the finiteness of the Szego integral
    def test_positive_cases(self, zoo_with_singular):
        for model in zoo_with_singular.values():
            assert math.isfinite(model.szego_integral())

    def test_negative_case(self):
        model = GaussianProcessModel(ARC_GAP)
        assert model.szego_integral() == float("-inf")
