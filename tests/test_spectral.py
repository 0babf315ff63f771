import math

import numpy as np
import pytest
import scipy.special

from entrospec import (
    AutocovarianceSequence,
    AutoRegressive,
    EvaluationUnavailable,
    FilterProduct,
    FourierTable,
    ModelConfigError,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    QuadratureNotConverged,
    SpectralDensity,
    SumDensity,
    White,
)
from entrospec.spectral import (
    NEG_INF,
    autocovariance,
    eval_density,
    fourier_coeffs_quadrature,
    log_density_fourier_coeffs,
    szego_integral,
    szego_integral_quadrature,
)

from conftest import quad_szego

SQRT125 = math.sqrt(1.25)
MA1 = MovingAverage([1.0 / SQRT125, 0.5 / SQRT125])


class _Gap(SpectralDensity):
    """1 on |t| < 1 and 0 elsewhere: log f = -inf on a set of positive measure."""

    def eval(self, t):
        return np.where(np.abs(np.asarray(t, dtype=np.float64)) < 1.0, 1.0, 0.0)


class _InteriorZero(SpectralDensity):
    """|sin(t - 1)|: a log zero inside a panel, where tanh-sinh stalls."""

    def eval(self, t):
        return np.abs(np.sin(np.asarray(t, dtype=np.float64) - 1.0))


class TestEvalDensity:
    def test_white_constant(self):
        assert eval_density(White(1.0), 0.3) == 1.0

    def test_poisson_at_zero(self):
        # (1 - 0.25) / (1 - 0.5)^2
        assert eval_density(PoissonKernel(0.5), 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_poisson_matches_partial_sums(self):
        # oracle: partial sums of sum r^|n| e^{int}
        t = 0.7
        r = 0.5
        total = 1.0 + 2.0 * sum(r**n * math.cos(n * t) for n in range(1, 200))
        assert eval_density(PoissonKernel(r), t) == pytest.approx(total, abs=1e-12)

    def test_ma_at_pi(self):
        assert eval_density(MovingAverage([1.0, 0.5]), math.pi) == pytest.approx(
            0.25, abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    @pytest.mark.parametrize("t", [1e-9, 1e-12])
    def test_power_singular_near_cusp(self, alpha, t):
        # |1 - e^{it}|^{2a} = (4 sin^2(t/2))^a = t^{2a} (1 + O(t^2)); 2 - 2cos t is 0 here
        value = float(PowerSingular(alpha, 1.0).eval(t))
        assert value == pytest.approx(t ** (2.0 * alpha), rel=1e-12)

    def test_nonnegative_on_grid(self, zoo_with_singular):
        t = np.linspace(-math.pi, math.pi, 1001)
        for model in zoo_with_singular.values():
            assert np.all(model.density.eval(t) >= 0.0)


class TestAutocovariance:
    def test_white(self):
        acov = autocovariance(White(1.0), 3)
        assert np.allclose(acov.values, [1, 0, 0, 0])

    def test_poisson_closed_form(self):
        acov = autocovariance(PoissonKernel(0.5), 3)
        assert np.allclose(acov.values, [1, 0.5, 0.25, 0.125], atol=1e-12)

    def test_ma_normalized(self):
        acov = autocovariance(MA1, 2)
        assert acov[0] == pytest.approx(1.0, abs=1e-12)
        assert acov[1] == pytest.approx(0.4, abs=1e-12)
        assert acov[2] == pytest.approx(0.0, abs=1e-15)

    def test_negative_lag_symmetry(self):
        acov = autocovariance(PoissonKernel(0.5), 4)
        assert acov[-3] == acov[3]

    @pytest.mark.parametrize("density", [PoissonKernel(0.5), MA1])
    def test_closed_form_vs_quadrature(self, density):
        closed = density.autocovariance(64).values
        quad, _ = fourier_coeffs_quadrature(density.eval, 64)
        assert np.max(np.abs(closed - quad)) < 1e-9

    @pytest.mark.parametrize("max_lag", [2**17, 2**18])
    def test_quadrature_past_largest_grid_raises(self, max_lag):
        # the first grid holds 4 max_lag points: one grid, or none, fits under 2^20
        with pytest.raises(QuadratureNotConverged) as info:
            fourier_coeffs_quadrature(PoissonKernel(0.5).eval, max_lag)
        assert info.value.what == "autocovariance"

    def test_ar_yule_walker(self):
        # AR(1) with c=0.5, s2=0.75 is the Poisson kernel at r=0.5
        ar = AutoRegressive([0.5], 0.75)
        assert np.allclose(ar.autocovariance(8).values, 0.5 ** np.arange(9), atol=1e-12)

    def test_power_singular_vs_gamma_closed_form(self):
        # oracle: Fourier coefficients of |1-e^{it}|^{2a} in terms of Gamma
        alpha = 0.3
        acov = PowerSingular(alpha, 1.0).autocovariance(6)
        for n in range(7):
            expected = (
                (-1) ** n
                * scipy.special.gamma(1 + 2 * alpha)
                / (scipy.special.gamma(1 + alpha + n) * scipy.special.gamma(1 + alpha - n))
            )
            assert acov[n] == pytest.approx(expected, abs=1e-12)
        assert acov.origin == "closed-form"

    def test_variance_matches_closed_form(self, zoo):
        for model in zoo.values():
            mass, _ = fourier_coeffs_quadrature(model.density.eval, 0)
            assert mass[0] == pytest.approx(model.r0, abs=1e-10)


class TestSzegoIntegral:
    def test_white(self):
        assert szego_integral(White(1.0)) == 0.0

    def test_poisson(self):
        assert szego_integral(PoissonKernel(0.5)) == pytest.approx(
            -0.2876820724517809, abs=1e-12
        )

    def test_ma_root_outside(self):
        assert szego_integral(MA1) == pytest.approx(-math.log(1.25), abs=1e-12)

    def test_power_singular_scale_only(self):
        assert szego_integral(PowerSingular(0.3, 1.0)) == 0.0
        assert szego_integral(PowerSingular(0.3, 2.0)) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("density", [PoissonKernel(0.5), MA1, AutoRegressive([0.5], 0.75)])
    def test_closed_form_vs_quadrature(self, density):
        assert szego_integral(density) == pytest.approx(
            szego_integral_quadrature(density), abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_power_singular_quadrature(self, alpha):
        # int log|1 - e^{it}|^{2a} dlambda = 0: the log zero at t = 0 is a panel end
        value = szego_integral_quadrature(PowerSingular(alpha, 2.0))
        assert value == pytest.approx(math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize(
        "density",
        [PoissonKernel(0.5) + PowerSingular(a, 1.0) for a in (0.05, 0.1, 0.2, 0.3, 0.45)]
        + [White(1.0) + PowerSingular(0.3, 1.0)],
        ids=repr,
    )
    def test_sum_with_cusp_vs_adaptive_quadrature(self, density):
        assert szego_integral(density) == pytest.approx(quad_szego(density), abs=1e-12)

    def test_sum_with_cusp_evaluation_budget(self, monkeypatch):
        # uniform grids need about 2M points on this cusp, tanh-sinh about 200
        points = []
        plain = SumDensity.eval

        def counted(self, t):
            points.append(np.size(t))
            return plain(self, t)

        monkeypatch.setattr(SumDensity, "eval", counted)
        szego_integral(PoissonKernel(0.5) + PowerSingular(0.3, 1.0))
        assert 0 < sum(points) <= 20_000

    def test_vanishing_density_raises(self):
        with pytest.raises(QuadratureNotConverged) as info:
            szego_integral(_Gap())
        assert info.value.what == "szego integral"
        assert "szego integral" in str(info.value)

    def test_interior_log_zero_stops_at_level_cap(self):
        with pytest.raises(QuadratureNotConverged) as info:
            szego_integral_quadrature(_InteriorZero())
        assert info.value.what == "szego integral"
        # a finite change: the level cap stopped it, not a non-finite log
        assert info.value.tol < info.value.last_change < math.inf

    def test_jensen_upper_bound(self, zoo_with_singular):
        # int log f <= log r(0), equality only for white densities
        for name, model in zoo_with_singular.items():
            bound = math.log(model.r0)
            assert model.szego_integral() <= bound + 1e-9
            if name.startswith("white"):
                assert model.szego_integral() == pytest.approx(bound, abs=1e-12)
            else:
                assert model.szego_integral() < bound - 1e-6


class TestLogDensityFourierCoeffs:
    def test_white_zero(self):
        assert np.all(log_density_fourier_coeffs(White(1.0), 8) == 0.0)

    def test_poisson_closed_form_vs_quadrature(self):
        n = np.arange(1, 9)
        closed = log_density_fourier_coeffs(PoissonKernel(0.5), 8)
        assert np.allclose(closed, 0.5**n / n, atol=1e-14)
        from entrospec.spectral import log_fourier_coeffs_quadrature

        quad = log_fourier_coeffs_quadrature(PoissonKernel(0.5).eval, 8)
        assert np.allclose(closed, quad, atol=1e-10)

    def test_power_singular(self):
        coeffs = log_density_fourier_coeffs(PowerSingular(0.3, 1.0), 5)
        assert np.allclose(coeffs, -0.3 / np.arange(1, 6), atol=1e-14)


class TestFourierTable:
    def test_eval_truncated_series(self):
        table = FourierTable(AutocovarianceSequence([1.0, 0.5, 0.25, 0.125]))
        t = 0.4
        expected = 1 + 2 * (0.5 * math.cos(t) + 0.25 * math.cos(2 * t) + 0.125 * math.cos(3 * t))
        assert eval_density(table, t) == pytest.approx(expected, abs=1e-12)

    def test_eval_raises_for_bad_table(self):
        # not a positive definite sequence: series goes clearly negative
        table = FourierTable(AutocovarianceSequence([1.0, 0.9, 0.9]))
        with pytest.raises(EvaluationUnavailable):
            eval_density(table, np.linspace(-math.pi, math.pi, 301))

    def test_autocovariance_respects_table_length(self):
        table = FourierTable(AutocovarianceSequence([1.0, 0.5]))
        with pytest.raises(ModelConfigError):
            table.autocovariance(5)

    def test_szego_finite_case(self):
        # Cesaro evaluation carries an O(1/n) bias; 1024 lags is plenty here
        acov = PoissonKernel(0.5).autocovariance(1024)
        table = FourierTable(acov)
        assert table.szego_integral() == pytest.approx(math.log(0.75), abs=1e-3)

    def test_szego_vanishing_density_is_minus_inf(self):
        # density 0 on |t| <= pi/4 and 4/3 elsewhere; exact coefficients
        # r(n) = -(4/3) sin(n pi/4) / (pi n)
        n = np.arange(1, 513)
        coeffs = np.concatenate(([1.0], -(4.0 / 3.0) * np.sin(n * math.pi / 4) / (math.pi * n)))
        table = FourierTable(AutocovarianceSequence(coeffs))
        assert table.szego_integral() == NEG_INF


class TestClosureVariants:
    def test_scaled(self):
        scaled = PoissonKernel(0.5).scaled(2.0)
        assert scaled.szego_integral() == pytest.approx(math.log(2 * 0.75), abs=1e-12)
        assert scaled.autocovariance(2)[1] == pytest.approx(1.0, abs=1e-12)

    def test_sum_covariance_adds(self):
        s = PoissonKernel(0.5) + White(1.0)
        acov = s.autocovariance(3)
        assert np.allclose(acov.values, [2, 0.5, 0.25, 0.125], atol=1e-12)

    def test_filter_product_covariance_matches_quadrature(self):
        # convolution-form covariance vs direct quadrature of |g|^2 f
        f = FilterProduct([1.0, 0.5], PoissonKernel(0.5))
        closed = f.autocovariance(16).values
        quad, _ = fourier_coeffs_quadrature(f.eval, 16)
        assert np.max(np.abs(closed - quad)) < 1e-9

    def test_filter_whitens_poisson(self):
        # |1 - 0.5 e^{it}|^2 P_{0.5}(t) = 0.75 identically
        f = FilterProduct([1.0, -0.5], PoissonKernel(0.5))
        t = np.linspace(-math.pi, math.pi, 101)
        assert np.allclose(f.eval(t), 0.75, atol=1e-12)
