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
from entrospec import spectral
from entrospec.spectral import NEG_INF, cosine_integrals, szego_integral_quadrature

from conftest import quad_szego

SQRT125 = math.sqrt(1.25)
MA1 = MovingAverage([1.0 / SQRT125, 0.5 / SQRT125])
# the exact-long-memory benchmark's sum model: a cusp of log f at t = 0
CUSP_SUM = PoissonKernel(0.5) + PowerSingular(0.3, 1.0)


def covariance_quadrature(density, max_lag):
    values, _ = cosine_integrals(density.eval, max_lag, "autocovariance")
    return values


def log_cosine_quadrature(density, max_n):
    """int log f cos(nt) dlambda for n = 0..max_n: the Szego integral, then L(1..max_n)."""
    values, _ = cosine_integrals(
        lambda t: np.log(density.eval(t)), max_n, "log-density Fourier coefficients"
    )
    return values


def count_sum_points(monkeypatch):
    """A list that collects the size of every SumDensity.eval argument."""
    points = []
    plain = SumDensity.eval

    def counted(self, t):
        points.append(np.size(t))
        return plain(self, t)

    monkeypatch.setattr(SumDensity, "eval", counted)
    return points


class _DirectSums:
    """sum_j c_j cos(n x_j) summed term by term: the NUFFT's oracle."""

    def __init__(self, max_n):
        self.n = np.arange(max_n + 1)
        self.total = np.zeros(max_n + 1)

    def add(self, x, c):
        self.total += np.cos(np.outer(self.n, x)) @ c

    def sums(self):
        return self.total.copy()


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
        assert White(1.0).eval(0.3) == 1.0

    def test_poisson_at_zero(self):
        # (1 - 0.25) / (1 - 0.5)^2
        assert PoissonKernel(0.5).eval(0.0) == pytest.approx(3.0, abs=1e-12)

    def test_poisson_matches_partial_sums(self):
        # oracle: partial sums of sum r^|n| e^{int}
        t = 0.7
        r = 0.5
        total = 1.0 + 2.0 * sum(r**n * math.cos(n * t) for n in range(1, 200))
        assert PoissonKernel(r).eval(t) == pytest.approx(total, abs=1e-12)

    def test_ma_at_pi(self):
        assert MovingAverage([1.0, 0.5]).eval(math.pi) == pytest.approx(
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
        acov = White(1.0).autocovariance(3)
        assert np.allclose(acov.values, [1, 0, 0, 0])

    def test_poisson_closed_form(self):
        acov = PoissonKernel(0.5).autocovariance(3)
        assert np.allclose(acov.values, [1, 0.5, 0.25, 0.125], atol=1e-12)

    def test_ma_normalized(self):
        acov = MA1.autocovariance(2)
        assert acov[0] == pytest.approx(1.0, abs=1e-12)
        assert acov[1] == pytest.approx(0.4, abs=1e-12)
        assert acov[2] == pytest.approx(0.0, abs=1e-15)

    def test_negative_lag_symmetry(self):
        acov = PoissonKernel(0.5).autocovariance(4)
        assert acov[-3] == acov[3]

    @pytest.mark.parametrize("density", [PoissonKernel(0.5), MA1])
    def test_closed_form_vs_quadrature(self, density):
        closed = density.autocovariance(64).values
        quad = covariance_quadrature(density, 64)
        assert np.max(np.abs(closed - quad)) < 1e-9

    @pytest.mark.parametrize("max_lag", [2**17, 2**18])
    def test_quadrature_past_largest_grid_raises(self, max_lag):
        # tanh-sinh resolves cos(nt) only for steps below about 2/n, 1.5e-5 at
        # n = 2^17: at most the last level, of step 0.5 / 2^15, resolves these
        # n, so no two successive levels agree before the level cap
        with pytest.raises(QuadratureNotConverged) as info:
            covariance_quadrature(PoissonKernel(0.5), max_lag)
        assert info.value.what == "autocovariance"
        assert info.value.tol < info.value.last_change < math.inf

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
            mass = covariance_quadrature(model.density, 0)
            assert mass[0] == pytest.approx(model.r0, abs=1e-10)


class TestSzegoIntegral:
    def test_white(self):
        assert White(1.0).szego_integral() == 0.0

    def test_poisson(self):
        assert PoissonKernel(0.5).szego_integral() == pytest.approx(
            -0.2876820724517809, abs=1e-12
        )

    def test_ma_root_outside(self):
        assert MA1.szego_integral() == pytest.approx(-math.log(1.25), abs=1e-12)

    def test_power_singular_scale_only(self):
        assert PowerSingular(0.3, 1.0).szego_integral() == 0.0
        assert PowerSingular(0.3, 2.0).szego_integral() == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("density", [PoissonKernel(0.5), MA1, AutoRegressive([0.5], 0.75)])
    def test_closed_form_vs_quadrature(self, density):
        assert density.szego_integral() == pytest.approx(
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
        assert density.szego_integral() == pytest.approx(quad_szego(density), abs=1e-12)

    def test_sum_with_cusp_evaluation_budget(self, monkeypatch):
        # uniform grids need about 2M points on this cusp, tanh-sinh about 200
        points = count_sum_points(monkeypatch)
        CUSP_SUM.szego_integral()
        assert 0 < sum(points) <= 20_000

    def test_vanishing_density_raises(self):
        with pytest.raises(QuadratureNotConverged) as info:
            _Gap().szego_integral()
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
        assert np.all(White(1.0).log_fourier_coeffs(8) == 0.0)

    def test_poisson_closed_form_vs_quadrature(self):
        n = np.arange(1, 9)
        closed = PoissonKernel(0.5).log_fourier_coeffs(8)
        assert np.allclose(closed, 0.5**n / n, atol=1e-14)
        quad = log_cosine_quadrature(PoissonKernel(0.5), 8)[1:]
        assert np.allclose(closed, quad, atol=1e-10)

    def test_sum_with_cusp_vs_mpmath(self):
        # L(n) of the cusp sum model from mpmath at 20-25 digits; a midpoint
        # grid was 2.78e-11 off at every n, since the cusp acts like a point mass
        coeffs = CUSP_SUM.log_fourier_coeffs(4096)
        pins = {
            1: 0.105878056121954984,
            10: -0.00157729177622054603,
            1000: -1.21093765952226e-6,
            4096: -1.27144838773909e-7,
        }
        for n, want in pins.items():
            assert abs(coeffs[n - 1] - want) <= 1e-13

    def test_sum_with_cusp_evaluation_budget(self, monkeypatch):
        # doubled midpoint grids took 2.06M points here, tanh-sinh about 52k
        points = count_sum_points(monkeypatch)
        CUSP_SUM.log_fourier_coeffs(4096)
        assert 0 < sum(points) <= 100_000

    @pytest.mark.parametrize("max_n", [0, 1, 16, 255, 256])
    def test_nufft_matches_direct_sums(self, monkeypatch, max_n):
        # the same rule with every sum w_j g(t_j) cos(n t_j) taken term by term
        fast = log_cosine_quadrature(CUSP_SUM, max_n)
        monkeypatch.setattr(spectral, "_CosineSums", _DirectSums)
        monkeypatch.setattr(spectral, "_PlainSum", lambda: _DirectSums(0))
        assert np.max(np.abs(fast - log_cosine_quadrature(CUSP_SUM, max_n))) <= 1e-14

    @pytest.mark.parametrize(
        "density", [CUSP_SUM, White(4.0), PoissonKernel(0.5), PowerSingular(0.3, 2.0)], ids=repr
    )
    def test_plain_sum_matches_grid_at_n0(self, density):
        # N = 0 sums the folded values without the grid; N = 1 spreads them
        plain = log_cosine_quadrature(density, 0)
        assert plain.shape == (1,)
        assert abs(plain[0] - log_cosine_quadrature(density, 1)[0]) <= 1e-14

    def test_power_singular(self):
        coeffs = PowerSingular(0.3, 1.0).log_fourier_coeffs(5)
        assert np.allclose(coeffs, -0.3 / np.arange(1, 6), atol=1e-14)


class TestFourierTable:
    def test_eval_truncated_series(self):
        table = FourierTable(AutocovarianceSequence([1.0, 0.5, 0.25, 0.125]))
        t = 0.4
        expected = 1 + 2 * (0.5 * math.cos(t) + 0.25 * math.cos(2 * t) + 0.125 * math.cos(3 * t))
        assert table.eval(t) == pytest.approx(expected, abs=1e-12)

    def test_eval_raises_for_bad_table(self):
        # not a positive definite sequence: series goes clearly negative
        table = FourierTable(AutocovarianceSequence([1.0, 0.9, 0.9]))
        with pytest.raises(EvaluationUnavailable):
            table.eval(np.linspace(-math.pi, math.pi, 301))

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
        quad = covariance_quadrature(f, 16)
        assert np.max(np.abs(closed - quad)) < 1e-9

    def test_filter_whitens_poisson(self):
        # |1 - 0.5 e^{it}|^2 P_{0.5}(t) = 0.75 identically
        f = FilterProduct([1.0, -0.5], PoissonKernel(0.5))
        t = np.linspace(-math.pi, math.pi, 101)
        assert np.allclose(f.eval(t), 0.75, atol=1e-12)
