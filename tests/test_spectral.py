import math

import numpy as np
import pytest
import scipy.special

from entrospec import (
    AutoRegressive,
    FilterProduct,
    FourierTable,
    ModelConfigError,
    MovingAverage,
    NotPositiveDefinite,
    PoissonKernel,
    PowerSingular,
    QuadratureNotConverged,
    SpectralDensity,
    SpectralGap,
    SumDensity,
    White,
)
from entrospec import spectral
from entrospec.spectral import NEG_INF, cosine_integrals, szego_integral_quadrature
from entrospec.toeplitz import levinson

from conftest import make_non_banded_zoo, make_zoo, quad_szego

SQRT125 = math.sqrt(1.25)
MA1 = MovingAverage([1.0 / SQRT125, 0.5 / SQRT125])
# the exact-long-memory benchmark's sum model: a cusp of log f at t = 0
CUSP_SUM = PoissonKernel(0.5) + PowerSingular(0.3, 1.0)
# every zoo density, a q = 7 filter of a long-memory density and a table
PREFIX_DENSITIES = {
    **{name: m.density for name, m in {**make_zoo(), **make_non_banded_zoo()}.items()},
    "filter7_power": FilterProduct(
        [1.0, -0.5, 0.3, 0.2, 0.1, 0.05, -0.4, 0.7], PowerSingular(0.3, 1.0)
    ),
    "table": FourierTable([1.0, 0.6, 0.3, 0.1]),
}


def covariance_quadrature(density, max_lag):
    return cosine_integrals(density.eval, max_lag, "autocovariance")


def log_cosine_quadrature(density, max_n):
    """int log f cos(nt) dlambda for n = 0..max_n: the Szego integral, then L(1..max_n)."""
    return cosine_integrals(
        lambda t: np.log(density.eval(t)), max_n, "log-density Fourier coefficients"
    )


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
    @pytest.mark.parametrize("name", sorted(PREFIX_DENSITIES))
    def test_prefix_consistent(self, name):
        # r(n) does not depend on the max_lag asked for, bit for bit, so a
        # model's covariance cache can grow without moving its prefix
        density = PREFIX_DENSITIES[name]
        full = density.autocovariance(9000)
        for max_lag in range(300):
            assert np.array_equal(density.autocovariance(max_lag), full[: max_lag + 1])

    def test_white(self):
        acov = White(1.0).autocovariance(3)
        assert np.allclose(acov, [1, 0, 0, 0])

    def test_poisson_closed_form(self):
        acov = PoissonKernel(0.5).autocovariance(3)
        assert np.allclose(acov, [1, 0.5, 0.25, 0.125], atol=1e-12)

    def test_ma_normalized(self):
        acov = MA1.autocovariance(2)
        assert acov[0] == pytest.approx(1.0, abs=1e-12)
        assert acov[1] == pytest.approx(0.4, abs=1e-12)
        assert acov[2] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("density", [PoissonKernel(0.5), MA1])
    def test_closed_form_vs_quadrature(self, density):
        closed = density.autocovariance(64)
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
        assert np.allclose(ar.autocovariance(8), 0.5 ** np.arange(9), atol=1e-12)

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

    # (gap fraction, gap level, white level) of gap + white sums
    GAP_SUMS = [(0.25, 1.0, 1.0), (0.4, 2.0, 0.5), (0.1, 0.3, 3.0)]

    @pytest.mark.parametrize("a,level,w", GAP_SUMS)
    def test_sum_with_gap_closed_form(self, a, level, w):
        # log f jumps at t = +-a pi, which the quadrature takes as panel ends
        density = SpectralGap(a, level) + White(w)
        want = a * math.log(w) + (1.0 - a) * math.log(level + w)
        assert abs(density.szego_integral() - want) <= 1e-14

    def test_jump_points_pass_through_closures(self):
        # a gap inside a scaled term or a filter still splits the sum's panels
        want = 0.25 * math.log(1.0) + 0.75 * math.log(4.0 + 1.0)
        for term in (SpectralGap(0.25, 1.0).scaled(4.0), FilterProduct([2.0], SpectralGap(0.25))):
            density = term + White(1.0)
            assert density.jump_points() == (0.25 * math.pi,)
            assert abs(density.szego_integral() - want) <= 1e-14

    # densities with int log f = -inf: a gap, scaled, filtered or summed
    DEGENERATE = {
        "gap": SpectralGap(0.25),
        "scaled": SpectralGap(0.5, 2.0).scaled(3.0),
        "filter": FilterProduct([1.0, -1.0, 1.0], SpectralGap(0.1)),
        "gap+gap": SpectralGap(0.25) + SpectralGap(0.5),
        "sum3": SumDensity((
            SpectralGap(0.25).scaled(2.0),
            FilterProduct([1.0, 0.5], SpectralGap(0.4)),
            SpectralGap(0.75, 3.0),
        )),
    }

    def test_minus_inf_densities_vanish_around_zero(self):
        # why a sum whose terms all have int log f = -inf has it too: each
        # term is 0 on an arc around t = 0, so the terms' arcs meet
        zoo = {**PREFIX_DENSITIES, "cusp_sum": CUSP_SUM, **self.DEGENERATE}
        degenerate = sorted(name for name, f in zoo.items() if f.szego_integral() == NEG_INF)
        assert degenerate == sorted(self.DEGENERATE)
        t = np.linspace(-0.05 * math.pi, 0.05 * math.pi, 101)
        for name in degenerate:
            assert np.all(zoo[name].eval(t) == 0.0), name

    def test_symbol_roots_on_circle_are_panel_ends(self):
        # 1 - z + z^2 vanishes at t = +-pi/3; 1 - 0.5 z has its root at z = 2
        ma = MovingAverage([1.0, -1.0, 1.0])
        assert ma.jump_points() == pytest.approx((math.pi / 3,), abs=1e-12)
        assert FilterProduct([1.0, -0.5], SpectralGap(0.25)).jump_points() == (0.25 * math.pi,)
        assert abs(szego_integral_quadrature(ma)) <= 1e-14

    def test_vanishing_density_raises(self):
        with pytest.raises(QuadratureNotConverged) as info:
            szego_integral_quadrature(SpectralGap(0.25, 4.0 / 3.0))
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

    @pytest.mark.parametrize("a,level,w", TestSzegoIntegral.GAP_SUMS)
    def test_sum_with_gap_closed_form(self, a, level, w):
        # L(n) = (log w - log(level + w)) sin(n a pi) / (n pi)
        n = np.arange(1, 257)
        want = (math.log(w) - math.log(level + w)) * np.sin(n * a * math.pi) / (n * math.pi)
        coeffs = (SpectralGap(a, level) + White(w)).log_fourier_coeffs(256)
        assert np.max(np.abs(coeffs - want)) <= 1e-13

    def test_symbol_root_on_circle_vs_closed_form(self):
        # L(1..64) of ma:1,-1,1 by quadrature, with a panel end at pi/3
        ma = MovingAverage([1.0, -1.0, 1.0])
        quad = cosine_integrals(ma._log_eval, 64, "L(n)", ma.jump_points())
        assert np.max(np.abs(quad[1:] - ma.log_fourier_coeffs(64))) <= 1e-13

    def test_power_singular(self):
        coeffs = PowerSingular(0.3, 1.0).log_fourier_coeffs(5)
        assert np.allclose(coeffs, -0.3 / np.arange(1, 6), atol=1e-14)


def table_of(density, q):
    return FourierTable(density.autocovariance(q))


class TestFourierTable:
    # tables of AR models, whose maximum-entropy extension is the model
    # itself, with the closed form of L(1..N): r^n/n, and for an AR
    # polynomial A, log f = log s^2 - log|A|^2
    AR_TABLES = {
        "poisson09_q64": (PoissonKernel(0.9), 64, PoissonKernel(0.9).log_fourier_coeffs),
        "ar2_q16": (
            AutoRegressive([1.6, -0.9], 1.0),
            16,
            lambda n: -spectral.log_abs_symbol_fourier_coeffs([1.0, -1.6, 0.9], n),
        ),
    }

    def test_eval_is_max_entropy_extension(self):
        # the order-3 predictor of r = 2^-n is (0.5, 0, 0), innovation 0.75
        table = FourierTable([1.0, 0.5, 0.25, 0.125])
        t = np.linspace(-math.pi, math.pi, 301)
        assert np.max(np.abs(table.eval(t) - PoissonKernel(0.5).eval(t))) <= 1e-14
        assert np.max(np.abs(np.subtract(table.coeffs, [0.5, 0.0, 0.0]))) <= 1e-16
        assert table.innovation_variance == pytest.approx(0.75, abs=1e-16)

    def test_eval_of_positive_definite_table(self):
        # [1, .9, .9] is positive definite; its truncated series is not
        # nonnegative, but its AR(2) extension is positive everywhere
        table = FourierTable([1.0, 0.9, 0.9])
        t = np.linspace(-math.pi, math.pi, 301)
        phi1, phi2 = table.coeffs
        ar = AutoRegressive([phi1, phi2], table.innovation_variance)
        assert np.min(table.eval(t)) > 0.0
        assert np.max(np.abs(table.eval(t) / ar.eval(t) - 1.0)) <= 1e-14
        assert table.autocovariance(2).tolist() == [1.0, 0.9, 0.9]

    def test_autocovariance_respects_table_length(self):
        # lags through q are the table itself, later ones its AR(1) recursion
        table = FourierTable([1.0, 0.5])
        assert table.autocovariance(1).tolist() == [1.0, 0.5]
        assert np.max(np.abs(table.autocovariance(5) - 0.5 ** np.arange(6))) <= 1e-16

    def test_szego_finite_case(self):
        for q in (1024, 4096):
            table = table_of(PoissonKernel(0.5), q)
            assert abs(table.szego_integral() - math.log(0.75)) <= 1e-12

    def test_szego_vanishing_density_is_minus_inf(self, arc_gap_coeffs):
        # density 0 on |t| <= pi/4 and 4/3 elsewhere: the closed form is -inf
        gap = SpectralGap(0.25, 4.0 / 3.0)
        assert gap.szego_integral() == NEG_INF
        assert np.max(np.abs(gap.autocovariance(512) - arc_gap_coeffs)) <= 1e-16
        # the same coefficients as a table: sigma2_n falls geometrically,
        # to the positive-definiteness floor at order 150
        with pytest.raises(NotPositiveDefinite) as info:
            FourierTable(arc_gap_coeffs)
        assert info.value.order == 150

    def test_equal_tables_compare_and_hash_equal(self):
        # the table is a tuple of floats, so tables compare and hash by value
        v = np.array([1.0, 0.5, 0.2])
        one, two = FourierTable(v.copy()), FourierTable(v.tolist())
        other = FourierTable([1.0, 0.4, 0.2])
        assert one == two and hash(one) == hash(two)
        assert one != other
        assert one.table == (1.0, 0.5, 0.2)
        # -0.0 and 0.0 compare equal, so their tables must hash equal
        assert FourierTable([1.0, 0.0]) == FourierTable([1.0, -0.0])
        assert hash(FourierTable([1.0, 0.0])) == hash(FourierTable([1.0, -0.0]))
        assert len({one, two, other}) == 2
        # a density holding a table compares and hashes the same way
        assert one + White(1.0) == two + White(1.0)
        assert hash(one + White(1.0)) == hash(two + White(1.0))
        assert one + White(1.0) != other + White(1.0)

    def test_empty_table_is_config_error(self):
        with pytest.raises(ModelConfigError):
            FourierTable([])

    @pytest.mark.parametrize("case", sorted(AR_TABLES))
    def test_table_of_ar_model_reproduces_it(self, case):
        density, q, closed_log_coeffs = self.AR_TABLES[case]
        table = table_of(density, q)
        assert abs(table.szego_integral() - density.szego_integral()) <= 1e-12
        t = np.linspace(-math.pi, math.pi, 1001)
        assert np.max(np.abs(table.eval(t) - density.eval(t))) <= 1e-11
        lags = table.autocovariance(500)
        assert np.max(np.abs(lags - density.autocovariance(500))) <= 1e-13
        coeffs = table.log_fourier_coeffs(200)
        assert np.max(np.abs(coeffs - closed_log_coeffs(200))) <= 1e-12
        quad = cosine_integrals(table._log_eval, 200, "log-density Fourier coefficients")
        assert np.max(np.abs(coeffs - quad[1:])) <= 1e-12

    @pytest.mark.parametrize("q", [16, 64, 256])
    @pytest.mark.parametrize(
        "density",
        [PowerSingular(0.3, 1.0), MovingAverage([1.0, 0.95]), PoissonKernel(0.9)],
        ids=repr,
    )
    def test_extension_adds_no_information(self, density, q):
        # past q the extension's reflections vanish and sigma2_n stays sigma2_q
        table = table_of(density, q)
        fact = levinson(table.autocovariance(2 * q + 10), 2 * q + 11)
        assert np.max(np.abs(fact.reflections[q:])) <= 1e-15
        assert np.all(fact.sigma2[q + 1 :] == fact.sigma2[q])
        assert fact.sigma2[q] == table.innovation_variance

    def test_log_fourier_coeffs_of_long_table(self):
        # the cepstral recursion of a non-AR table against quadrature of log f
        table = table_of(PowerSingular(0.3, 1.0), 64)
        coeffs = table.log_fourier_coeffs(300)
        quad = cosine_integrals(table._log_eval, 300, "log-density Fourier coefficients")
        assert np.max(np.abs(coeffs - quad[1:])) <= 1e-12

    @pytest.mark.parametrize(
        "density", [PoissonKernel(-0.6), AutoRegressive([0.5, -0.2], 1.0)], ids=repr
    )
    def test_sum_and_filter_of_table_past_q(self, density):
        # eval is positive, so quadrature routes work on tables too, and a
        # filter reads lags past the table
        table = table_of(density, 24)
        combined = FilterProduct([1.0, 0.5], table) + White(1.0)
        want = FilterProduct([1.0, 0.5], density) + White(1.0)
        assert combined.szego_integral() == pytest.approx(want.szego_integral(), abs=1e-9)
        lags, want_lags = combined.autocovariance(40), want.autocovariance(40)
        assert np.max(np.abs(lags - want_lags)) <= 1e-9


class TestRationalFamilies:
    """One kernel per family: a table is the AR model of its Levinson
    predictor, and an MA model is a filter of unit white noise."""

    ALL_POLE = {
        "ar2": AutoRegressive([0.5, -0.2], 1.0),
        "ar3": AutoRegressive([0.9, -0.5, 0.2], 0.7),
        "table5": table_of(PowerSingular(0.3, 1.0), 5),
    }
    MA_COEFFS = [(1.0,), (1.0, 0.9), (0.3, -1.7, 0.45, 2.2), (1.0, 0.5, -0.3, 0.1, 0.05)]

    @pytest.mark.parametrize("name", sorted(ALL_POLE))
    def test_recursion_dot_order(self, name):
        # r(m) = c . (r(m-1), ..., r(m-p)) in this order, bit for bit: the
        # reversed order changes the last bits, and with them seeded outputs
        density = self.ALL_POLE[name]
        c = np.asarray(density.coeffs)
        p = len(c)
        got = density.autocovariance(300)
        want = got.copy()
        for m in range(p + 1, 301):
            want[m] = np.dot(c, want[m - p : m][::-1])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(ALL_POLE))
    def test_log_fourier_coeffs_closed_form(self, name, monkeypatch):
        # the cepstral recursion, against the roots of 1 - sum c_k z^k, with
        # no quadrature
        density = self.ALL_POLE[name]

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(spectral, "cosine_integrals", no_quadrature)
        coeffs = density.log_fourier_coeffs(4096)
        char_poly = np.concatenate(([1.0], -np.asarray(density.coeffs)))
        want = -spectral.log_abs_symbol_fourier_coeffs(char_poly, 4096)
        assert np.max(np.abs(coeffs - want)) <= 1e-13

    @pytest.mark.parametrize("coeffs", MA_COEFFS, ids=str)
    def test_moving_average_is_filtered_white_noise(self, coeffs):
        ma, filt = MovingAverage(coeffs), FilterProduct(coeffs, White(1.0))
        t = np.linspace(-math.pi, math.pi, 1001)
        assert np.array_equal(ma.eval(t), filt.eval(t))
        assert np.array_equal(ma.autocovariance(40), filt.autocovariance(40))
        assert ma.szego_integral() == filt.szego_integral()
        assert np.array_equal(ma.log_fourier_coeffs(64), filt.log_fourier_coeffs(64))
        # and the covariances are the coefficients' autocorrelation, exactly
        a = np.asarray(coeffs)
        q = len(a) - 1
        want = [np.dot(a[: q + 1 - n], a[n:]) for n in range(q + 1)] + [0.0] * (40 - q)
        assert np.array_equal(ma.autocovariance(40), want)

    def test_filter_covariance_matches_double_sum(self):
        # r_Y(n) = sum_j sum_k g_j g_k r(n + k - j), summed in this order
        g = np.array([1.0, -0.6, 0.35, 0.2, -0.15, 0.1, 0.05, -0.02])
        base = PowerSingular(0.3, 1.0)
        q, max_lag = len(g) - 1, 8191
        inner = base.autocovariance(max_lag + q)
        n = np.arange(max_lag + 1)
        want = np.zeros(max_lag + 1)
        for j in range(q + 1):
            for k in range(q + 1):
                want += g[j] * g[k] * inner[np.abs(n + k - j)]
        got = FilterProduct(g, base).autocovariance(max_lag)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestTrigPower:
    """One helper evaluates every |sum_k c_k e^{ikt}|^2, bit for bit as the
    per-class loops it replaced."""

    T = np.linspace(-math.pi, math.pi, 1001)

    @staticmethod
    def series(coeffs, t):
        acc = np.zeros_like(t, dtype=np.complex128)
        for k, c in enumerate(coeffs):
            acc += c * np.exp(1j * k * t)
        return acc

    def test_moving_average(self):
        coeffs = (0.3, -1.7, 0.45, 2.2)
        want = np.abs(self.series(coeffs, self.T)) ** 2
        assert np.array_equal(MovingAverage(coeffs).eval(self.T), want)

    def test_filter_product(self):
        symbol = (1.0, -0.35, 0.8)
        want = np.abs(self.series(symbol, self.T)) ** 2 * White(2.0).eval(self.T)
        assert np.array_equal(FilterProduct(symbol, White(2.0)).eval(self.T), want)

    def test_autoregressive(self):
        coeffs = (0.5, -0.2, 0.1)
        acc = np.ones_like(self.T, dtype=np.complex128)
        for k, c in enumerate(coeffs, start=1):
            acc -= c * np.exp(1j * k * self.T)
        want = 0.7 / np.abs(acc) ** 2
        assert np.array_equal(AutoRegressive(coeffs, 0.7).eval(self.T), want)

    def test_fourier_table(self):
        table = table_of(PowerSingular(0.3, 1.0), 8)
        acc = np.ones_like(self.T, dtype=np.complex128)
        for k, c in enumerate(table.coeffs, start=1):
            acc -= c * np.exp(1j * k * self.T)
        want = table.innovation_variance / np.abs(acc) ** 2
        assert np.array_equal(table.eval(self.T), want)


class TestClosureVariants:
    def test_scaled(self):
        scaled = PoissonKernel(0.5).scaled(2.0)
        assert scaled.szego_integral() == pytest.approx(math.log(2 * 0.75), abs=1e-12)
        assert scaled.autocovariance(2)[1] == pytest.approx(1.0, abs=1e-12)

    def test_sum_covariance_adds(self):
        s = PoissonKernel(0.5) + White(1.0)
        acov = s.autocovariance(3)
        assert np.allclose(acov, [2, 0.5, 0.25, 0.125], atol=1e-12)

    def test_filter_product_covariance_matches_quadrature(self):
        # convolution-form covariance vs direct quadrature of |g|^2 f
        f = FilterProduct([1.0, 0.5], PoissonKernel(0.5))
        closed = f.autocovariance(16)
        quad = covariance_quadrature(f, 16)
        assert np.max(np.abs(closed - quad)) < 1e-9

    def test_filter_whitens_poisson(self):
        # |1 - 0.5 e^{it}|^2 P_{0.5}(t) = 0.75 identically
        f = FilterProduct([1.0, -0.5], PoissonKernel(0.5))
        t = np.linspace(-math.pi, math.pi, 101)
        assert np.allclose(f.eval(t), 0.75, atol=1e-12)
