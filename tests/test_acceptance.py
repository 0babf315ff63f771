"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured quantity."""

import math
import time

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    GaussianProcessModel,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    SeparableFieldModel,
    White,
)
from entrospec.entropy_analysis import (
    dyadic_decomposition,
    independence_defect,
    markov_defect,
)
from entrospec.prediction import prediction_gap_series
from entrospec.smb import expected_log_derivative, smb2d_experiment, smb_experiment
from entrospec.spectral import log_abs_symbol_integral, szego_integral_quadrature

from conftest import dense_log_det, dense_quadratic_form, make_zoo
from test_field2d import FIELDS, dense_kron_cov

HALF_LOG_2PI_E = 0.5 * math.log(2 * math.pi * math.e)

# Constants frozen from independent oracles before the assertions below
# were first run.  POWER_S_* are partial sums of delta_n = r0 prod_{j<=n}
# (1 - k_j^2) - 1, k_j = -alpha/(j + alpha), the closed form of alpha = 0.3,
# evaluated at 40 digits; ELOG_DPHI is Gauss-Hermite:
SE_AR1 = 1.2750975
POWER_S_512 = 0.53746550824656847
POWER_S_4096 = 0.72442245730449707
ELOG_DPHI = 0.05795692528396653  # E[log(1 + 0.1 cos X)], X ~ N(0,1)
SE_2D = 1.1312565


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_acceptance_1_three_route_rate_agreement():
    t0 = time.time()
    models = {
        "white1": GaussianProcessModel(White(1.0)),
        "poisson05": GaussianProcessModel(PoissonKernel(0.5)),
        "ma1": GaussianProcessModel(MovingAverage([1.0, 0.5])),
    }
    worst = 0.0
    for model in models.values():
        closed = model.entropy_rate()
        quad = HALF_LOG_2PI_E + 0.5 * szego_integral_quadrature(model.density)
        block = model.block_entropy(4096) / 4096
        worst = max(
            worst, abs(closed - quad), abs(closed - block), abs(quad - block)
        )
    elapsed = time.time() - t0
    _line(
        "AC-1 three-route rate agreement",
        worst <= 1e-4 and elapsed < 5.0,
        f"max pairwise gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_2_mutual_information_identity(zoo):
    t0 = time.time()
    worst = 0.0
    low = 0.0
    for model in zoo.values():
        fact = model.factorization(128)
        h = np.array([model.block_entropy(n) for n in range(0, 129)])
        d = np.array([fact.log_det(n) for n in range(0, 129)])
        for n in range(1, 65):
            for p in range(1, 65):
                lhs = h[n] + h[p] - h[n + p]
                rhs = 0.5 * (d[n] + d[p] - d[n + p])
                worst = max(worst, abs(lhs - rhs))
                low = min(low, lhs)
    elapsed = time.time() - t0
    _line(
        "AC-2 block mutual information identity",
        worst <= 1e-12 and low >= -1e-12 and elapsed < 5.0,
        f"max identity gap {worst:.2e}, min value {low:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_3_memory_and_independence_criteria():
    ar1 = GaussianProcessModel(AutoRegressive([0.5], 0.75))
    ma1 = GaussianProcessModel(MovingAverage([1.0, 0.5]))
    white = GaussianProcessModel(White(1.0))
    d_ar = markov_defect(ar1, 1)
    d_ma = markov_defect(ma1, 1)
    d_white = independence_defect(white)
    d_ind = independence_defect(ar1)
    ok = (
        d_ar <= 1e-10
        and abs(d_ma - 0.0243951) <= 1e-6
        and d_white <= 1e-12
        # full-precision derived target (1/2) log(4/3) = 0.1438410362...;
        # a 7-digit rounding of it cannot satisfy a 1e-9 tolerance
        and abs(d_ind - 0.14384103622589042) <= 1e-9
    )
    _line(
        "AC-3 Markov and independence criteria",
        ok,
        f"markov(ar1)={d_ar:.2e}, markov(ma1)={d_ma:.7f}, "
        f"indep(white)={d_white:.2e}, indep(ar1)={d_ind:.7f}",
    )


def test_acceptance_4_smb_1d():
    t0 = time.time()
    model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
    rep = smb_experiment(model, [1024], 200, base_seed=20240817)
    mean = float(rep.means[0])
    sd = float(rep.sds[0])
    elapsed = time.time() - t0
    ok = (
        abs(mean - SE_AR1) <= 0.0063
        and 0.0155 <= sd <= 0.0287
        and elapsed < 60.0
    )
    _line(
        "AC-4 1-D pointwise convergence ensemble",
        ok,
        f"mean={mean:.7f} (target {SE_AR1}), sd={sd:.4f}, {elapsed:.1f}s",
    )


def test_acceptance_5_smb_2d():
    t0 = time.time()
    fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
    rep = smb2d_experiment(fm, [16, 32, 64], 50, base_seed=20240817)
    mad = rep.mean_abs_deviation(rep.values_by_n)
    mean64 = float(rep.means[-1])
    elapsed = time.time() - t0
    ok = (
        abs(mean64 - SE_2D) <= 0.00625
        and bool(np.all(np.diff(mad) < 0.0))
        and elapsed < 120.0
    )
    _line(
        "AC-5 2-D pointwise convergence ensemble",
        ok,
        f"mean@64={mean64:.7f} (target {SE_2D}), MAD={np.round(mad, 4).tolist()}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_6_filter_law():
    cases = [
        (GaussianProcessModel(White(1.0)), [1.0, 0.5]),
        (GaussianProcessModel(PoissonKernel(0.5)), [1.0, -0.5]),
    ]
    worst = 0.0
    for model, symbol in cases:
        shift = log_abs_symbol_integral(symbol)
        assert abs(shift) <= 1e-12  # both symbols have their root outside
        filtered = model.filtered_model(symbol)
        worst = max(
            worst, abs(filtered.entropy_rate() - model.entropy_rate() - shift)
        )
    _line("AC-6 linear filter rate law", worst <= 1e-6, f"max residual {worst:.2e}")


def test_acceptance_7_dyadic_decomposition():
    model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
    _, se_rec, _ = dyadic_decomposition(model, 12)
    err = abs(se_rec - SE_AR1)
    _line("AC-7 dyadic rate reconstruction", err <= 1e-4, f"|se_rec - target| = {err:.2e}")


def test_acceptance_8_prediction_dichotomy():
    ar1 = GaussianProcessModel(AutoRegressive([0.5], 0.75))
    diag_ar = prediction_gap_series(ar1, 1024)
    s_max = float(np.max(np.abs(diag_ar.gap_partial_sums)))
    t_gap = float(
        diag_ar.strong_szego_partial_sums[1023] - diag_ar.strong_szego_partial_sums[511]
    )
    power = GaussianProcessModel(PowerSingular(0.3, 1.0))
    diag_p = prediction_gap_series(power, 4096)
    s512 = float(diag_p.gap_partial_sums[511])
    s4096 = float(diag_p.gap_partial_sums[4095])
    n = np.arange(1, 4097)
    harmonic_err = float(
        np.max(np.abs(diag_p.strong_szego_partial_sums - 0.09 * np.cumsum(1.0 / n)))
    )
    ok = (
        s_max <= 1e-12
        and t_gap <= 1e-6
        and abs(s512 - POWER_S_512) <= 1e-9
        and abs(s4096 - POWER_S_4096) <= 1e-9
        and s4096 > 1.1 * s512
        and harmonic_err <= 1e-10
    )
    _line(
        "AC-8 prediction-gap dichotomy",
        ok,
        f"AR max|S_N|={s_max:.1e}, AR T gap={t_gap:.1e}, "
        f"singular S_4096/S_512={s4096 / s512:.3f}",
    )


def test_acceptance_9_max_entropy_and_sum_dominance(zoo):
    worst_excess = -math.inf
    equality_gap = None
    for name, model in zoo.items():
        bound = 0.5 * (math.log(2 * math.pi) + model.r0)
        excess = model.entropy_rate() - bound
        worst_excess = max(worst_excess, excess)
        if name == "white1":
            equality_gap = abs(excess)
        else:
            assert excess < -1e-6
    grid = list(zoo.values())
    worst_dom = math.inf
    for a in grid:
        for b in grid:
            s = a.sum_independent(b)
            worst_dom = min(
                worst_dom,
                s.entropy_rate() - max(a.entropy_rate(), b.entropy_rate()),
            )
    ok = worst_excess <= 1e-12 and equality_gap <= 1e-12 and worst_dom >= -1e-9
    _line(
        "AC-9 maximum-entropy bound and sum dominance",
        ok,
        f"max excess {worst_excess:.1e}, white equality gap {equality_gap:.1e}, "
        f"min dominance margin {worst_dom:.2e}",
    )


def test_acceptance_10_dense_oracle_equivalence(zoo):
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for model in zoo.values():
        for n in (1, 2, 8, 32, 128):
            want = dense_log_det(model, n)
            got = model.log_det(n)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            x = rng.standard_normal(n)
            wq = dense_quadratic_form(model, x)
            gq = model.factorization(n).quadratic_form(x)
            worst = max(worst, abs(gq - wq) / max(1.0, abs(wq)))
    for make in FIELDS.values():
        fm = make()
        for n in (2, 4, 6):
            R = dense_kron_cov(fm, n)
            X = rng.standard_normal((n, n))
            x = X.ravel()
            _, logdet = np.linalg.slogdet(R)
            want = -0.5 * (
                n * n * math.log(2 * math.pi) + logdet + x @ np.linalg.solve(R, x)
            )
            got = fm.log_block_density_2d(X)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.time() - t0
    _line(
        "AC-10 dense linear-algebra oracle equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"max relative gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_11_transformed_smb():
    model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
    phi = lambda x: x + 0.1 * np.sin(x)
    dphi = lambda x: 1 + 0.1 * np.cos(x)
    shift = expected_log_derivative(dphi, model.r0)
    assert abs(shift - ELOG_DPHI) <= 1e-10
    rep = smb_experiment(model, [1024], 200, base_seed=20240817, transform=(phi, dphi))
    mean = float(rep.means[0])
    target = SE_AR1 + ELOG_DPHI
    ok = abs(mean - target) <= 0.0063
    _line(
        "AC-11 transformed-process convergence",
        ok,
        f"mean={mean:.7f}, target={target:.7f}, gap={abs(mean - target):.2e}",
    )
