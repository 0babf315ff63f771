import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import entrospec
from entrospec import (
    AutoRegressive,
    GaussianProcessModel,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    SpectralGap,
    White,
)

SQRT125 = math.sqrt(1.25)
# 0 on |t| <= pi/4 and 4/3 elsewhere, so r(0) = 1: Szego integral -inf
ARC_GAP = SpectralGap(0.25, 4.0 / 3.0)


def package_env(**extra):
    """Environment for a child interpreter that must import the entrospec
    under test, installed or run from the source tree, whatever its cwd."""
    package_root = os.path.dirname(os.path.dirname(entrospec.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def make_zoo():
    """Strictly positive definite models exercised by most identity tests."""
    return {
        "white1": GaussianProcessModel(White(1.0)),
        "white4": GaussianProcessModel(White(4.0)),
        "poisson05": GaussianProcessModel(PoissonKernel(0.5)),
        "poisson_m03": GaussianProcessModel(PoissonKernel(-0.3)),
        "ma1": GaussianProcessModel(MovingAverage([1.0 / SQRT125, 0.5 / SQRT125])),
        "ar2": GaussianProcessModel(AutoRegressive([0.5, -0.2], 1.0)),
    }


@pytest.fixture(scope="session")
def arc_gap_coeffs():
    """r(0..512) of ARC_GAP, built by hand: r(0) = 1 and
    r(n) = -(4/3) sin(n pi/4) / (pi n)."""
    n = np.arange(1, 513)
    return np.concatenate(([1.0], -(4.0 / 3.0) * np.sin(n * math.pi / 4) / (math.pi * n)))


@pytest.fixture(scope="session")
def zoo():
    return make_zoo()


@pytest.fixture(scope="session")
def zoo_with_singular(zoo):
    out = dict(zoo)
    out["power"] = GaussianProcessModel(PowerSingular(0.3, 1.0))
    return out


def make_non_banded_zoo():
    """Models whose inverse Levinson factor has no band: every predictor
    order carries new coefficients."""
    power = GaussianProcessModel(PowerSingular(0.3, 1.0))
    zoo = make_zoo()
    return {
        "power": power,
        "ma1": zoo["ma1"],
        "poisson05+power": GaussianProcessModel(zoo["poisson05"].density + power.density),
        "ma1+ar2": GaussianProcessModel(zoo["ma1"].density + zoo["ar2"].density),
    }


def dense_cov(model, n):
    acov = model.autocovariance(n - 1)
    return scipy.linalg.toeplitz(acov[:n])


def dense_log_det(model, n):
    chol = np.linalg.cholesky(dense_cov(model, n))
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def dense_quadratic_form(model, x):
    x = np.asarray(x, dtype=np.float64)
    return float(x @ np.linalg.solve(dense_cov(model, len(x)), x))


def dense_innovations(model, x):
    """diag(L) L^{-1} x, L the Cholesky factor of the dense R_n: the
    innovations of x against its own past, without Levinson."""
    x = np.asarray(x, dtype=np.float64)
    chol = np.linalg.cholesky(dense_cov(model, len(x)))
    return np.diag(chol) * scipy.linalg.solve_triangular(chol, x, lower=True)


def dense_predictor(model, m):
    """Order-m backward predictor b from the dense Yule-Walker solve
    R_m b = (r(m), ..., r(1))."""
    acov = model.autocovariance(m)
    return np.linalg.solve(dense_cov(model, m), acov[m:0:-1])


def quad_szego(density):
    """int log f dlambda by scipy's adaptive quadrature on [0, pi], which puts
    the power-singular cusp at an endpoint; the densities are even."""
    value, _ = scipy.integrate.quad(
        lambda t: math.log(float(density.eval(t))), 0.0, math.pi, epsabs=1e-13, epsrel=0.0,
        limit=200,
    )
    return value / math.pi
