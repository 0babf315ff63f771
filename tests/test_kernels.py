import numpy as np
import pytest

from entrospec import kernels
from entrospec.kernels import _pykernels

from conftest import package_env


def _c_backend():
    if kernels.BACKEND != "c":
        pytest.skip("compiled backend not available")
    from entrospec.kernels import _ckernels

    return _ckernels


def _cases():
    rng = np.random.default_rng(2024)
    yield np.concatenate(([1.0], np.zeros(16)))
    yield 0.5 ** np.arange(65)
    yield np.concatenate(([1.25, 0.5], np.zeros(63)))
    # random MA-type covariance, guaranteed positive definite
    g = rng.standard_normal(6)
    r = np.correlate(np.concatenate((g, np.zeros(64))), g, mode="full")[
        len(g) + 63 :
    ]
    yield r + np.concatenate(([1e-3], np.zeros(len(r) - 1)))


class TestBackendParity:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("c", "python")

    def test_levinson_matches(self):
        ck = _c_backend()
        for r in _cases():
            n = len(r) - 1
            s_c, k_c, f_c = ck.levinson_recursion(np.asarray(r, float), n, 1e-300)
            s_p, k_p, f_p = _pykernels.levinson_recursion(np.asarray(r, float), n, 1e-300)
            assert f_c == f_p == -1
            assert np.max(np.abs(np.asarray(s_c) - s_p)) <= 1e-12
            assert np.max(np.abs(np.asarray(k_c) - k_p)) <= 1e-12

    def test_levinson_failure_order_matches(self):
        ck = _c_backend()
        r = np.array([1.0, 1.0, 1.0])
        *_, f_c = ck.levinson_recursion(r, 2, 1e-13)
        *_, f_p = _pykernels.levinson_recursion(r, 2, 1e-13)
        assert f_c == f_p != -1

    def test_predictor_matches(self):
        ck = _c_backend()
        r = 0.5 ** np.arange(33)
        _, k, _ = _pykernels.levinson_recursion(r, 32, 1e-300)
        for m in (1, 2, 7, 31):
            a_c = np.asarray(ck.predictor_from_reflections(np.asarray(k), m))
            a_p = _pykernels.predictor_from_reflections(np.asarray(k), m)
            assert np.max(np.abs(a_c - a_p)) <= 1e-14

    def test_residuals_match(self):
        ck = _c_backend()
        rng = np.random.default_rng(7)
        r = 0.5 ** np.arange(129)
        _, k, _ = _pykernels.levinson_recursion(r, 128, 1e-300)
        x = rng.standard_normal(128)
        e_c = np.asarray(ck.residuals(np.asarray(k), x))
        e_p = _pykernels.residuals(np.asarray(k), x)
        assert np.max(np.abs(e_c - e_p)) <= 1e-12

    def test_synthesize_matches(self):
        ck = _c_backend()
        rng = np.random.default_rng(8)
        r = 0.5 ** np.arange(129)
        s, k, _ = _pykernels.levinson_recursion(r, 128, 1e-300)
        sigma = np.sqrt(np.asarray(s))
        z = rng.standard_normal(128)
        x_c = np.asarray(ck.synthesize(np.asarray(k), sigma, z))
        x_p = _pykernels.synthesize(np.asarray(k), sigma, z)
        assert np.max(np.abs(x_c - x_p)) <= 1e-12

    def test_synthesize_inverts_residuals(self):
        # pure-python round trip: residuals o synthesize = identity on z*sigma
        rng = np.random.default_rng(9)
        r = 0.5 ** np.arange(65)
        s, k, _ = _pykernels.levinson_recursion(r, 64, 1e-300)
        sigma = np.sqrt(np.asarray(s))
        z = rng.standard_normal(64)
        x = _pykernels.synthesize(np.asarray(k), sigma, z)
        e = _pykernels.residuals(np.asarray(k), x)
        assert np.max(np.abs(e - sigma * z)) <= 1e-12


class TestEnvOverride:
    def test_pure_env_forces_python(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "import entrospec.kernels as k; print(k.BACKEND)"],
            env=package_env(ENTROSPEC_PURE="1"),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"
