"""The benchmark's workloads: the CLI commands each one runs and the checks
that verify every output by a route independent of the code under test.

A check returns (name, passed, detail).  KNOWN_DEFECTS lists checks that
fail on the seed commit because of a recorded defect; they still count in
the pass ratio, but do not make the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

MODELS = "entrobench/models"
FIELD_MODEL = f"{MODELS}/separable_poisson_ar2.json"
SUM_MODEL = f"{MODELS}/sum_poisson_power.json"

# The CLI seed is the benchmark seed modulo this, so that the seed commit's
# output digest is on file (reference.json) for every input.
REFERENCE_SEEDS = 16

HALF_LOG_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)
EXACT_REL_TOL = 1e-9  # closed-form routes agree to about 1e-12 in float64
SMB_1D_GRID = (64, 256, 1024, 4096)
SMB_2D_GRID = (16, 32, 64, 128)
REPORT_GRID = (1, 4, 16, 64, 256, 1024, 4096)

# All four come from the fixed 2^18-point FFT autocovariance of
# power_singular (ROADMAP item 3): at alpha = 0.1 delta_n < 0 from n = 5243,
# sigma2_n is off the closed form by 2.1e-6 (alpha = 0.1) and 5.1e-7
# (alpha = 0.3) relative, and the sum model has delta_n < 0 from n = 938.
KNOWN_DEFECTS = frozenset({
    "predict-ps0.1/delta_nonnegative",
    "predict-ps0.1/sigma2_closed_form",
    "predict-ps0.3/sigma2_closed_form",
    "predict-sum/delta_nonnegative",
})


def _close(value, exact, rel=EXACT_REL_TOL):
    return abs(value - exact) <= rel * max(1.0, abs(exact))


def _ar1_log_det(n, phi, s2):
    """log det R_n of X_t = phi X_{t-1} + e_t, Var e = s2."""
    return math.log(s2 / (1.0 - phi * phi)) + (n - 1) * math.log(s2)


def _ar2_log_det(n, p1, p2, s2):
    """log det R_n of X_t = p1 X_{t-1} + p2 X_{t-2} + e_t (Yule-Walker)."""
    r0 = s2 * (1.0 - p2) / ((1.0 + p2) * ((1.0 - p2) ** 2 - p1 * p1))
    if n == 1:
        return math.log(r0)
    r1 = r0 * p1 / (1.0 - p2)
    return math.log(r0 * r0 - r1 * r1) + (n - 2) * math.log(s2)


def _power_singular_sigma2(alpha, n_max):
    """sigma2_1..sigma2_n of |1 - e^{it}|^{2 alpha}: r0 prod (1 - k_j^2),
    k_j = -alpha / (j + alpha), r0 = Gamma(1 + 2 alpha) / Gamma(1 + alpha)^2."""
    value = math.exp(math.lgamma(1.0 + 2.0 * alpha) - 2.0 * math.lgamma(1.0 + alpha))
    out = []
    for j in range(1, n_max + 1):
        k = -alpha / (j + alpha)
        value *= 1.0 - k * k
        out.append(value)
    return out


def _key_values(text):
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


# ---------------------------------------------------------------------------
# smb-1d


def _smb_1d(seed):
    grid = ",".join(map(str, SMB_1D_GRID))
    return [("smb", ["smb", "--model", "ar:0.5:0.75", "--n", grid, "--m", "200",
                     "--seed", str(seed % REFERENCE_SEEDS), "--assert",
                     "--format", "json", "--workers", "1"])]


def _check_smb_1d(label, rc, output):
    out = json.loads(output)
    checks = [("exit_0_under_assert", rc == 0, f"rc={rc}")]
    for n, hn in zip(out["n_grid"], out["hn_over_n"]):
        exact = HALF_LOG_2PI_E + 0.5 * _ar1_log_det(n, 0.5, 0.75) / n
        checks.append((f"hn_over_n_closed_form_n{n}", _close(hn, exact), f"{hn!r} vs {exact!r}"))
    exact = 0.5 * math.log(2.0 * math.pi * math.e * 0.75)
    checks.append(("se_exact_closed_form", _close(out["se_exact"], exact),
                   f"{out['se_exact']!r} vs {exact!r}"))
    checks.append(("n_grid_complete", out["n_grid"] == list(SMB_1D_GRID), str(out["n_grid"])))
    return checks


# ---------------------------------------------------------------------------
# smb-2d


def _smb_2d(seed):
    grid = ",".join(map(str, SMB_2D_GRID))
    return [("smb2d", ["smb2d", "--model-file", FIELD_MODEL, "--n", grid, "--m", "200",
                       "--seed", str(seed % REFERENCE_SEEDS), "--assert",
                       "--format", "json", "--workers", "1"])]


def _check_smb_2d(label, rc, output):
    out = json.loads(output)
    checks = [("exit_0_under_assert", rc == 0, f"rc={rc}")]
    for n, hn in zip(out["n_grid"], out["hn_over_n"]):
        # poisson:0.5 is AR(1) with phi = 0.5 and innovation variance 0.75;
        # the Kronecker covariance has log det n (log det R_a + log det R_b)
        log_det = n * (_ar1_log_det(n, 0.5, 0.75) + _ar2_log_det(n, 0.5, -0.2, 1.0))
        exact = HALF_LOG_2PI_E + 0.5 * log_det / (n * n)
        checks.append((f"hn_over_n_closed_form_n{n}", _close(hn, exact), f"{hn!r} vs {exact!r}"))
    exact = HALF_LOG_2PI_E + 0.5 * math.log(0.75)
    checks.append(("se_exact_closed_form", _close(out["se_exact"], exact),
                   f"{out['se_exact']!r} vs {exact!r}"))
    checks.append(("n_grid_complete", out["n_grid"] == list(SMB_2D_GRID), str(out["n_grid"])))
    return checks


# ---------------------------------------------------------------------------
# exact-long-memory


def _exact_long_memory(seed):
    grid = ",".join(map(str, REPORT_GRID))
    commands = [
        ("predict-ps0.1", ["predict", "--model", "power_singular:0.1", "--n", "8192"]),
        ("predict-ps0.3", ["predict", "--model", "power_singular:0.3", "--n", "8192"]),
        ("predict-sum", ["predict", "--model-file", SUM_MODEL, "--n", "4096"]),
        ("report-sum", ["report", "--model-file", SUM_MODEL, "--n", grid, "--format", "json"]),
        ("rate-sum", ["rate", "--model-file", SUM_MODEL]),
        ("filter-ps0.3", ["filter", "--model", "power_singular:0.3", "--symbol", "1,-0.5"]),
    ]
    # no randomness in these commands: the seed only sets their order
    random.Random(seed).shuffle(commands)
    return [(label, argv + ["--workers", "1"]) for label, argv in commands]


def _check_predict(output, n_max, alpha=None):
    rows = list(csv.DictReader(io.StringIO(output)))
    sigma2 = [float(r["sigma2_n"]) for r in rows]
    delta = [float(r["delta_n"]) for r in rows]
    checks = [("rows_complete", len(rows) == n_max, f"{len(rows)} rows")]
    rises = [i + 2 for i in range(len(sigma2) - 1) if sigma2[i + 1] > sigma2[i]]
    checks.append(("sigma2_nonincreasing", not rises, f"first rise at n={rises[0]}" if rises else "ok"))
    negative = [i + 1 for i, d in enumerate(delta) if d < 0.0]
    checks.append(("delta_nonnegative", not negative,
                   f"delta_n < 0 at {len(negative)} n from n={negative[0]}, min {min(delta)!r}"
                   if negative else f"min {min(delta)!r}"))
    if alpha is not None:
        exact = _power_singular_sigma2(alpha, len(sigma2))
        worst = max((abs(s - e) / e for s, e in zip(sigma2, exact)), default=math.inf)
        checks.append(("sigma2_closed_form", worst <= EXACT_REL_TOL, f"max rel err {worst:.3e}"))
    return checks


def _check_exact_long_memory(label, rc, output):
    if label == "predict-ps0.1":
        return _check_predict(output, 8192, alpha=0.1)
    if label == "predict-ps0.3":
        return _check_predict(output, 8192, alpha=0.3)
    if label == "predict-sum":
        return _check_predict(output, 4096)
    if label == "report-sum":
        out = json.loads(output)
        residual = out["dyadic_residual"]
        return [("dyadic_residual", residual <= 1e-4, f"{residual!r}"),
                ("n_grid_complete", out["n_grid"] == list(REPORT_GRID), str(out["n_grid"]))]
    if label == "rate-sum":
        values = _key_values(output)
        r0 = float(values["r0"])
        # poisson:0.5 has r0 = 1; power_singular:0.3 has Gamma(1.6) / Gamma(1.3)^2
        exact = 1.0 + math.exp(math.lgamma(1.6) - 2.0 * math.lgamma(1.3))
        gap = float(values["max_entropy_gap"])
        return [("r0_closed_form", abs(r0 - exact) <= 1e-6, f"{r0!r} vs {exact!r}"),
                ("max_entropy_gap_nonnegative", gap >= 0.0, f"{gap!r}")]
    if label == "filter-ps0.3":
        residual = float(_key_values(output)["identity_residual"])
        return [("identity_residual", residual <= 1e-6, f"{residual!r}")]
    raise KeyError(label)


class Workload:
    def __init__(self, commands, check):
        self.commands = commands
        self._check = check

    def check(self, label, rc, output):
        """Checks of one command's output; an unreadable output fails one check."""
        try:
            checks = self._check(label, rc, output)
        except (ValueError, KeyError, TypeError) as exc:
            checks = [("output_readable", False, f"{type(exc).__name__}: {exc}")]
        return [(f"{label}/{name}", passed, detail) for name, passed, detail in checks]


WORKLOADS = {
    "smb-1d": Workload(_smb_1d, _check_smb_1d),
    "smb-2d": Workload(_smb_2d, _check_smb_2d),
    "exact-long-memory": Workload(_exact_long_memory, _check_exact_long_memory),
}


def output_digest(results) -> str:
    """sha256 of every command's output, in label order."""
    digest = hashlib.sha256()
    for label, output in sorted((r["label"], r["output"]) for r in results):
        digest.update(f"{label}\n{output}\n".encode())
    return digest.hexdigest()
