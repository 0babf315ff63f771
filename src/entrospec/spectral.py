"""Spectral densities on the unit circle.

All integrals are with respect to the *normalized* Lebesgue measure
(total mass 1), so r(0) = int f dlambda is the process variance and the
Szego integral int log f dlambda exponentiates to the infinite-past
one-step prediction error variance.  Entropies downstream are in nats.

Every density gives its covariances r(0..N) in closed form, as a float64
array.  Where the Szego integral or the log-density Fourier coefficients
L(n) of the strong Szego diagnostics have no closed form (sums), one
quadrature rule, `cosine_integrals`, gives int log f(t) cos(nt) dlambda for
n = 0..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import toeplitz
from .errors import ModelConfigError, QuadratureNotConverged, ZeroSymbol

NEG_INF = float("-inf")

_DEFAULT_TOL = 1e-10

# Tanh-sinh steps run from _DE_STEP down to _DE_STEP / 2**_DE_MAX_LEVEL, at
# most about 8e5 points.  Nodes stop at |u| = _DE_U_MAX, about 4e-16 from a
# panel end (an ulp of pi): closer nodes would round onto the end itself, and
# the tails beyond move the integral by about 1e-15 at most, even at a log
# zero.
_DE_STEP = 0.5
_DE_MAX_LEVEL = 15
_DE_U_MAX = 3.15

# Gaussian gridding: a node reaches _NUFFT_SPREAD grid points on either side,
# and nodes are spread _NUFFT_CHUNK at a time to bound the temporaries.
_NUFFT_SPREAD = 16
_NUFFT_CHUNK = 2**14


# ---------------------------------------------------------------------------
# quadrature: one tanh-sinh rule for int g(t) cos(nt) dlambda, n = 0..N


class _CosineSums:
    """Running sums S(n) = sum_j c_j cos(n x_j), n = 0..max_n, over batches
    of nodes: a type-1 NUFFT by Gaussian gridding (Greengard & Lee 2004).
    The grid size is a power of two, R >= 2 times the 2N modes; the kernel
    width tau = pi S / ((2N)^2 R (R - 1/2)) for spread S keeps truncation
    and aliasing below exp(-2 pi S / 3) at that R."""

    def __init__(self, max_n: int):
        modes = 2 * max(max_n, 1)
        self.size = max(2 * _NUFFT_SPREAD, 1 << (2 * modes - 1).bit_length())
        ratio = self.size / modes
        self.tau = math.pi * _NUFFT_SPREAD / (modes * modes * ratio * (ratio - 0.5))
        self.step = 2.0 * math.pi / self.size
        self.grid = np.zeros(self.size)
        n = np.arange(max_n + 1)
        self.deconvolve = math.sqrt(math.pi / self.tau) / self.size * np.exp(self.tau * n * n)

    def add(self, x: np.ndarray, c: np.ndarray) -> None:
        offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
        # one index array and one kernel buffer serve every chunk, in place
        rows = min(_NUFFT_CHUNK, len(x))
        index = np.empty((rows, len(offsets)), dtype=np.int64)
        kernel = np.empty((rows, len(offsets)))
        for j in range(0, len(x), _NUFFT_CHUNK):
            xj = x[j : j + _NUFFT_CHUNK, None]
            m, kern = index[: len(xj)], kernel[: len(xj)]
            np.add(np.floor(xj / self.step).astype(np.int64), offsets, out=m)
            np.multiply(m, self.step, out=kern)
            np.subtract(xj, kern, out=kern)
            np.square(kern, out=kern)
            kern /= -4.0 * self.tau
            np.exp(kern, out=kern)
            kern *= c[j : j + _NUFFT_CHUNK, None]
            m %= self.size
            self.grid += np.bincount(m.ravel(), kern.ravel(), self.size)

    def sums(self) -> np.ndarray:
        return np.fft.rfft(self.grid)[: len(self.deconvolve)].real * self.deconvolve


class _PlainSum:
    """S(0) = sum_j c_j, the N = 0 case of `_CosineSums` without its grid."""

    def __init__(self):
        self.total = 0.0

    def add(self, x: np.ndarray, c: np.ndarray) -> None:
        self.total += float(np.sum(c))

    def sums(self) -> np.ndarray:
        return np.array([self.total])


def cosine_integrals(g, max_n: int, what: str, tol: float = _DEFAULT_TOL, jumps=()):
    """c[n] = int g(t) cos(nt) dlambda, n = 0..max_n, by tanh-sinh
    quadrature (Takahasi & Mori 1974) on the panels of [0, pi] between the
    jump points of g in (0, pi), each folded with its mirror in [-pi, 0].
    The step halves until no value changes by tol; each level evaluates g
    at its new nodes only.

    The zoo's singularities (the power-singular cusp or zero at 0, a zero
    at +-pi, a gap's jumps) sit at panel ends, where the nodes cluster
    double-exponentially, so the rule converges exponentially where a
    uniform grid converges like h^(1 + 2 alpha).  With s = (pi/2) sinh u,
    the nodes at +-u of [0, pi] lie delta = pi / (1 + e^(2s)) from its ends,
    weight (pi^2/4) cosh(u) / cosh(s)^2; a panel of length L scales both by
    L / pi.  A node x and its mirror -x share cos(nx) and are summed folded.
    A non-finite g value, or the level cap, raises QuadratureNotConverged.
    """
    ends = [0.0, *sorted(set(jumps)), math.pi]
    panels = [((a, b), (b - a) / math.pi) for a, b in zip(ends, ends[1:])]
    sums = _CosineSums(max_n) if max_n > 0 else _PlainSum()
    points = 0
    prev = None
    change = math.inf
    for level in range(_DE_MAX_LEVEL + 1):
        h = _DE_STEP / 2**level
        # a refinement adds only the odd multiples of the halved step
        first, stride = (0, 1) if level == 0 else (1, 2)
        u = h * np.arange(first, int(_DE_U_MAX / h) + 1, stride)
        s = 0.5 * math.pi * np.sinh(u)
        delta = math.pi / (1.0 + np.exp(2.0 * s))
        weight = np.cosh(u) / np.cosh(s) ** 2
        if level == 0:
            weight[0] *= 0.5  # u = 0 is one node per panel, listed twice below
        x = np.concatenate([(a + k * delta, b - k * delta) for (a, b), k in panels], axis=None)
        w = np.concatenate([np.tile(k * weight, 2) for _, k in panels])
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(g(np.concatenate((x, -x))), dtype=np.float64)
        points += vals.size
        folded = w * (vals[: x.size] + vals[x.size :])
        if not np.all(np.isfinite(folded)):
            raise QuadratureNotConverged(what, math.inf, tol, points)
        sums.add(x, folded)
        cur = sums.sums() * (h * math.pi / 8.0)  # (pi^2/4) h, over the measure's 2 pi
        if prev is not None:
            change = float(np.max(np.abs(cur - prev)))
            if change < tol:
                return cur
        prev = cur
    raise QuadratureNotConverged(what, change, tol, points)


def _poly_roots(coeffs: np.ndarray):
    """Roots of sum_k c_k z^k, highest-degree trailing zeros stripped."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=np.float64), "b")
    if len(c) == 0:
        raise ZeroSymbol("symbol has no nonzero coefficients")
    return np.roots(c[::-1]), c[-1], len(c) - 1


def log_abs_symbol_integral(coeffs) -> float:
    """int log|sum_k c_k e^{ikt}| dlambda via Jensen's formula."""
    roots, lead, deg = _poly_roots(coeffs)
    if deg == 0:
        return math.log(abs(lead))
    return math.log(abs(lead)) + float(
        np.sum(np.log(np.maximum(np.abs(roots), 1.0)))
    )


def log_abs_symbol_fourier_coeffs(coeffs, max_n: int) -> np.ndarray:
    """Fourier coefficients (of e^{int}, n>=1) of log|sum c_k e^{ikt}|^2.

    Root on/inside the circle contributes -conj(z)^n/n, root outside
    -z^{-n}/n; conjugate pairing makes the sum real.
    """
    roots, _, deg = _poly_roots(coeffs)
    out = np.zeros(max_n, dtype=np.complex128)
    n = np.arange(1, max_n + 1)
    for z in roots:
        if abs(z) <= 1.0:
            out -= np.conj(z) ** n / n
        else:
            out -= (1.0 / z) ** n / n
    return np.real(out)


def _trig_power(coeffs, t):
    """|sum_k c_k e^{ikt}|^2, summed term by term."""
    t = np.asarray(t, dtype=np.float64)
    acc = np.zeros_like(t, dtype=np.complex128)
    for k, c in enumerate(coeffs):
        acc += c * np.exp(1j * k * t)
    return np.abs(acc) ** 2


# ---------------------------------------------------------------------------
# density variants


class SpectralDensity:
    """Base class; subclasses are immutable value objects."""

    def eval(self, t):
        raise NotImplementedError

    def autocovariance(self, max_lag: int) -> np.ndarray:
        """r(0..max_lag) as a float64 array; r(n) does not depend on max_lag."""
        raise NotImplementedError

    def szego_integral(self) -> float:
        return szego_integral_quadrature(self)

    def log_fourier_coeffs(self, max_n: int) -> np.ndarray:
        coeffs = cosine_integrals(
            self._log_eval, max_n, "log-density Fourier coefficients", jumps=self.jump_points()
        )
        return coeffs[1:]

    def _log_eval(self, t):
        return np.log(self.eval(t))

    def jump_points(self) -> tuple:
        """The t in (0, pi) where the density jumps, quadrature panel ends."""
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def scaled(self, c: float) -> "SpectralDensity":
        return Scaled(self, c)

    def __add__(self, other: "SpectralDensity") -> "SpectralDensity":
        return SumDensity(self, other)

    def __repr__(self):
        return self.describe()


@dataclass(frozen=True, repr=False)
class White(SpectralDensity):
    level: float = 1.0

    def __post_init__(self):
        if self.level <= 0:
            raise ModelConfigError("white level must be positive")

    def eval(self, t):
        return np.full_like(np.asarray(t, dtype=np.float64), self.level)

    def autocovariance(self, max_lag):
        values = np.zeros(max_lag + 1)
        values[0] = self.level
        return values

    def szego_integral(self):
        return math.log(self.level)

    def log_fourier_coeffs(self, max_n):
        return np.zeros(max_n)

    def describe(self):
        return f"white:{self.level:g}"

    def to_config(self):
        return {"kind": "white", "level": self.level}


@dataclass(frozen=True, repr=False)
class PoissonKernel(SpectralDensity):
    """P_r(t) = (1-r^2)/|1-r e^{it}|^2, the Gaussian-Markov (AR(1)) density."""

    r: float

    def __post_init__(self):
        if not abs(self.r) < 1:
            raise ModelConfigError("Poisson kernel needs |r| < 1")

    def eval(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.r
        return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t) + r * r)

    def autocovariance(self, max_lag):
        return self.r ** np.arange(max_lag + 1)

    def szego_integral(self):
        return math.log1p(-self.r * self.r)

    def log_fourier_coeffs(self, max_n):
        n = np.arange(1, max_n + 1)
        return self.r**n / n

    def describe(self):
        return f"poisson:{self.r:g}"

    def to_config(self):
        return {"kind": "poisson", "r": self.r}


@dataclass(frozen=True, repr=False)
class AutoRegressive(SpectralDensity):
    """f(t) = s^2 / |1 - sum_k c_k e^{ikt}|^2 with a stable coefficient set."""

    coeffs: tuple
    innovation_variance: float

    def __init__(self, coeffs, innovation_variance):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        object.__setattr__(self, "innovation_variance", float(innovation_variance))
        if self.innovation_variance <= 0:
            raise ModelConfigError("innovation variance must be positive")
        roots, _, deg = _poly_roots(self._char_poly())
        if deg > 0 and np.min(np.abs(roots)) <= 1.0 + 1e-9:
            raise ModelConfigError("AR coefficients are not stable (pole on/outside the disc)")

    def _char_poly(self):
        return np.concatenate(([1.0], -np.asarray(self.coeffs)))

    def _head(self) -> np.ndarray:
        """r(0..p), which the recursion extends."""
        c = self.coeffs
        p = len(c)
        # Yule-Walker: r(j) = sum_k c_k r(|j-k|) + s^2 delta_{j0}, j = 0..p
        A = np.eye(p + 1)
        for j in range(p + 1):
            for kk in range(1, p + 1):
                A[j, abs(j - kk)] -= c[kk - 1]
        rhs = np.zeros(p + 1)
        rhs[0] = self.innovation_variance
        return np.linalg.solve(A, rhs)

    def eval(self, t):
        return self.innovation_variance / _trig_power(self._char_poly(), t)

    def autocovariance(self, max_lag):
        # the head, then r(n) = sum_k c_k r(n - k) past p
        c = np.asarray(self.coeffs)
        p = len(c)
        head = self._head()
        values = np.zeros(max_lag + 1)
        values[: min(p, max_lag) + 1] = head[: min(p, max_lag) + 1]
        for n in range(p + 1, max_lag + 1):
            values[n] = float(np.dot(c, values[n - p : n][::-1]))
        return values

    def szego_integral(self):
        # int log|1 - sum c_k e^{ikt}|^2 dlambda = 0 for a stable polynomial
        return math.log(self.innovation_variance)

    def log_fourier_coeffs(self, max_n):
        # log(1 - sum_k c_k z^k) = -sum_n L(n) z^n, whose derivative gives
        # n L(n) = n c_n + sum_{k<n} k L(k) c_{n-k}, with c_n = 0 past p
        p = len(self.coeffs)
        c = np.zeros(max_n + 1)
        c[1 : min(p, max_n) + 1] = self.coeffs[:max_n]
        kl = np.zeros(max_n + 1)  # k L(k)
        for n in range(1, max_n + 1):
            lo = max(1, n - p)
            kl[n] = n * c[n] + np.dot(kl[lo:n], c[n - lo : 0 : -1])
        return kl[1:] / np.arange(1, max_n + 1)

    def describe(self):
        cs = ",".join(f"{c:g}" for c in self.coeffs)
        return f"ar:{cs}:{self.innovation_variance:g}"

    def to_config(self):
        return {
            "kind": "ar",
            "coeffs": list(self.coeffs),
            "innovation_variance": self.innovation_variance,
        }


@dataclass(frozen=True, repr=False)
class PowerSingular(SpectralDensity):
    """f(t) = scale * |1 - e^{it}|^{2 alpha}: Szego-integrable but
    strong-Szego divergent (the log-coefficients are -alpha/n).

    This is the density of fractional differencing ARFIMA(0, -alpha, 0)
    (Granger & Joyeux 1980; Hosking 1981), whose covariances are closed form.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ModelConfigError("power-singular exponent must be in (0, 1/2)")
        if self.scale <= 0:
            raise ModelConfigError("scale must be positive")

    def eval(self, t):
        t = np.asarray(t, dtype=np.float64)
        # 4 sin^2(t/2) == 2 - 2 cos t, without its cancellation to 0 for |t| < 1e-8
        return self.scale * (4.0 * np.sin(0.5 * t) ** 2) ** self.alpha

    def autocovariance(self, max_lag):
        # r(0) = scale Gamma(1+2a)/Gamma(1+a)^2, r(n)/r(n-1) = (n-1-a)/(n+a)
        a = self.alpha
        r0 = self.scale * math.gamma(1.0 + 2.0 * a) / math.gamma(1.0 + a) ** 2
        k = np.arange(1.0, max_lag + 1)
        steps = np.concatenate(([r0], (k - 1.0 - a) / (k + a)))
        return np.cumprod(steps)

    def szego_integral(self):
        # int log|1 - e^{it}| dlambda = 0, so only the scale survives
        return math.log(self.scale)

    def log_fourier_coeffs(self, max_n):
        return -self.alpha / np.arange(1, max_n + 1)

    def describe(self):
        return f"power_singular:{self.alpha:g},{self.scale:g}"

    def to_config(self):
        return {"kind": "power_singular", "alpha": self.alpha, "scale": self.scale}


@dataclass(frozen=True, repr=False)
class FourierTable(AutoRegressive):
    """The density of finitely many covariances r(0..q): their maximum-entropy
    extension s^2 / |1 - sum_j phi_j e^{ijt}|^2, for the order-q Levinson
    predictor phi and its innovation variance s^2.  Among all densities with
    these covariances it has the largest Szego integral, log s^2 (Burg 1967;
    Choi & Cover 1984).  It is the AR(q) model (phi, s^2), minimum-phase
    since every Levinson reflection has |k| < 1, whose lags through q are
    the table itself."""

    table: tuple

    def __init__(self, table):
        table = tuple(float(c) for c in table)
        if not table:
            raise ModelConfigError("fourier_table needs at least r(0)")
        fact = toeplitz.levinson(table, len(table))
        object.__setattr__(self, "coeffs", tuple(fact.predictor.tolist()))
        object.__setattr__(self, "innovation_variance", float(fact.sigma2[-1]))
        object.__setattr__(self, "table", table)

    def _head(self):
        return np.array(self.table)

    def describe(self):
        return f"fourier_table[{len(self.table) - 1}]"

    def to_config(self):
        return {"kind": "fourier_table", "covariances": list(self.table)}


@dataclass(frozen=True, repr=False)
class SpectralGap(SpectralDensity):
    """level on |t| > fraction * pi and 0 on the arc |t| <= fraction * pi:
    log f = -inf on a set of positive measure, so the Szego integral is
    -inf and the process is deterministic from its past."""

    fraction: float
    level: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ModelConfigError("gap fraction must be in (0, 1)")
        if self.level <= 0:
            raise ModelConfigError("gap level must be positive")

    def eval(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(np.abs(t) > self.fraction * math.pi, self.level, 0.0)

    def autocovariance(self, max_lag):
        # r(0) = level (1 - a), r(n) = -level sin(n pi a) / (n pi)
        n = np.arange(1, max_lag + 1)
        tail = -self.level * np.sin(n * math.pi * self.fraction) / (n * math.pi)
        return np.concatenate(([self.level * (1.0 - self.fraction)], tail))

    def szego_integral(self):
        return NEG_INF

    def jump_points(self):
        return (self.fraction * math.pi,)

    def describe(self):
        return f"gap:{self.fraction:g},{self.level:g}"

    def to_config(self):
        return {"kind": "gap", "fraction": self.fraction, "level": self.level}


@dataclass(frozen=True, repr=False)
class Scaled(SpectralDensity):
    base: SpectralDensity
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ModelConfigError("scale factor must be positive")

    def eval(self, t):
        return self.factor * self.base.eval(t)

    def autocovariance(self, max_lag):
        return self.factor * self.base.autocovariance(max_lag)

    def szego_integral(self):
        inner = self.base.szego_integral()
        return inner if inner == NEG_INF else math.log(self.factor) + inner

    def log_fourier_coeffs(self, max_n):
        return self.base.log_fourier_coeffs(max_n)

    def jump_points(self):
        return self.base.jump_points()

    def describe(self):
        return f"scaled({self.factor:g},{self.base.describe()})"

    def to_config(self):
        return {"kind": "scaled", "factor": self.factor, "base": self.base.to_config()}


@dataclass(frozen=True, repr=False)
class SumDensity(SpectralDensity):
    """Density f1 + f2: spectral density of an independent Gaussian sum."""

    left: SpectralDensity
    right: SpectralDensity

    def eval(self, t):
        return self.left.eval(t) + self.right.eval(t)

    def autocovariance(self, max_lag):
        return self.left.autocovariance(max_lag) + self.right.autocovariance(max_lag)

    def jump_points(self):
        return self.left.jump_points() + self.right.jump_points()

    def describe(self):
        return f"sum({self.left.describe()},{self.right.describe()})"

    def to_config(self):
        return {"kind": "sum", "terms": [self.left.to_config(), self.right.to_config()]}


@dataclass(frozen=True, repr=False)
class FilterProduct(SpectralDensity):
    """|g|^2 * f for a trigonometric symbol g(t) = sum_k g_k e^{ikt}."""

    symbol: tuple
    base: SpectralDensity

    def __init__(self, symbol, base):
        sym = tuple(float(c) for c in symbol)
        if not any(c != 0.0 for c in sym):
            raise ZeroSymbol("filter symbol is identically zero")
        object.__setattr__(self, "symbol", sym)
        object.__setattr__(self, "base", base)

    def eval(self, t):
        return _trig_power(self.symbol, t) * self.base.eval(t)

    def autocovariance(self, max_lag):
        # r_Y(n) = sum_{|d| <= q} c_d r(n + d), c the symbol's autocorrelation,
        # one vector pass per d, so that every lag is summed in the same order
        # whatever max_lag is; ext[q + k] = r(|k|) for k >= -q
        g = np.asarray(self.symbol)
        q = len(g) - 1
        inner = self.base.autocovariance(max_lag + q)
        ext = np.concatenate((inner[q:0:-1], inner))
        values = np.zeros(max_lag + 1)
        for j, c in enumerate(np.correlate(g, g, "full")):
            values += c * ext[j : j + max_lag + 1]
        return values

    def szego_integral(self):
        inner = self.base.szego_integral()
        if inner == NEG_INF:
            return NEG_INF
        return inner + 2.0 * log_abs_symbol_integral(self.symbol)

    def log_fourier_coeffs(self, max_n):
        return self.base.log_fourier_coeffs(max_n) + log_abs_symbol_fourier_coeffs(
            self.symbol, max_n
        )

    def jump_points(self):
        return self.base.jump_points()

    def describe(self):
        sym = ",".join(f"{c:g}" for c in self.symbol)
        return f"filter([{sym}],{self.base.describe()})"

    def to_config(self):
        return {"kind": "filter", "symbol": list(self.symbol), "base": self.base.to_config()}


class MovingAverage(FilterProduct):
    """f(t) = |sum_k a_k e^{ikt}|^2: white noise of level 1 through the filter a."""

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not any(c != 0.0 for c in coeffs):
            raise ModelConfigError("MA coefficients are all zero")
        super().__init__(coeffs, White(1.0))

    @property
    def coeffs(self) -> tuple:
        return self.symbol

    def describe(self):
        return "ma:" + ",".join(f"{c:g}" for c in self.coeffs)

    def to_config(self):
        return {"kind": "ma", "coeffs": list(self.coeffs)}


# ---------------------------------------------------------------------------
# the quadrature route of the Szego integral, a cross-check of the closed forms


def szego_integral_quadrature(f: SpectralDensity, tol: float = _DEFAULT_TOL) -> float:
    """Closed-form-free route, kept separate as an independent cross-check."""
    value = cosine_integrals(f._log_eval, 0, "szego integral", tol, f.jump_points())
    return float(value[0])
