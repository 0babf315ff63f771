"""Model description parsing: compact CLI strings ("kind:params", e.g.
poisson:0.5) and JSON model files.  docs/model_schema.md lists both forms
with worked examples, and the tests parse every one of them.
"""

from __future__ import annotations

import json
import math

from . import spectral
from .errors import ModelConfigError
from .field2d import SeparableFieldModel
from .gaussian_model import GaussianProcessModel


def _finite(value) -> float:
    """float(value), or ModelConfigError for nan and +-inf (also the JSON
    literals NaN and Infinity, and overflowing numbers such as 1e999 or an
    integer literal past the float range)."""
    try:
        number = float(value)
    except OverflowError as exc:
        raise ModelConfigError("model parameter is not finite: too large for a float") from exc
    if not math.isfinite(number):
        raise ModelConfigError(f"model parameter {value!r} is not finite")
    return number


def _number(cfg: dict, name: str, default=None) -> float:
    """cfg[name] (or default, if given, where it is absent) as a finite float;
    ModelConfigError naming the field for a boolean, a string or any other
    value that is not a JSON number."""
    value = cfg[name] if default is None else cfg.get(name, default)
    # type(True) is bool, not int
    if type(value) not in (int, float):
        raise ModelConfigError(f"field {name!r} must be a number, got {value!r}")
    return _finite(value)


def _numbers(cfg: dict, name: str) -> list:
    """cfg[name], a JSON array of numbers, as finite floats; ModelConfigError
    naming the field for anything else, a string included."""
    values = cfg[name]
    if type(values) is not list or any(type(v) not in (int, float) for v in values):
        raise ModelConfigError(f"field {name!r} must be an array of numbers, got {values!r}")
    return [_finite(v) for v in values]


def _density(value, name: str) -> spectral.SpectralDensity:
    """density_from_config(value), or ModelConfigError naming the field."""
    if type(value) is not dict:
        raise ModelConfigError(f"field {name!r} must be a model object, got {value!r}")
    return density_from_config(value)


def _floats(text: str):
    """The comma-separated numbers in text; [] for "", and ModelConfigError
    for an empty field such as the middle of "1,,2"."""
    if text == "":
        return []
    try:
        return [_finite(p) for p in text.split(",")]
    except ValueError as exc:
        raise ModelConfigError(f"bad numeric list {text!r}") from exc


def _params(kind: str, text: str, fewest: int, most: int, usage: str) -> list:
    """The numbers in text, or ModelConfigError naming the kind and its
    usage unless there are fewest..most of them."""
    values = _floats(text)
    if not fewest <= len(values) <= most:
        raise ModelConfigError(f"{kind} needs {usage!r}, got {len(values)} values in {text!r}")
    return values


def density_from_string(text: str) -> spectral.SpectralDensity:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "white":
        (level,) = _params(kind, rest, 0, 1, "white:level") or [1.0]
        return spectral.White(level)
    if kind == "poisson":
        (r,) = _params(kind, rest, 1, 1, "poisson:r")
        return spectral.PoissonKernel(r)
    if kind == "ma":
        return spectral.MovingAverage(_floats(rest))
    if kind == "ar":
        coeff_text, _, var_text = rest.rpartition(":")
        if not coeff_text:
            raise ModelConfigError("ar needs 'ar:c1,...,cp:s2'")
        (variance,) = _params(kind, var_text, 1, 1, "ar:c1,...,cp:s2")
        return spectral.AutoRegressive(_floats(coeff_text), variance)
    if kind == "power_singular":
        vals = _params(kind, rest, 1, 2, "power_singular:alpha[,scale]")
        if len(vals) == 1:
            vals.append(1.0)
        return spectral.PowerSingular(vals[0], vals[1])
    raise ModelConfigError(f"unknown model kind {kind!r}")


def density_from_config(cfg: dict) -> spectral.SpectralDensity:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ModelConfigError("model config must be an object with a 'kind' field")
    kind = cfg["kind"]
    try:
        if kind == "white":
            return spectral.White(_number(cfg, "level", 1.0))
        if kind == "poisson":
            return spectral.PoissonKernel(_number(cfg, "r"))
        if kind == "ma":
            return spectral.MovingAverage(_numbers(cfg, "coeffs"))
        if kind == "ar":
            coeffs = _numbers(cfg, "coeffs")
            return spectral.AutoRegressive(coeffs, _number(cfg, "innovation_variance"))
        if kind == "power_singular":
            return spectral.PowerSingular(_number(cfg, "alpha"), _number(cfg, "scale", 1.0))
        if kind == "fourier_table":
            return spectral.FourierTable(_numbers(cfg, "covariances"))
        if kind == "gap":
            return spectral.SpectralGap(_number(cfg, "fraction"), _number(cfg, "level", 1.0))
        if kind == "scaled":
            return spectral.Scaled(_density(cfg["base"], "base"), _number(cfg, "factor"))
        if kind == "sum":
            configs = cfg["terms"]
            if type(configs) is not list or len(configs) < 2:
                raise ModelConfigError(f"field 'terms' must list 2+ models, got {configs!r}")
            return spectral.SumDensity(tuple(_density(t, "terms") for t in configs))
        if kind == "filter":
            symbol = _numbers(cfg, "symbol")
            return spectral.FilterProduct(symbol, _density(cfg["base"], "base"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelConfigError(f"bad parameters for kind {kind!r}: {exc}") from exc
    raise ModelConfigError(f"unknown model kind {kind!r}")


def model_from_config(cfg: dict):
    """GaussianProcessModel or SeparableFieldModel from a JSON object."""
    if isinstance(cfg, dict) and cfg.get("kind") == "separable":
        try:
            fa = _density(cfg["factor_a"], "factor_a")
            fb = _density(cfg["factor_b"], "factor_b")
        except KeyError as exc:
            raise ModelConfigError(f"separable model missing {exc}") from exc
        return SeparableFieldModel(fa, fb)
    return GaussianProcessModel(density_from_config(cfg))


def load_model_file(path: str):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ModelConfigError(f"cannot read model file {path}: {exc}") from exc
    try:
        return model_from_config(cfg)
    except RecursionError as exc:
        raise ModelConfigError(f"model file {path} nests too deeply") from exc


def model_from_string(text: str) -> GaussianProcessModel:
    return GaussianProcessModel(density_from_string(text))
