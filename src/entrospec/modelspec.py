"""Model description parsing: compact CLI strings and the JSON schema.

String form: "kind:params", e.g.
    white:1          poisson:0.5        ma:1,0.5
    ar:0.5:0.75      power_singular:0.3,1.0

JSON schema (docs/model_schema.md has worked examples):
    {"kind": "white", "level": 1.0}
    {"kind": "poisson", "r": 0.5}
    {"kind": "ma", "coeffs": [1, 0.5]}
    {"kind": "ar", "coeffs": [0.5], "innovation_variance": 0.75}
    {"kind": "power_singular", "alpha": 0.3, "scale": 1.0}
    {"kind": "fourier_table", "covariances": [...]}
    {"kind": "scaled", "factor": 2.0, "base": {...}}
    {"kind": "sum", "terms": [{...}, {...}]}
    {"kind": "filter", "symbol": [1, 0.5], "base": {...}}
    {"kind": "separable", "factor_a": {...}, "factor_b": {...}}
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
    literals NaN and Infinity, and overflowing numbers such as 1e999)."""
    number = float(value)
    if not math.isfinite(number):
        raise ModelConfigError(f"model parameter {value!r} is not finite")
    return number


def _floats(text: str):
    try:
        return [_finite(p) for p in text.split(",") if p != ""]
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
            return spectral.White(_finite(cfg.get("level", 1.0)))
        if kind == "poisson":
            return spectral.PoissonKernel(_finite(cfg["r"]))
        if kind == "ma":
            return spectral.MovingAverage([_finite(c) for c in cfg["coeffs"]])
        if kind == "ar":
            return spectral.AutoRegressive(
                [_finite(c) for c in cfg["coeffs"]], _finite(cfg["innovation_variance"])
            )
        if kind == "power_singular":
            return spectral.PowerSingular(_finite(cfg["alpha"]), _finite(cfg.get("scale", 1.0)))
        if kind == "fourier_table":
            return spectral.FourierTable(
                spectral.AutocovarianceSequence(
                    [_finite(c) for c in cfg["covariances"]], origin="table"
                )
            )
        if kind == "scaled":
            return spectral.Scaled(density_from_config(cfg["base"]), _finite(cfg["factor"]))
        if kind == "sum":
            terms = [density_from_config(t) for t in cfg["terms"]]
            if len(terms) < 2:
                raise ModelConfigError("sum needs at least two terms")
            acc = terms[0]
            for t in terms[1:]:
                acc = acc + t
            return acc
        if kind == "filter":
            return spectral.FilterProduct(
                [_finite(c) for c in cfg["symbol"]], density_from_config(cfg["base"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelConfigError(f"bad parameters for kind {kind!r}: {exc}") from exc
    raise ModelConfigError(f"unknown model kind {kind!r}")


def model_from_config(cfg: dict):
    """GaussianProcessModel or SeparableFieldModel from a JSON object."""
    if isinstance(cfg, dict) and cfg.get("kind") == "separable":
        try:
            fa = density_from_config(cfg["factor_a"])
            fb = density_from_config(cfg["factor_b"])
        except KeyError as exc:
            raise ModelConfigError(f"separable model missing {exc}") from exc
        return SeparableFieldModel(fa, fb)
    return GaussianProcessModel(density_from_config(cfg))


def load_model_file(path: str):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelConfigError(f"cannot read model file {path}: {exc}") from exc
    return model_from_config(cfg)


def model_from_string(text: str) -> GaussianProcessModel:
    return GaussianProcessModel(density_from_string(text))
