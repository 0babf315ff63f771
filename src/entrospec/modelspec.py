"""Model description parsing: compact CLI strings ("kind:params", e.g.
poisson:0.5) and JSON model files.  One table, `_KINDS`, gives every kind's
constructor and fields, and one builder reads any model object through it;
an inline string is first turned into the object a file would hold, so
poisson:0.5 is read as {"kind": "poisson", "r": 0.5}.
docs/model_schema.md lists both forms with worked examples, and the tests
parse every one of them.
"""

from __future__ import annotations

import json
import math

from . import field2d, spectral
from .errors import ModelConfigError
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


def _number(value, name: str) -> float:
    """value as a finite float; ModelConfigError naming the field for a
    boolean, a string or any other value that is not a JSON number."""
    # type(True) is bool, not int
    if type(value) not in (int, float):
        raise ModelConfigError(f"field {name!r} must be a number, got {value!r}")
    return _finite(value)


def _numbers(value, name: str) -> list:
    """value, a JSON array of numbers, as finite floats; ModelConfigError
    naming the field for anything else, a string included."""
    if type(value) is not list or any(type(v) not in (int, float) for v in value):
        raise ModelConfigError(f"field {name!r} must be an array of numbers, got {value!r}")
    return [_finite(v) for v in value]


def _density(value, name: str) -> spectral.SpectralDensity:
    """The density of a nested model object, or ModelConfigError naming the field."""
    density = _build(value) if type(value) is dict else None
    if not isinstance(density, spectral.SpectralDensity):
        raise ModelConfigError(f"field {name!r} must be a density model object, got {value!r}")
    return density


def _densities(value, name: str) -> tuple:
    """The densities of a JSON array of two or more model objects."""
    if type(value) is not list or len(value) < 2:
        raise ModelConfigError(f"field {name!r} must list 2+ models, got {value!r}")
    return tuple(_density(v, name) for v in value)


# kind -> (constructor, {field: (reader, default)}), fields in the order of the
# constructor's arguments and of the inline parameters; None: no default
_KINDS = {
    "white": (spectral.White, {"level": (_number, 1.0)}),
    "poisson": (spectral.PoissonKernel, {"r": (_number, None)}),
    "ma": (spectral.MovingAverage, {"coeffs": (_numbers, None)}),
    "ar": (spectral.AutoRegressive,
           {"coeffs": (_numbers, None), "innovation_variance": (_number, None)}),
    "power_singular": (spectral.PowerSingular,
                       {"alpha": (_number, None), "scale": (_number, 1.0)}),
    "fourier_table": (spectral.FourierTable, {"covariances": (_numbers, None)}),
    "gap": (spectral.SpectralGap, {"fraction": (_number, None), "level": (_number, 1.0)}),
    "scaled": (spectral.Scaled, {"base": (_density, None), "factor": (_number, None)}),
    "sum": (spectral.SumDensity, {"terms": (_densities, None)}),
    "filter": (spectral.FilterProduct, {"symbol": (_numbers, None), "base": (_density, None)}),
    "separable": (field2d.SeparableFieldModel,
                  {"factor_a": (_density, None), "factor_b": (_density, None)}),
}


def _build(cfg):
    """The density or separable field that a model object describes."""
    if type(cfg) is not dict or "kind" not in cfg:
        raise ModelConfigError("model config must be an object with a 'kind' field")
    kind = cfg["kind"]
    if type(kind) is not str or kind not in _KINDS:  # a list cannot key a dict
        raise ModelConfigError(f"unknown model kind {kind!r}")
    make, fields = _KINDS[kind]
    stray = [key for key in cfg if key != "kind" and key not in fields]
    if stray:
        raise ModelConfigError(f"unknown field {stray[0]!r} for kind {kind!r}")
    # a plain loop: a comprehension would add a frame per nesting level
    args = []
    for name, (read, default) in fields.items():
        if name not in cfg and default is None:
            raise ModelConfigError(f"{kind} model missing {name!r}")
        args.append(read(cfg.get(name, default), name))
    return make(*args)


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


# inline kinds whose parameters are their fields in order; ma and ar split their own
_USAGE = {"white": "white:level", "poisson": "poisson:r",
          "power_singular": "power_singular:alpha[,scale]"}


def density_from_string(text: str) -> spectral.SpectralDensity:
    """The density of "kind:params", read as the model object a file would hold."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "ma":
        cfg = {"coeffs": _floats(rest)}
    elif kind == "ar":
        coeff_text, _, var_text = rest.rpartition(":")
        if not coeff_text:
            raise ModelConfigError("ar needs 'ar:c1,...,cp:s2'")
        (variance,) = _params(kind, var_text, 1, 1, "ar:c1,...,cp:s2")
        cfg = {"coeffs": _floats(coeff_text), "innovation_variance": variance}
    elif kind in _USAGE:
        fields = _KINDS[kind][1]
        fewest = sum(default is None for _, default in fields.values())
        cfg = dict(zip(fields, _params(kind, rest, fewest, len(fields), _USAGE[kind])))
    elif kind in _KINDS:
        raise ModelConfigError(f"model kind {kind!r} has no inline form; describe it in a "
                               "JSON file and pass --model-file")
    else:
        raise ModelConfigError(f"unknown model kind {kind!r}")
    return _build({"kind": kind, **cfg})


def model_from_config(cfg: dict):
    """GaussianProcessModel or SeparableFieldModel from a JSON object."""
    model = _build(cfg)
    return GaussianProcessModel(model) if isinstance(model, spectral.SpectralDensity) else model


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
