"""Command-line front end.

Commands: rate, report, smb, smb2d, predict, filter.
Exit codes: 0 ok, 1 assertion failure (--assert), 2 numerical failure,
3 config/parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import entropy_analysis, modelspec, prediction, smb
from .errors import EntrospecError, ModelConfigError, NumericalError
from .field2d import SeparableFieldModel
from .gaussian_model import GaussianProcessModel
from .spectral import log_abs_symbol_integral

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


def _int_list(text: str):
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise ModelConfigError(f"bad integer list {text!r}") from exc
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise ModelConfigError("n-grid must be strictly increasing and nonempty")
    if values[0] < 1:
        raise ModelConfigError(f"n-grid values must be >= 1, got {values[0]}")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve_model(args, allow_field=False):
    if getattr(args, "model_file", None):
        model = modelspec.load_model_file(args.model_file)
    elif getattr(args, "model", None):
        model = modelspec.model_from_string(args.model)
    else:
        raise ModelConfigError("provide --model or --model-file")
    if isinstance(model, SeparableFieldModel) and not allow_field:
        raise ModelConfigError("this command needs a 1-D model")
    return model


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt(x: float) -> str:
    return "-inf" if x == -math.inf else f"{x:.7f}"


def _rate_values(model):
    """(Se, Szego integral, r0, max-entropy gap) of a 1-D or separable model.

    The gap 0.5 log(2 pi e r0) - Se = 0.5 (log r0 - Szego integral) is how
    far the rate falls below that of white noise with the same variance;
    for a separable field the Szego integral is the sum of its factors'.
    """
    if isinstance(model, SeparableFieldModel):
        se = model.entropy_rate_2d()
        szego = model.factor_a.szego_integral() + model.factor_b.szego_integral()
    else:
        se = model.entropy_rate()
        szego = model.szego_integral()
    r0 = model.r0
    return se, szego, r0, 0.5 * (math.log(r0) - szego)


def cmd_rate(args) -> int:
    se, szego, r0, gap = _rate_values(_resolve_model(args, allow_field=True))
    _emit(
        args,
        f"Se = {_fmt(se)}\n"
        f"szego_integral = {_fmt(szego)}\n"
        f"r0 = {r0:.7f}\n"
        f"max_entropy_gap = {_fmt(gap)}\n",
    )
    return EXIT_OK


def cmd_report(args) -> int:
    model = _resolve_model(args)
    report = entropy_analysis.EntropyReport.build(model, _int_list(args.n))
    if args.format == "json":
        _emit(args, report.to_json())
    else:
        _emit(args, report.to_csv() + "\n" + report.mi_to_csv())
    return EXIT_OK


def cmd_smb(args) -> int:
    model = _resolve_model(args)
    report = smb.smb_experiment(
        model, _int_list(args.n), args.m, args.seed, workers=args.workers
    )
    _emit(args, report.to_json() if args.format == "json" else report.to_csv())
    if args.assert_pass and not report.all_passed:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_smb2d(args) -> int:
    model = _resolve_model(args, allow_field=True)
    if not isinstance(model, SeparableFieldModel):
        raise ModelConfigError("smb2d needs a separable field model (--model-file)")
    report = smb.smb2d_experiment(
        model, _int_list(args.n), args.m, args.seed, workers=args.workers
    )
    _emit(args, report.to_json() if args.format == "json" else report.to_csv())
    if args.assert_pass and not report.all_passed:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _resolve_model(args)
    diag = prediction.prediction_gap_series(model, args.n_max)
    _emit(args, diag.to_json() if args.format == "json" else diag.to_csv())
    return EXIT_OK


def cmd_filter(args) -> int:
    model = _resolve_model(args)
    symbol = modelspec._floats(args.symbol)
    if not symbol:
        raise ModelConfigError("filter needs a nonempty --symbol")
    filtered = model.filtered_model(symbol)
    base_rate = model.entropy_rate()
    new_rate = filtered.entropy_rate()
    shift = log_abs_symbol_integral(symbol)
    if base_rate == -math.inf:
        residual = "n/a"
    else:
        residual = f"{abs(new_rate - (base_rate + shift)):.3e}"
    _emit(
        args,
        f"Se_base = {_fmt(base_rate)}\n"
        f"Se_filtered = {_fmt(new_rate)}\n"
        f"log_gain_integral = {_fmt(shift)}\n"
        f"identity_residual = {residual}\n",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrospec",
        description="Entropy rates and SMB experiments for stationary Gaussian models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True):
        p.add_argument("--model", help="inline model string, e.g. poisson:0.5")
        p.add_argument("--model-file", help="path to a JSON model description")
        p.add_argument("--out", help="output file (default stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("rate", help="print the entropy rate and Szego integral")
    add_common(p, formats=False)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("report", help="exact identity table")
    add_common(p)
    p.add_argument("--n", default="1,2,4,8,16,32,64", help="comma-separated n grid")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("smb", help="1-D SMB ensemble experiment")
    add_common(p)
    p.add_argument("--n", required=True, help="comma-separated n grid")
    p.add_argument("--m", type=_positive_int, required=True, help="ensemble size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert", dest="assert_pass", action="store_true")
    p.set_defaults(func=cmd_smb)

    p = sub.add_parser("smb2d", help="Z^2 SMB ensemble experiment")
    add_common(p)
    p.add_argument("--n", required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert", dest="assert_pass", action="store_true")
    p.set_defaults(func=cmd_smb2d)

    p = sub.add_parser("predict", help="finite-past prediction diagnostics")
    add_common(p)
    p.add_argument("--n", dest="n_max", type=_positive_int, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("filter", help="linear filter rate identity")
    add_common(p, formats=False)
    p.add_argument("--symbol", required=True, help="comma-separated symbol coefficients")
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ModelConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EntrospecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
