"""Command-line front end.

Commands: rate, report, smb, smb2d, predict, filter.
Exit codes: 0 ok, 1 assertion failure (--assert), 2 numerical failure or
out of memory, 3 config/parse failure.

This is the one module that formats output: reports are plain records,
written here as `name = value` lines, CSV tables or JSON objects.  Floats
are written by repr, so a value read back is the computed float, and
`--out` writes exactly the text that stdout would show.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import entropy_analysis, modelspec, prediction, smb
from .errors import EntrospecError, ModelConfigError, NumericalError, QuadratureNotConverged
from .field2d import SeparableFieldModel
from .gaussian_model import HALF_LOG_2PI_E, GaussianProcessModel
from .spectral import FilterProduct, log_abs_symbol_integral, szego_integral_quadrature

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

# the most float64 elements one numpy array can hold: a larger size is a
# config error here, not a numpy ValueError deep in the run
MAX_SIZE = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _int_list(text: str):
    try:
        values = [int(p) for p in text.split(",")] if text else []
    except ValueError as exc:
        raise ModelConfigError(f"bad integer list {text!r}") from exc
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise ModelConfigError("n-grid must be strictly increasing and nonempty")
    if values[0] < 1:
        raise ModelConfigError(f"n-grid values must be >= 1, got {values[0]}")
    if values[-1] > MAX_SIZE:
        raise ModelConfigError(f"n-grid values must be <= {MAX_SIZE}, got {values[-1]}")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > MAX_SIZE:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_SIZE}, got {value}")
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
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ModelConfigError(f"cannot open output file {args.out}: {exc}") from exc
        try:
            with fh:
                fh.write(text)
        except OSError as exc:
            raise ModelConfigError(f"cannot write output file {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv(header: str, *columns) -> str:
    """A header line, then one line per row of the equal-length columns,
    each cell the repr of its int or float."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def cmd_rate(args) -> int:
    model = _resolve_model(args, allow_field=True)
    # the max-entropy gap 0.5 log(2 pi e r0) - Se: how far the rate falls
    # below that of white noise with the same variance, D(P || white:r0)
    gap = entropy_analysis.relative_entropy_rate(model, model.r0)
    _emit(
        args,
        f"Se = {model.entropy_rate():.7f}\n"
        f"szego_integral = {model.szego_integral():.7f}\n"
        f"r0 = {model.r0:.7f}\n"
        f"max_entropy_gap = {gap:.7f}\n",
    )
    return EXIT_OK


def cmd_report(args) -> int:
    model = _resolve_model(args)
    report = entropy_analysis.EntropyReport.build(model, _int_list(args.n))
    if args.format == "json":
        text = json.dumps({
            "model": report.model_id,
            "se": report.se,
            "r0": report.r0,
            "n_grid": report.n_grid,
            "H_n": report.h_n.tolist(),
            "KL_gauss": report.kl_gauss.tolist(),
            "KL_prod": report.kl_prod.tolist(),
            "markov_defects": report.markov_defects.tolist(),
            "independence_defect": report.independence,
            "pinsker_rate": report.pinsker,
            "dyadic_terms": report.dyadic_terms.tolist(),
            "dyadic_residual": report.dyadic_residual,
        }, indent=2)
    else:
        n, k = np.asarray(report.n_grid), len(report.n_grid)
        mi = entropy_analysis.mutual_information_table(model, report.n_grid)
        text = _csv(
            "n,H_n,H_n_over_n,KL_gauss,KL_prod",
            n, report.h_n, report.h_n / n, report.kl_gauss, report.kl_prod,
        ) + "\n" + _csv("n,p,mutual_information", np.repeat(n, k), np.tile(n, k), mi.ravel())
    _emit(args, text)
    return EXIT_OK


def cmd_smb(args) -> int:
    """`smb` on a 1-D model or `smb2d` on a separable field."""
    field = args.command == "smb2d"
    model = _resolve_model(args, allow_field=field)
    if field and not isinstance(model, SeparableFieldModel):
        raise ModelConfigError("smb2d needs a separable field model (--model-file)")
    experiment = smb.smb2d_experiment if field else smb.smb_experiment
    report = experiment(model, _int_list(args.n), args.m, args.seed)
    if args.format == "json":
        text = json.dumps({
            "model": report.model_id,
            "dims": report.dims,
            "n_grid": report.n_grid,
            "means": report.means.tolist(),
            "sds": report.sds.tolist(),
            "se_exact": report.se_exact,
            "hn_over_n": report.hn_over_n.tolist(),
            "theoretical_sd": report.theoretical_sd.tolist(),
            "ensemble_size": report.ensemble_size,
            "base_seed": report.base_seed,
            "sampler": report.sampler,
            "pass": report.passed.tolist(),
            "all_passed": report.all_passed,
        }, indent=2)
    else:
        text = _csv(
            "n,mean,sd,se_exact,hn_over_n,theoretical_sd,pass",
            report.n_grid, report.means, report.sds, np.full(len(report.n_grid), report.se_exact),
            report.hn_over_n, report.theoretical_sd, report.passed.astype(int),
        )
    _emit(args, text)
    if args.assert_pass and not report.all_passed:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _resolve_model(args)
    diag = prediction.prediction_gap_series(model, args.n_max)
    if args.format == "json":
        text = json.dumps({
            "model": diag.model_id,
            "sigma2_inf": diag.sigma2_inf,
            "S_N": float(diag.gap_partial_sums[-1]),
            "T_N": float(diag.strong_szego_partial_sums[-1]),
            "N": len(diag.sigma2),
        }, indent=2)
    else:
        text = _csv(
            "n,sigma2_n,delta_n,S_N,T_N",
            np.arange(1, len(diag.sigma2) + 1), diag.sigma2, diag.delta,
            diag.gap_partial_sums, diag.strong_szego_partial_sums,
        )
    _emit(args, text)
    return EXIT_OK


def cmd_filter(args) -> int:
    model = _resolve_model(args)
    symbol = modelspec._floats(args.symbol)
    filtered = GaussianProcessModel(FilterProduct(symbol, model.density))
    base_rate = model.entropy_rate()
    new_rate = filtered.entropy_rate()
    shift = log_abs_symbol_integral(symbol)
    # Se_filtered is the closed form Se_base + int log|g|, the law itself, so
    # the law is checked against the quadrature rate of |g|^2 f instead
    try:
        checked_rate = HALF_LOG_2PI_E + 0.5 * szego_integral_quadrature(filtered.density)
        residual = f"{abs(checked_rate - (base_rate + shift)):.3e}"
    except QuadratureNotConverged:  # also a degenerate f, log f = -inf on an arc
        residual = "n/a"
    _emit(
        args,
        f"Se_base = {base_rate:.7f}\n"
        f"Se_filtered = {new_rate:.7f}\n"
        f"log_gain_integral = {shift:.7f}\n"
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
        p.add_argument("--workers", type=int, default=1, help="accepted and ignored")

    p = sub.add_parser("rate", help="print the entropy rate and Szego integral")
    add_common(p, formats=False)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("report", help="exact identity table")
    add_common(p)
    p.add_argument("--n", default="1,2,4,8,16,32,64", help="comma-separated n grid")
    p.set_defaults(func=cmd_report)

    for name, text in (("smb", "1-D SMB ensemble experiment"),
                       ("smb2d", "Z^2 SMB ensemble experiment")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--n", required=True, help="comma-separated n grid")
        p.add_argument("--m", type=_positive_int, required=True, help="ensemble size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--assert", dest="assert_pass", action="store_true")
        p.set_defaults(func=cmd_smb)

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
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
