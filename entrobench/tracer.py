"""Outside-in span tracer for entrospec.

`install` wraps the public module functions and class methods that the
layers call through, so a traced run needs no edit to the package.  Each
wrapped call records a span (name, start, end, parent, work count) on a
thread-local parent stack; spans stay in memory and the child process dumps
them once, at exit.  `layer_metrics` turns spans into self times and counts,
and `import_metrics` splits `python -X importtime` output by package.
"""

from __future__ import annotations

import functools
import threading
import time

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "modelspec.parse_s": "modelspec.parse",
    "cli.self_s": "cli",
    "spectral.autocovariance_s": "spectral.autocovariance",
    "spectral.szego_s": "spectral.szego",
    "spectral.log_fourier_s": "spectral.log_fourier",
    "toeplitz.levinson_s": "toeplitz.levinson",
    "sampling.sample_paths_s": "sampling.sample_paths",
    "sampling.ensemble_residuals_s": "sampling.ensemble_residuals",
    "sampling.sample_field_s": "sampling.sample_field",
    "sampling.normals_s": "sampling.normals",
    "field2d.cholesky_s": "field2d.cholesky",
    "field2d.quadratic_form_s": "field2d.quadratic_form",
    "smb.experiment_self_s": "smb.experiment",
    "prediction.gap_series_self_s": "prediction.gap_series",
    "entropy_analysis.report_self_s": "entropy_analysis.report",
}
# per-layer metric -> span whose number of calls it reports
CALLS = {
    "toeplitz.levinson_calls": "toeplitz.levinson",
    "field2d.quadratic_form_calls": "field2d.quadratic_form",
}
# per-layer metric -> span or counter whose summed work count it reports
WORK = {
    "toeplitz.levinson_orders": "toeplitz.levinson",
    "sampling.normals_count": "sampling.normals",
    "spectral.eval_points": "spectral.eval",
}
# top-level package -> per-layer import metric
IMPORTS = {
    "entrospec": "import.entrospec_s",
    "numpy": "import.numpy_s",
    "scipy": "import.scipy_linalg_s",
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, work]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, work=None):
        """Wrap fn so that each call records a span; work(*args) gives its count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      work(*args, **kwargs) if work else 0]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def counter(self, name, fn, work):
        """Wrap fn so that outermost calls add work(*args) to counts[name].

        Nested calls under the same counter (a sum density evaluating its
        terms) are not counted again.
        """

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            active = getattr(self._local, "active", None)
            if active is None:
                active = self._local.active = set()
            if name in active:
                return fn(*args, **kwargs)
            self.counts[name] = self.counts.get(name, 0) + work(*args, **kwargs)
            active.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.discard(name)

        return counted


def _wrap_attr(owner, attr, wrapper):
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper(raw.__func__)))
    else:
        setattr(owner, attr, wrapper(raw))


def _points(_density, t, *_args, **_kwargs):
    return int(getattr(t, "size", 1))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported entrospec in place."""
    from entrospec import (entropy_analysis, field2d, modelspec, prediction, sampling, smb,
                           spectral, toeplitz)

    # model_from_config lives inside load_model_file, so it is not wrapped
    for attr in ("model_from_string", "load_model_file"):
        _wrap_attr(modelspec, attr, lambda fn: tracer.span("modelspec.parse", fn))

    densities = [
        obj for obj in vars(spectral).values()
        if isinstance(obj, type) and issubclass(obj, spectral.SpectralDensity)
    ]
    for cls in densities:
        for attr, name in (
            ("autocovariance", "spectral.autocovariance"),
            ("szego_integral", "spectral.szego"),
            ("log_fourier_coeffs", "spectral.log_fourier"),
        ):
            if attr in cls.__dict__:
                _wrap_attr(cls, attr, lambda fn, name=name: tracer.span(name, fn))
        if "eval" in cls.__dict__:
            _wrap_attr(cls, "eval", lambda fn: tracer.counter("spectral.eval", fn, _points))

    # gaussian_model calls toeplitz.levinson(r, n) through the module
    _wrap_attr(toeplitz, "levinson",
               lambda fn: tracer.span("toeplitz.levinson", fn, lambda r, n: int(n)))
    _wrap_attr(sampling, "standard_normals",
               lambda fn: tracer.span("sampling.normals", fn, lambda stream, count: int(count)))
    for attr in ("sample_paths", "ensemble_residuals", "sample_field"):
        _wrap_attr(sampling, attr, lambda fn, attr=attr: tracer.span(f"sampling.{attr}", fn))

    field = field2d.SeparableFieldModel
    for attr in ("cholesky_a", "cholesky_b"):
        _wrap_attr(field, attr, lambda fn: tracer.span("field2d.cholesky", fn))
    _wrap_attr(field, "kronecker_quadratic_form",
               lambda fn: tracer.span("field2d.quadratic_form", fn))

    for attr in ("smb_experiment", "smb2d_experiment"):
        _wrap_attr(smb, attr, lambda fn: tracer.span("smb.experiment", fn))
    _wrap_attr(prediction, "prediction_gap_series",
               lambda fn: tracer.span("prediction.gap_series", fn))
    _wrap_attr(entropy_analysis.EntropyReport, "build",
               lambda fn: tracer.span("entropy_analysis.report", fn))


def layer_metrics(spans, counts) -> dict:
    """Self times, call counts and work counts of one traced process."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time, calls, work = {}, {}, dict(counts)
    for i, (name, start, end, _, n) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + n
    out = {metric: self_time.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    out.update({metric: calls.get(span, 0) for metric, span in CALLS.items()})
    out.update({metric: work.get(span, 0) for metric, span in WORK.items()})
    return out


def import_metrics(importtime_log: str) -> dict:
    """Seconds of import charged to entrospec, numpy and scipy.

    `-X importtime` prints each module after its own imports, indented by
    depth.  Walking the lines in reverse visits parents first.  A module's
    self time is charged to the outermost numpy or scipy module on its
    import path, else to entrospec if that is on the path, so a stdlib
    module counts against the package whose import pulled it in.
    """
    lines = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue  # header row
        field = parts[2][1:]
        name = field.lstrip(" ")
        lines.append(((len(field) - len(name)) // 2, name, int(parts[0].split(":")[1])))
    totals = {metric: 0.0 for metric in IMPORTS.values()}
    entrospec = IMPORTS["entrospec"]
    owners = []  # owners[d]: bucket of the module open at depth d, or None
    for depth, name, self_us in reversed(lines):
        del owners[depth:]
        inherited = owners[-1] if owners else None
        own = IMPORTS.get(name.split(".")[0])
        owner = own if inherited in (None, entrospec) and own else inherited
        owners.extend([inherited] * (depth - len(owners)))
        owners.append(owner)
        if owner:
            totals[owner] += self_us * 1e-6
    return totals
