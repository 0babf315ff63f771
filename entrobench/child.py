"""One workload pass in a fresh interpreter.

Reads a job {"commands": [[label, argv], ...], "trace": bool} from stdin,
imports entrospec.cli, runs each argv through `entrospec.cli.main` with its
stdout captured, and writes one JSON object to stdout.  Timestamps that the
parent compares with its own use time.monotonic (CLOCK_MONOTONIC, shared by
all processes on Linux).
"""

import time

import entrospec.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _openblas_threads():
    """Thread count of the OpenBLAS copies bundled with numpy and scipy.

    Opening a library that numpy or scipy already loaded returns the loaded
    copy, so this reads the live setting.  Builds against a system BLAS
    report nothing.
    """
    import glob

    import numpy
    import scipy

    found = {}
    paths = []
    for package in (numpy, scipy):
        libs = os.path.dirname(os.path.dirname(package.__file__))
        paths += glob.glob(os.path.join(libs, f"{package.__name__}.libs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _environment():
    import numpy
    import scipy

    from entrospec import kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": kernels.BACKEND,
        "openblas_threads": _openblas_threads(),
        "openblas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ},
    }


def main():
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cli_main = tracer.span("cli", entrospec.cli.main) if tracer else entrospec.cli.main

    results = []
    for label, argv in job["commands"]:
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli_main(argv)
        except Exception:  # an uncaught error is a failed operation, not a crash
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        results.append({"label": label, "rc": rc, "seconds": seconds,
                        "output": out.getvalue(), "error": error})

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready": READY,
        "peak_rss_mb": peak_kib / 1024.0,
        "results": results,
        "env": _environment(),
    }
    if tracer:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
