"""entrospec benchmark: runs one workload's CLI commands in fresh child
processes for a fixed time, checks every output and prints the metrics.

    python3 entrobench/run.py --workload smb-1d --seed 1 --seconds 30 --trace 0

Run it from the repository root.  With --trace 0 the last line of stdout
holds the end-to-end metrics (medians over child processes); with --trace 1
it holds the per-layer metrics of traced children, which alternate with
untraced ones so that the tracing overhead is measured in the same run.
The line before it is a full record: environment, sample counts, every
check and the output digest.  The machine's default BLAS threading is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3  # per kind of child (untraced, traced)
BUDGET_S = 160.0  # the whole run ends well inside 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}
PER_LAYER_UNITS = {
    **{m: "s" for m in tracer.SELF_TIMES},
    **{m: "count" for m in (*tracer.CALLS, *tracer.WORK)},
    **{m: "s" for m in tracer.IMPORTS.values()},
    "trace.overhead_s": "s",
}


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(commands, traced, timeout):
    """One workload pass in a fresh interpreter; returns its measurements."""
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [str(HERE / "child.py")]
    job = json.dumps({"commands": commands, "trace": traced})
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    exited = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {stderr[-2000:]}")
    report = json.loads(stdout)
    report["wall_s"] = exited - spawned
    report["setup_s"] = report["ready"] - spawned
    report["run_s"] = sum(r["seconds"] for r in report["results"])
    if traced:
        report["layers"] = tracer.layer_metrics(report.pop("spans"), report.pop("counts"))
        report["layers"].update(tracer.import_metrics(stderr))
    return report


def _summary(values):
    values = sorted(values)
    return {"median": statistics.median(values), "min": values[0], "max": values[-1],
            "samples": len(values)}


def _reference_digest(name, cli_seed):
    path = HERE / "reference.json"
    if not path.is_file():
        return None, None
    reference = json.loads(path.read_text())
    key = "any" if name == "exact-long-memory" else str(cli_seed)
    return reference["digests"].get(name, {}).get(key), reference.get("source_commit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entrospec" / "cli.py").is_file():
        print(f"entrospec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    commands = workload.commands(args.seed)

    started = time.monotonic()
    # warm the page cache and byte-code caches; users rarely pay a cold start
    subprocess.run([sys.executable, "-c", "import entrospec.cli"], cwd=ROOT, env=_child_env(),
                   check=True, timeout=60)
    measure_from = time.monotonic()
    plain, traced = [], []
    ops_attempted = ops_failed = 0
    check_log = {}  # check name -> [passed, attempted, last detail]
    digests = set()
    while True:
        elapsed = time.monotonic() - measure_from
        enough = len(plain) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
        # start no child that would run past --seconds once enough are in
        typical = statistics.median(r["wall_s"] for r in plain + traced) if plain else 0.0
        if enough and elapsed + typical > args.seconds:
            break
        want_trace = bool(args.trace) and len(traced) < len(plain)
        remaining = BUDGET_S - (time.monotonic() - started)
        if remaining < 10.0:
            break
        report = run_child(commands, want_trace, timeout=remaining)
        (traced if want_trace else plain).append(report)
        for r in report["results"]:
            ops_attempted += 1
            if r["rc"] not in (0, 1):  # 1 is an --assert verdict, checked below
                ops_failed += 1
                continue
            for name, passed, detail in workload.check(r["label"], r["rc"], r["output"]):
                entry = check_log.setdefault(name, [0, 0, ""])
                entry[0] += bool(passed)
                entry[1] += 1
                entry[2] = detail
        digests.add(workloads.output_digest(report["results"]))

    checks_attempted = sum(e[1] for e in check_log.values())
    checks_passed = sum(e[0] for e in check_log.values())
    unexpected = sorted(n for n, e in check_log.items()
                        if e[0] < e[1] and n not in workloads.KNOWN_DEFECTS)
    correct = ops_failed == 0 and not unexpected and checks_attempted > 0

    pass_ratio = checks_passed / checks_attempted if checks_attempted else 0.0
    summaries = {m: _summary([r[m] for r in plain])
                 for m in ("wall_s", "setup_s", "run_s", "peak_rss_mb")}
    summaries["pass_ratio"] = {"median": pass_ratio, "samples": checks_attempted}
    if args.trace:
        for m in PER_LAYER_UNITS:
            if m != "trace.overhead_s":
                summaries[m] = _summary([r["layers"][m] for r in traced])
        summaries["trace.run_s"] = _summary([r["run_s"] for r in traced])
        overhead = summaries["trace.run_s"]["median"] - summaries["run_s"]["median"]
        summaries["trace.overhead_s"] = {"median": overhead, "samples": len(traced)}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    cli_seed = args.seed % workloads.REFERENCE_SEEDS
    reference, source_commit = _reference_digest(args.workload, cli_seed)
    digest = sorted(digests)[0] if len(digests) == 1 else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": cli_seed,
        "order": [label for label, _ in commands],
        "env": plain[0]["env"],
        "metrics": summaries,
        "fail_ratio": 1.0 - pass_ratio,
        "checks": {n: {"passed": e[0], "attempted": e[1], "known_defect": n in workloads.KNOWN_DEFECTS,
                       "detail": e[2]} for n, e in sorted(check_log.items())},
        "unexpected_failures": unexpected,
        "output_digest": digest or sorted(digests),
        "output_matches_seed_commit": None if reference is None else digest == reference,
        "seed_commit": source_commit,
    }
    if args.trace:
        sampling = sum(summaries[m]["median"] for m in (
            "sampling.sample_paths_s", "sampling.ensemble_residuals_s", "sampling.normals_s",
            "sampling.sample_field_s"))
        record["sampling_share_of_traced_run_s"] = sampling / summaries["trace.run_s"]["median"]

    for m, unit in units.items():
        print(f"{m:32s} {summaries[m]['median']:14.6g} {unit:6s} (n={summaries[m]['samples']})")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": ops_attempted,
        "failed": ops_failed,
        "metrics": {m: {"value": summaries[m]["median"], "unit": unit} for m, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
