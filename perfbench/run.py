#!/usr/bin/env python3
"""Time-to-verdict benchmark for deltashock.

    python3 perfbench/run.py --workload weak-solution --seed 1 --seconds 35 --trace 0

Run from the repository root.  One process drives one closed-loop client:
each operation starts when the previous one has returned and been
checked.  With ``--trace 0`` it prints the end-to-end metrics of the
workload; with ``--trace 1`` it runs a fixed number of operations, each
untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is the result as one JSON object.  See
``perfbench/README.md`` for the metrics, the workloads and why each was
chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
WARMUP = ("one untimed operation per workload (and one untimed set-up process) "
          "before timing, so __pycache__ and lazy kernel constants are filled; "
          "set-up is reported separately as setup_s")


def setup_seconds(code: str) -> float:
    """Seconds ``code`` takes in a fresh interpreter."""
    import workloads

    script = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=workloads.child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass(frozen=True, slots=True)
class Record:
    kind: str
    labels: frozenset
    latency: float
    check: object
    rss_kb: int | None


def run_op(op, tracer=None, op_id=0) -> Record:
    """Time one operation, then check its output outside the timed region."""
    import workloads

    if tracer is not None:
        tracer.op = op_id
        span = tracer.enter(f"op.{op.kind}", "op")
    result = None
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        check = workloads.Check(False, note=f"raised {exc!r}")
    finally:
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(span)
            tracer.op = None
    if result is not None:
        try:
            check = op.check(result)
        except Exception as exc:  # unreadable output fails its check
            check = workloads.Check(False, note=f"check raised {exc!r}")
    return Record(op.kind, op.labels, latency, check,
                  getattr(result, "max_rss_kb", None))


def median_and_tail(values) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, samples beyond the tail).

    The tail is the highest percentile with TAIL_BEYOND samples beyond it;
    with too few samples for one above the median, the maximum.
    """
    v = sorted(values)
    n = len(v)
    rank = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1
    return statistics.median(v), v[rank], 100.0 * (rank + 1) / n, n - rank - 1


def summarize(records, refs, labels) -> dict:
    """``refs`` holds the reference's time before each operation and after the last."""
    lat = [r.latency for r in records]
    n = len(lat)
    # Each latency in units of the mean of the references timed on either side.
    rel = [t / (0.5 * (a + b)) for t, a, b in zip(lat, refs, refs[1:])]
    p50, tail, tail_pct, beyond = median_and_tail(lat)
    rel_p50, rel_tail, _, _ = median_and_tail(rel)
    failed = [r for r in records if not r.check.ok]
    known = [r for r in failed if r.check.known_defect]
    errs = [r.check.coeff_err for r in records if r.check.coeff_err is not None]
    return {
        "n": n,
        "p50": p50,
        "tail": tail,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "ops_per_s": n / sum(lat),
        "ref_p50": statistics.median(refs),
        "rel_p50": rel_p50,
        "rel_tail": rel_tail,
        "ops_per_ref": n / sum(rel),
        "failed": len(failed),
        "known_defect": len(known),
        "notes": sorted({r.check.note for r in failed if r.check.note})[:5],
        "coeff_err_max": max(errs) if errs else None,
        "shares": {lab: sum(lab in r.labels for r in records) / n for lab in labels},
        "kind_p50": {k: statistics.median(r.latency for r in records if r.kind == k)
                     for k in sorted({r.kind for r in records})},
    }


def manifest(args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "thread_vars_in_children": True,
        "client": "closed loop, 1 client, 1 process",
        "warmup": WARMUP,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_untraced(workload, args, workdir: Path) -> dict:
    """A fixed number of operations, so the same seed checks the same outputs."""
    setup_seconds(workload.setup_code)     # untimed: fills __pycache__
    from deltashock.kernels import make_kernel
    make_kernel(workload.kernel_kind).cdf(0.0)
    run_op(next(workload.ops(args.seed, workdir / "warmup")))
    ops = workload.ops(args.seed, workdir / "timed")
    n_ops = workload.n_ops(args.seconds)
    records = []
    # Set-up is sampled once before the loop and once after every input
    # cycle, so that its median sees the whole run of a drifting host.
    setup = [setup_seconds(workload.setup_code)]
    start = time.perf_counter()
    refs = [timed(workload.reference)]
    for i in range(n_ops):
        records.append(run_op(next(ops)))
        refs.append(timed(workload.reference))
        if (i + 1) % workload.cycle == 0:
            setup.append(setup_seconds(workload.setup_code))
    end = time.perf_counter()
    s = summarize(records, refs, workload.labels)
    if workload.name == "cli":
        rss_mb = max((r.rss_kb for r in records if r.rss_kb), default=0) / 1024.0
        rss_of = "largest child process"
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_of = "benchmark process"
    setup_s = statistics.median(setup)
    coeff = s["coeff_err_max"]
    ref = workload.reference.__name__
    print(f"workload {workload.name}: {s['n']} operations in {end - start:.1f} s "
          f"(closed loop, 1 client; {ref} timed before and after each); "
          "median s by kind: "
          + ", ".join(f"{k} {v:.4f}" for k, v in s["kind_p50"].items()))
    tail_of = (f"p{s['tail_pct']:.1f} of {s['n']} operations, "
               f"{s['tail_beyond']} slower samples beyond it")
    rows = [
        ("setup_s", f"{setup_s:.4f} s",
         f"median of {len(setup)} fresh interpreters across the run"),
        ("op_s_p50", f"{s['p50']:.4f} s", f"median of {s['n']} operations"),
        ("op_s_tail", f"{s['tail']:.4f} s", tail_of),
        ("ops_per_s", f"{s['ops_per_s']:.4f} 1/s",
         "operations per second of operation time"),
        ("ref_s_p50", f"{s['ref_p50']:.4f} s", f"median of {len(refs)} {ref} runs"),
        ("op_ref_p50", f"{s['rel_p50']:.4f} ref",
         "median latency, each in units of the references beside it"),
        ("op_ref_tail", f"{s['rel_tail']:.4f} ref", tail_of),
        ("ops_per_ref", f"{s['ops_per_ref']:.4f} 1/ref",
         "operations per unit of reference time"),
        ("fail_ratio", f"{s['failed'] / s['n']:.4f}",
         f"{s['failed']} of {s['n']} failed; {s['known_defect']} of them are the "
         "known defect near a zero of e(t)"),
        ("peak_rss_mb", f"{rss_mb:.1f} MB", rss_of),
        ("coeff_err_max", "n/a" if coeff is None else f"{coeff:.3e}",
         "no closed form on this workload" if coeff is None
         else "largest |measured - closed form| over all extracted coefficients"),
    ]
    for name, value, how in rows:
        print(f"  {name:14s} {value:>14s}  {how}")
    print("  input shares: " + ", ".join(f"{k} {v:.3f}" for k, v in s["shares"].items()))
    for note in s["notes"]:
        print(f"  failure: {note}")
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "op_ref_p50": _metric(s["rel_p50"], "ref"),
        "op_ref_tail": _metric(s["rel_tail"], "ref"),
        "ops_per_ref": _metric(s["ops_per_ref"], "1/ref"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return {"records": records, "metrics": metrics}


def run_traced(workload, args, workdir: Path) -> dict:
    """Fixed operation count, so counts repeat exactly for a given seed."""
    import tracing
    from deltashock.kernels import make_kernel

    cycles = max(1, round(args.seconds / workload.trace_cycle_s))
    n_ops = cycles * workload.cycle
    setup_seconds("import deltashock.cli")     # untimed: fills __pycache__
    cli_import = statistics.median(setup_seconds("import deltashock.cli")
                                   for _ in range(3))
    t0 = time.perf_counter()
    make_kernel(workload.kernel_kind).cdf(0.0)
    kernel_setup = time.perf_counter() - t0
    run_op(next(workload.ops(args.seed, workdir / "warmup", True)))

    # Each operation runs untraced and then traced, so that both timings
    # see the same state of a machine whose speed drifts over minutes.
    plain = workload.ops(args.seed, workdir / "untraced", True)
    probed = workload.ops(args.seed, workdir / "traced", True)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for i in range(n_ops):
        untraced.append(run_op(next(plain)))
        op = next(probed)
        tracer.install()
        try:
            traced.append(run_op(op, tracer, i))
        finally:
            tracer.uninstall()
    span_file = OUT / f"spans-{workload.name}.csv.gz"
    tracer.write(span_file)
    layer = tracer.layer_metrics()
    layer["kernels.setup_s"] = (kernel_setup, "s")
    layer["cli.import_s"] = (cli_import, "s")
    p50 = statistics.median(r.latency for r in untraced)
    p50_traced = statistics.median(r.latency for r in traced)
    layer["trace.overhead_ratio"] = (p50_traced / p50, "ratio")
    print(f"workload {workload.name}: {n_ops} operations, each run untraced and "
          f"then traced; {len(tracer.spans)} spans written to "
          f"{span_file.relative_to(ROOT)}")
    for name, (value, unit) in layer.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    return {"records": untraced + traced,
            "metrics": {k: _metric(v, u) for k, (v, u) in layer.items()}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("weak-solution", "extraction", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "deltashock" / "__init__.py").is_file():
        print(f"error: no deltashock sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("manifest " + json.dumps(manifest(args)))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        result = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = result["records"]
    failed = sum(not r.check.ok for r in records)
    wrong = sum(not r.check.ok and not r.check.known_defect for r in records)
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
