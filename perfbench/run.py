"""medsens benchmark: one workload per process, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sens_cli,effects_cli,replicates} \\
        --seed N --seconds S --trace {0,1}

Set-up makes the workload's inputs from ``--seed`` (``SETUP_REPEATS``
times, to time it). The timed section then runs one unit of work per
input (one CLI call, or one pass over every replicate), going round the
inputs again until ``--seconds`` have passed, and every unit's outputs are
checked afterwards. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics. With ``--trace 1`` the first
unit runs once untraced and once under the span tracer, and the per-layer
metrics of the traced unit are printed instead. The line before the last
records the environment. Full records and traces go to
``.perfbench/results/`` in the checkout.

End-to-end times are reference-normalized seconds (``speed.py``): each
measured interval is scaled by how fast a fixed reference kernel ran
around it, which takes other tenants' load on a shared machine out of the
numbers. Raw unit times are kept in the record. Per-layer times of a
traced run are raw.

BLAS and OpenMP thread pools are pinned to one thread, and every result
records the setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 2

ROOT = Path(__file__).resolve().parent.parent
WORKSPACE = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sens_cli", "effects_cli", "replicates"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import medsens from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import medsens
        import medsens.cli  # noqa: F401  (also part of the import cost)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import medsens from {src}: {exc}")
    if Path(medsens.__file__).resolve().parent != src / "medsens":
        sys.exit(f"perfbench: medsens was imported from {medsens.__file__}, "
                 f"not from {src}")


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(), "machine": platform.machine(),
    }


def timed_section(workload, clock, seconds: float):
    """One unit per input, then more rounds until ``seconds`` (as ``clock``
    counts them) have passed. Returns [(start, end, Unit), ...] in
    ``time.perf_counter`` time."""
    done = []
    now = time.perf_counter
    start = now()
    while len(done) < workload.inputs or clock.seconds(start, now()) < seconds:
        t0 = now()
        unit = workload.run_unit(len(done) % workload.inputs)
        done.append((t0, now(), unit))
    return done


def check_units(workload, done) -> tuple[int, int, bool, int]:
    """Checks every unit and removes its output directory. Returns the ops
    attempted and failed, whether every output was correct, and the
    output bytes of the last unit."""
    attempted = failed = out_bytes = 0
    correct = True
    for *_, unit in done:
        attempted += workload.ops_per_unit
        unit_failed, unit_correct = workload.check(unit)
        failed += unit_failed
        correct = correct and unit_correct
        out_bytes = workload.out_bytes(unit)
        if unit.out_dir is not None:
            shutil.rmtree(unit.out_dir, ignore_errors=True)
    return attempted, failed, correct, out_bytes


def end_to_end(workload, clock, setup_s: float, done, attempted: int,
               failed: int):
    import numpy

    walls = [clock.seconds(t0, t1) for t0, t1, _ in done]
    if done[0][2].op_spans is not None:
        op_s = [clock.seconds(t0, t1) for *_, unit in done for t0, t1 in unit.op_spans]
    else:
        # a CLI call's ops are not timed one by one: both percentiles
        # report the mean op latency
        op_s = [sum(walls) / len(walls) / workload.ops_per_unit]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls) / len(walls), "s"),
        "ops_per_s": (workload.ops_per_unit * len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * float(numpy.percentile(op_s, 50)), "ms"),
        # p90 and above sit where the heavy tail of the fit cost begins,
        # which moves them by 30% from seed to seed
        "op_p80_ms": (1e3 * float(numpy.percentile(op_s, 80)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    details = {"units": len(walls), "unit_walls_s": walls,
               "unit_walls_raw_s": [t1 - t0 for t0, t1, _ in done],
               "op_latency_samples": len(op_s), "fail_frac": failed / attempted}
    return metrics, details


def traced_unit(workload, tracing, setup_spans):
    """The first unit, untraced and then traced: per-layer metrics,
    problems with the instrumentation, and the ops attempted and failed."""
    clock = time.perf_counter
    t0 = clock()
    units = [workload.run_unit(0)]
    untraced = clock() - t0
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = clock()
        units.append(workload.run_unit(0))
        traced = clock() - t0
    attempted, failed, correct, out_bytes = check_units(
        workload, [(0, 0, u) for u in units])
    metrics = tracing.layer_metrics(tracer.spans, setup_spans, out_bytes,
                                    traced / untraced - 1.0)
    seen = {span[0] for span in tracer.spans}
    problems = [f"expected span {name} is missing"
                for name in workload.expected_spans if name not in seen]
    bvn_calls = metrics["numkernel.bvn_cdf.calls"][0]
    if ("numkernel.bvn_cdf" in workload.expected_spans) != (bvn_calls > 0):
        problems.append(f"numkernel.bvn_cdf ran {bvn_calls} times")
    return metrics, problems, attempted, failed, correct, tracer.spans


def run(args) -> tuple[dict, dict]:
    import speed

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # the tracer's spans must not contain the probe's handler time
    clock = speed.RawClock() if args.trace else speed.SpeedProbe()
    with clock:
        t0 = time.perf_counter()
        import_package()
        import_s = clock.seconds(t0, time.perf_counter())

        import tracing
        import workloads

        workdir = WORKSPACE / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        results = WORKSPACE / "results"
        workdir.mkdir(parents=True, exist_ok=True)
        results.mkdir(parents=True, exist_ok=True)
        stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        try:
            return measure(args, clock, import_s, workdir, stem, tracing, workloads)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, clock, import_s, workdir, stem, tracing, workloads):
    workload = workloads.WORKLOADS[args.workload](workdir)
    setup_tracer = tracing.Tracer()
    gen_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        if args.trace:
            with setup_tracer.installed():
                workload.setup(args.seed)
        else:
            workload.setup(args.seed)
        gen_s.append(clock.seconds(t0, time.perf_counter()))
    setup_s = import_s + statistics.median(gen_s)

    problems = []
    if args.trace:
        metrics, problems, attempted, failed, correct, spans = traced_unit(
            workload, tracing, setup_tracer.spans)
        details = {"import_s": import_s}
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "setup": setup_tracer.spans, "timed": spans}, fh)
    else:
        done = timed_section(workload, clock, args.seconds)
        attempted, failed, correct, _ = check_units(workload, done)
        metrics, details = end_to_end(workload, clock, setup_s, done,
                                      attempted, failed)
        details.update(import_s=import_s, setup_gen_s=gen_s)
    record = {
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = {**environment(args), **details, "problems": problems}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **record}, fh, indent=2)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return env, record


def main(argv=None) -> int:
    env, record = run(parse_args(argv))
    print(json.dumps({"environment": env}, sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
