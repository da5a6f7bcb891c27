#!/usr/bin/env python3
"""Benchmark for betaot: run one workload (or all) and print its metrics.

Run from the repository root; the package is imported from ``src/``::

    python3 perfbench/run.py --workload detect --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # default seeds
    python3 perfbench/run.py --workload distance --trace 1  # per-layer run
    python3 perfbench/run.py ... --out results.jsonl        # keep full records

A run sets the workload up five times, each time also timing a
fresh-interpreter import of ``betaot.cli``.  Then it repeats the timed
operation for ``--seconds`` seconds in a closed loop, checking every
output.  A fixed reference kernel (``reference.py``) is timed between
set-ups and between operations; ``wall_s`` and ``setup_s`` are medians
of times calibrated by it (see :func:`calibrated`).  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` appends a fuller record (machine description, quality figures,
per-operation times, every span) as one JSON line; ``compare.py`` reads
those files.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
# What a ``betaot`` command pays before it starts work, timed in a fresh
# interpreter so that every set-up repeat gets its own sample.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import betaot.cli; print(time.perf_counter() - start)"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The reference kernel's time on an uncontended 2-vCPU Xeon guest (its
# fastest phases).  Calibrated times are seconds at that machine speed.
REF_NOMINAL_S = 0.025


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect", "distance", "solve-csv", "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record(s) to this file")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Use no more BLAS threads than usable cores; must run before numpy loads.

    Returns the thread count BLAS gets, the value of OPENBLAS_NUM_THREADS.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git; None if absent."""
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
    return None


def machine_description(nproc: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibrated(seconds, refs):
    """``seconds`` restated at the machine speed of ``REF_NOMINAL_S``.

    ``refs`` holds one more reference-kernel time than ``seconds``: the
    kernel was timed before each measured interval and after the last.
    Each interval is divided by the mean of the two kernel times that
    bracket it, which tracks a host whose speed drifts during a run.
    """
    return [REF_NOMINAL_S * 2.0 * s / (a + b) for s, a, b in zip(seconds, refs, refs[1:])]


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import ``betaot.cli`` from ``src``."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, spans, workdir):
    """Set up, then run timed and checked operations for ``seconds`` seconds."""
    from reference import Reference
    from workloads import Verdict

    reference = Reference()
    tracer = spans.Tracer() if trace else None
    import_s, setup_s, setup_units = [], [], []
    setup_refs = [reference.seconds()]
    for _ in range(SETUP_REPEATS):
        import_s.append(fresh_import_s())
        gc.collect()
        if tracer:
            tracer.install()
            tracer.begin()
        start = time.perf_counter()
        case = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)
        if tracer:
            setup_units.append(tracer.end())
            tracer.uninstall()
        setup_refs.append(reference.seconds())
    rss_after_setup = peak_rss_mb()

    ops, op_units, problems = [], [], []
    first_fingerprint = None
    loop_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced operations, starting
        # untraced: the untraced ones give the expected output and the
        # baseline for the tracing overhead.
        traced = bool(trace and len(ops) % 2)
        gc.collect()
        ref = reference.seconds()  # the machine's current speed, for calibrated()
        if traced:
            tracer.install()
            tracer.begin()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out, error = workload.op(case), None
        except Exception:  # an operation that raises counts as failed; keep measuring
            out, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if not ops:
            # Later operations reuse a heap that fragments as it goes, so the
            # peak after the first one is the figure that repeats.
            rss_first_op = peak_rss_mb()
        unit = None
        if traced:
            unit = tracer.end()
            tracer.uninstall()
        if error is None:
            try:
                verdict = workload.check(case, out)
            except Exception:  # a check that cannot run fails the operation
                verdict = Verdict.failure(traceback.format_exc())
        else:
            verdict = Verdict.failure(error)
        del out
        if verdict.ok:
            if first_fingerprint is None:
                first_fingerprint = verdict.fingerprint
            elif verdict.fingerprint != first_fingerprint:
                verdict.ok = False
                verdict.problems.append(
                    "traced output differs from the untraced one (trace invalid)"
                    if traced else "rerun output differs from the first operation's"
                )
        problems.extend(verdict.problems)
        ops.append({"wall_s": wall, "cpu_s": cpu, "ref_s": ref, "ok": verdict.ok,
                    "traced": traced, "quality": verdict.quality})
        if unit is not None:
            for key, value in verdict.quality.items():
                unit.counts["quality." + key] = value
            op_units.append(unit)
        if time.perf_counter() - loop_start >= seconds and (not trace or op_units):
            break
    op_refs = [op["ref_s"] for op in ops] + [reference.seconds()]
    for op, cal in zip(ops, calibrated([op["wall_s"] for op in ops], op_refs)):
        op["wall_cal_s"] = cal

    untraced = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in untraced]
    setups = [a + b for a, b in zip(import_s, setup_s)]
    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(ops),
        "failed": failed,
        "fail_rate": failed / len(ops),
        "problems": sorted(set(problems)),
        "import_s": import_s,
        "setup_inputs_s": setup_s,
        "setup_ref_s": setup_refs,
        "peak_rss_after_setup_mb": rss_after_setup,
        "peak_rss_end_mb": peak_rss_mb(),
        "ops": ops,
        "quality": {k: statistics.median(op["quality"][k] for op in ops if k in op["quality"])
                    for k in sorted({k for op in ops for k in op["quality"]})},
    }
    wall_q1, wall_q3 = quartiles(walls)
    record["end_to_end"] = {
        "wall_s": statistics.median(op["wall_cal_s"] for op in untraced),
        "wall_raw_s": statistics.median(walls),
        "wall_raw_q1_s": wall_q1,
        "wall_raw_q3_s": wall_q3,
        "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "ref_s": statistics.median(op_refs),
        "setup_s": statistics.median(calibrated(setups, setup_refs)),
        "setup_raw_s": statistics.median(setups),
        "peak_rss_mb": rss_first_op,
        "fail_rate": record["fail_rate"],
    }
    if trace:
        record.update(layer_record(tracer, spans, setup_units, op_units, ops))
    return record


def layer_record(tracer, spans, setup_units, op_units, ops) -> dict:
    layer, absent = {}, []
    for name in spans.LAYER_METRICS:
        units = setup_units if name in spans.SETUP_METRICS else op_units
        values = spans.layer_values(tracer, name, units)
        if values is None:
            absent.append(name)
        else:
            layer[name] = statistics.median(values)
    traced_wall = statistics.median(op["wall_s"] for op in ops if op["traced"])
    untraced_wall = statistics.median(op["wall_s"] for op in ops if not op["traced"])
    layer["trace.overhead.s"] = traced_wall - untraced_wall
    robust = layer.get("solver.robust_solve.s", 0.0)
    shares = {
        step: layer[step] / robust for step in spans.ROBUST_STEPS if robust and step in layer
    }
    return {
        "per_layer": layer,
        "absent": absent,
        "broken_counters": sorted(tracer.broken),
        "robust_step_shares": shares,
        "largest_robust_step": max(shares, key=shares.get) if shares else None,
        "spans": spans.span_table(op_units),
        "setup_spans": spans.span_table(setup_units),
    }


def final_metrics(record, bench, trace) -> dict:
    """The metrics of the result line; an absent per-layer metric has value None."""
    section = "per_layer" if trace else "end_to_end"
    values = record[section]
    return {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in bench[section]}


def print_summary(record, bench):
    trace = record["trace"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {'on' if trace else 'off'}  "
          f"ops {record['attempted']}  failed {record['failed']}  "
          f"fail_rate {record['fail_rate']:.4g}")
    for name, entry in final_metrics(record, bench, trace).items():
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g} {entry['unit']}"
        print(f"  {name:36s} {value}")
    if not trace:
        e2e = record["end_to_end"]
        print(f"  {'wall_raw_s (uncalibrated)':36s} {e2e['wall_raw_s']:.6g} s")
        print(f"  {'setup_raw_s (uncalibrated)':36s} {e2e['setup_raw_s']:.6g} s")
        print(f"  {'ref_s (median reference kernel)':36s} {e2e['ref_s']:.6g} s")
    for key, value in record["quality"].items():
        print(f"  quality {key:28s} {value:.6g}")
    if trace and record["largest_robust_step"]:
        step = record["largest_robust_step"]
        print(f"  largest step of solver.robust_solve.s: {step} "
              f"({record['robust_step_shares'][step]:.1%})")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot read BENCHMARK.json: {exc}\n")
        return 2
    if not (SRC / "betaot" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {SRC / 'betaot'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    import betaot

    if Path(betaot.__file__).resolve().parent != (SRC / "betaot").resolve():
        sys.stderr.write(f"error: imported betaot from {betaot.__file__}, not from {SRC}\n")
        return 2

    import spans
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    machine = machine_description(len(os.sched_getaffinity(0)), blas_threads)
    records = []
    work_root = ROOT / ".perfbench_work"
    for name in names:
        workload = workloads.WORKLOADS[name]
        seed = args.seed if args.seed is not None else workload.default_seed
        workdir = work_root / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            record = run_workload(workload, seed, seconds, args.trace, spans, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        record["machine"] = machine
        records.append(record)
        print_summary(record, bench)
    if work_root.is_dir() and not any(work_root.iterdir()):
        work_root.rmdir()

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = final_metrics(records[0], bench, args.trace)
    else:
        metrics = {
            f"{r['workload']}.{name}": entry
            for r in records
            for name, entry in final_metrics(r, bench, args.trace).items()
        }
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
