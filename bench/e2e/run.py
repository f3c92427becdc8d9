#!/usr/bin/env python3
"""Builds and runs one bench_e2e workload; prints its metrics as JSON.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 bench/e2e/run.py --smoke

Run from anywhere inside a checkout of the repository. The first call
configures and builds bench/e2e (a CMake project of its own, Release) into
.bench_build/e2e at the repository root; later calls rebuild incrementally.
Once per build of the binaries, the checks run before anything is measured:
timed_env_check (TimedEnv leaves byte-identical directories) and
the smoke (every workload briefly on 1/16-size inputs, traced and untraced,
each correct and reporting every metric of BENCHMARK.json). A failed check
fails the call. `--smoke` runs the checks alone (ctest e2e_smoke).

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json,
measured untraced. With --trace 1 the workload runs with span tracing on and
the result holds every per-layer metric, from bench_e2e's counters and
from trace_report.py. The workload's durable state and trace live under
<build dir>/data and are removed afterwards. The last stdout line is the
result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when the run finished and every checked answer was
right.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures once, then builds incrementally. Returns a stamp of the
    binaries, which changes whenever they are rebuilt."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "timed_env_check", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            raise RuntimeError("building bench_e2e failed: " + " ".join(cmd))
    return " ".join(str((build_dir / b).stat().st_mtime_ns)
                    for b in ("bench_e2e", "timed_env_check"))


def run_once(build_dir, workload, seed, seconds, trace, smoke=False):
    """Runs bench_e2e once. Returns (result dict, its output lines)."""
    work = build_dir / "data" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_file = work / "trace.txt"
    cmd = [str(build_dir / "bench_e2e"), f"--workload={workload}",
           f"--seed={seed}", f"--duration_s={seconds}",
           f"--dir={work / 'run'}"]
    if trace:
        cmd.append(f"--trace={trace_file}")
    if smoke:
        cmd.append("--scale=smoke")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        lines = res.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"bench_e2e exited {res.returncode} "
                               "without a result")
        out = json.loads(lines[-1])
        out["exit_code"] = res.returncode
        if trace:
            metrics, table = trace_report.analyze(trace_file)
            for name, (value, unit) in metrics.items():
                out["metrics"][name] = {"value": value, "unit": unit}
            lines[-1:-1] = table
        return out, lines[:-1]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def select(out, names):
    """The result object for the metrics `names` (name -> unit)."""
    metrics = {}
    for name, unit in names.items():
        m = out["metrics"].get(name)
        if m is None:
            raise RuntimeError(f"bench_e2e reported no metric {name}")
        if m["unit"] != unit:
            raise RuntimeError(f"metric {name} in {m['unit']}, "
                               f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}
    # A non-zero exit with no failure tallied still fails the run.
    failed = int(out["failed"]) or int(out["exit_code"] != 0)
    return {"correct": failed == 0, "attempted": max(1, int(out["attempted"])),
            "failed": failed, "metrics": metrics}


def metric_names(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def checks(build_dir):
    """timed_env_check, then every workload briefly, traced and untraced.
    Returns whether all passed."""
    data = build_dir / "data" / f"timed_env-{os.getpid()}"
    try:
        res = subprocess.run([str(build_dir / "timed_env_check"), str(data)],
                             timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    ok = res.returncode == 0
    log(f"timed_env_check: {'ok' if ok else 'FAILED'}")
    spec = load_spec()
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.time()
            try:
                out, _ = run_once(build_dir, w["name"], 1, 1, trace,
                                  smoke=True)
                good = select(out, metric_names(spec, trace))["correct"]
            except (RuntimeError, ValueError, OSError,
                    subprocess.TimeoutExpired) as e:
                log(str(e))
                good = False
            ok &= good
            log(f"smoke {w['name']} trace={trace}: "
                f"{'ok' if good else 'FAILED'} ({time.time() - t0:.1f} s)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the checks only")
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / ".bench_build" / "e2e")
    args = ap.parse_args()
    build_dir = args.build_dir.resolve()

    try:
        spec = load_spec()
        if not args.smoke and args.workload not in {
                w["name"] for w in spec["workloads"]}:
            raise RuntimeError(f"unknown workload {args.workload}")
        # The checks run once per build of the binaries, and on --smoke.
        stamp, passed = build(build_dir), build_dir / "checks_passed"
        if args.smoke or not passed.exists() or passed.read_text() != stamp:
            passed.unlink(missing_ok=True)
            if not checks(build_dir):
                raise RuntimeError("a check failed")
            passed.write_text(stamp)
        if args.smoke:
            return 0
        seconds = args.seconds or spec["run_seconds"]
        out, lines = run_once(build_dir, args.workload, args.seed, seconds,
                              args.trace)
        res = select(out, metric_names(spec, args.trace))
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    for line in lines:
        print(line)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
