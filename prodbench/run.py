#!/usr/bin/env python3
"""Production-step benchmark: builds prodbench from the checkout's sources,
runs one workload (or all of them) and prints every metric of BENCHMARK.json
by name and unit. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the workloads, the
layer -> metric -> end-to-end mapping and how to read a traced run.

    python3 prodbench/run.py --workload solidify-cache-t2 --seed 42 \
        --seconds 50 --trace 0
    python3 prodbench/run.py --workload all        # every workload, both modes

Run from the repository root. Exit codes: 0 all repeats correct, 1 a repeat
crashed, timed out or failed a correctness or attribution check, 2 no
buildable source tree or bad arguments, 3 the build failed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# Every workload: solidify (Voronoi melt), moving window on, --overlap mu,
# split schedule, auto kernel dispatch. Steps per repeat and the minimum
# repeat count fix the pooled step-sample count the tail percentile needs.
# solidify-dram-t1 runs on request but is not in BENCHMARK.json: on a shared
# host its run-to-run spread exceeded the 0.25 bound (README.md, Noise).
WORKLOADS = {
    "solidify-cache-t2": dict(cells=(64, 64, 128), ranks=1, threads=2,
                              steps=60, min_repeats=5),
    "solidify-dram-t1": dict(cells=(128, 128, 320), ranks=1, threads=1,
                             steps=16, min_repeats=3),
    "solidify-shm4-insitu": dict(cells=(64, 64, 256), ranks=4, threads=1,
                                 steps=64, analyze=8, mesh=64, checkpoint=32,
                                 min_repeats=3),
}
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# |sum of layer times - step-loop wall| / wall must stay below this.
RESIDUAL_TOLERANCE = 0.05
# Wall-clock budget of one workload run after the build (contract: 180 s).
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail_percentile(wl):
    """Highest percentile with at least ten of the guaranteed samples beyond."""
    samples = wl["steps"] * wl["min_repeats"]
    return next(p for p in TAIL_PERCENTILES if samples * (1 - p / 100) >= 10)


def percentile(values, p):
    v = sorted(values)
    pos = (len(v) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def build(build_dir):
    """Configure once, then let make decide what is stale."""
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "prodbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir / "prodbench"


def invoke(binary, args, deadline):
    """Run prodbench in its own process group; return (record, peak RSS MiB).

    record is None on a crash, a timeout or unparsable output. The peak RSS
    comes from wait4 and covers the largest of the process and the shm rank
    processes it forked and reaped.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, 0.0
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(remaining, kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        log(f"prodbench {' '.join(args[:2])} exited with {proc.returncode}")
        return None, 0.0
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), usage.ru_maxrss / 1024.0
    except (IndexError, ValueError):
        log("prodbench printed no JSON record")
        return None, 0.0


def repeat_mlups(rec):
    return rec["cells"] * rec["steps"] / rec["loop_s"] / 1e6


def run_workload(binary, name, seed, seconds, trace, out_root):
    """Measure one workload; return (correct, attempted, failed, values, host)."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--cells", ",".join(map(str, wl["cells"])),
            "--ranks", str(wl["ranks"]), "--threads", str(wl["threads"]),
            "--steps", str(wl["steps"]),
            "--analyze", str(wl.get("analyze", 0)),
            "--mesh", str(wl.get("mesh", 0)),
            "--checkpoint", str(wl.get("checkpoint", 0)),
            "--seed", str(seed), "--out", str(out_root / name)]

    reference, _ = invoke(binary, ["--mode", "reference"] + base, deadline)
    if reference is None:
        log("the reference run failed: no repeat can be checked")

    attempted = failed = 0
    untraced, traced, rss = [], [], []

    def check(rec, is_traced):
        if rec is None or reference is None:
            return False
        ok = (rec["digest"] == reference["digest"] and rec["non_finite"] == 0
              and rec["src_intact"])
        if not ok:
            log(f"repeat digest {rec['digest']} != reference "
                f"{reference['digest']} (non-finite {rec['non_finite']}, "
                f"src intact {rec['src_intact']})")
        residual = rec["layers"].get("layer_sum_residual_frac")
        if is_traced and (residual is None or residual > RESIDUAL_TOLERANCE):
            log(f"layer_sum_residual_frac {residual} exceeds "
                f"{RESIDUAL_TOLERANCE}")
            ok = False
        return ok

    def repeat(is_traced, calibrate=False):
        nonlocal attempted, failed
        args = ["--mode", "run"] + base
        if is_traced:
            args.append("--trace")
        if calibrate:
            args.append("--calibrate")
        rec, peak = invoke(binary, args, deadline)
        attempted += 1
        if not check(rec, is_traced):
            failed += 1
            return
        (traced if is_traced else untraced).append(rec)
        if not is_traced:
            rss.append(peak)

    # The traced run: one calibrating traced repeat, then untraced and traced
    # repeats alternate, so the overhead compares like with like.
    if trace:
        repeat(True, calibrate=True)
    start = time.monotonic()
    durations = []
    i = 0
    min_repeats = 3 if trace else wl["min_repeats"]
    while time.monotonic() < deadline:
        done = len(durations)
        est = statistics.median(durations) if durations else 0.0
        if done >= min_repeats and time.monotonic() - start + est > seconds:
            break
        a = time.monotonic()
        repeat(trace and i % 2 == 1)
        durations.append(time.monotonic() - a)
        i += 1

    host = None
    if trace:
        host = next((r["host"] for r in traced if "host" in r), None)
    else:
        host, _ = invoke(binary, ["--mode", "host"], deadline)

    # name -> (value, how it was aggregated)
    values = {}
    if untraced:
        steps = [s for r in untraced for s in r["step_ms"]]
        p = tail_percentile(wl)
        beyond = len(steps) - int(len(steps) * p / 100)
        reps = f"median of {len(untraced)} repeats"
        values["mlups"] = (statistics.median(
            repeat_mlups(r) for r in untraced), reps)
        values["step_ms_p50"] = (statistics.median(steps),
                                 f"median of {len(steps)} steps")
        values["step_ms_tail"] = (percentile(steps, p),
                                  f"p{p:g} of {len(steps)} steps, "
                                  f"{beyond} beyond")
        values["setup_s"] = (statistics.median(
            r["setup_s"] for r in untraced), reps)
        values["rss_peak_mib"] = (statistics.median(rss), reps)
    if traced:
        names = {k for r in traced for k in r["layers"]}
        for k in names:
            vals = [r["layers"][k] for r in traced
                    if r["layers"].get(k) is not None]
            if vals:
                values[k] = (statistics.median(vals),
                             f"median of {len(vals)} traced repeats"
                             if len(vals) > 1 else "calibrating repeat")
        if "layer_sum_residual_frac" in values:
            v, note = values["layer_sum_residual_frac"]
            values["layer_sum_residual_frac"] = (
                v, f"{note}, each below {RESIDUAL_TOLERANCE}")
        if untraced:
            values["trace_overhead_frac"] = (1.0 - statistics.median(
                repeat_mlups(r) for r in traced) / values["mlups"][0],
                f"{len(traced)} traced vs {len(untraced)} untraced repeats")
    correct = failed == 0 and reference is not None
    return correct, attempted, failed, values, host


def report(name, seed, trace, spec, result):
    correct, attempted, failed, values, host = result
    wl = WORKLOADS[name]
    cells = "x".join(map(str, wl["cells"]))
    print(f"== {name}  seed {seed}  trace {int(trace)}  ({cells}, "
          f"{wl['ranks']} rank(s) x {wl['threads']} thread(s), "
          f"{wl['steps']} steps per repeat)")
    if host:
        print(f"host: {host['cpu_model']}  nproc {host['nproc']:g}  "
              f"L3 {host['l3_mib']:g} MiB  kernel {host['kernel_target']}"
              f"/{host['kernel_width']:g}  STREAM triad "
              f"{host['stream_triad_gbs']:.2f} GB/s (arrays "
              f"{host['stream_array_mib']:g} MiB)  peak "
              f"{host['peak_gflops_1core']:.2f} GFLOP/s per core")
    print(f"  {'error_rate':32s} {failed / max(attempted, 1):12.6g} ratio "
          f"({failed} failed of {attempted} repeats)")
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[key]:
        if m["name"] not in values:
            correct = False
            log(f"metric {m['name']} was not measured")
            continue
        v, note = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:32s} {v:12.6g} {m['unit']:8s} ({note})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42,
                    help="Voronoi seed of the workload (VoronoiConfig::seed)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="measured seconds of repeats per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    args = ap.parse_args()

    spec_path = REPO / "BENCHMARK.json"
    if not (REPO / "CMakeLists.txt").is_file() or \
            not (REPO / "src").is_dir() or not spec_path.is_file():
        log(f"run.py: no source tree with BENCHMARK.json at {REPO}")
        return 2
    spec = json.loads(spec_path.read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve() / "prodbench"
    binary = build(build_dir)
    if binary is None:
        log("run.py: the build failed")
        return 3

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    ok = True
    for name in names:
        for trace in modes:
            result = run_workload(binary, name, args.seed, args.seconds, trace,
                                  build_dir / "run")
            ok = report(name, args.seed, trace, spec, result) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
