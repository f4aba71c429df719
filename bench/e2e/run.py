#!/usr/bin/env python3
"""End-to-end benchmark of the Chaos simulator (see README.md beside this file).

Builds this directory's CMake project (the chaos library plus chaos_e2e) in
Release, then runs each workload in its own fresh, single-threaded process.

  run.py --seed 1 --out DIR           every workload; prints `workload metric
                                      value unit` lines, writes DIR/results.json
  run.py --seed 1 --out DIR --trace   adds a traced run per workload: per-layer
                                      metrics, DIR/trace_<workload>.json and the
                                      tracing overhead
  run.py --smoke --out DIR            reduced scales, a plumbing check (< 60 s)
  run.py --check --seed 1 --out DIR   two full sets, compared against the bounds
  run.py --workload NAME --seed N --seconds S --trace 0|1
                                      one workload; the last stdout line is one
                                      JSON object with keys correct, attempted,
                                      failed and metrics (end-to-end metrics
                                      with --trace 0, per-layer with --trace 1)

The all-workload forms exit nonzero on any failed rep, crash or build error.
The single-workload form reports failed reps through "correct" and "failed"
and exits nonzero only when it cannot print a result. The build goes to
$CARGO_TARGET_DIR/e2e when that is set, else to .bench_build/e2e under the
repository root.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKLOADS = ["pagerank_stream", "steal_storm32", "wcc_spill", "bfs_evolving"]
# Host metrics vary run to run; every other end-to-end metric is simulated
# and repeats exactly for a given seed.
HOST_METRICS = {"run_s", "setup_s", "peak_rss_mb"}
# Median CPU time of one speed probe (probe.h) on the reference machine
# (README.md, "Baseline and spread") when it was quiet. Host times are
# reported in reference seconds: CPU seconds scaled by this over the run's
# own median probe time, so that a host running slower or faster for a
# while (clock, other tenants) moves the probe and the program alike and
# cancels out.
REFERENCE_PROBE_S = 0.005
PROCESS_TIMEOUT_S = 170
SMOKE_ARGS = ["--scale-shift=-3", "--min-reps=2", "--graphs=2"]
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2e")


def build():
    """Configures (once) and builds chaos_e2e; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    ninja = shutil.which("ninja") is not None
    generated = os.path.join(out, "build.ninja" if ninja else "Makefile")
    steps = []
    if not os.path.exists(generated):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + (["-G", "Ninja"] if ninja else []))
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "chaos_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed (log: %s)" % log_path)
    return os.path.join(out, "chaos_e2e")


def run_workload(binary, workload, seed, seconds, trace_path=None, smoke=False):
    """Runs one workload process; returns its raw samples plus wall_s."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%r" % seconds]
    if smoke:
        cmd += SMOKE_ARGS
    if trace_path:
        cmd.append("--trace-out=" + trace_path)
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["wall_s"] = wall_s
    return raw


def speed_factor(raw):
    """Turns the run's CPU seconds into reference seconds."""
    return REFERENCE_PROBE_S / statistics.median(raw["probe_s"])


def end_to_end(raw):
    factor = speed_factor(raw)
    return {
        "run_s": statistics.median(raw["run_s"]) * factor,
        "setup_s": statistics.median(raw["setup_s"]) * factor,
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_s": raw["sim"]["sim_s"],
        "sim_superstep_max_s": raw["sim"]["sim_superstep_max_s"],
    }


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "start": e["ts"] / 1e6, "end": (e["ts"] + e["dur"]) / 1e6,
             "cpu": e["args"]["cpu_us"] / 1e6, "id": e["args"]["span_id"],
             "parent": e["args"]["parent_id"], "rep": e["args"]["rep"]} for e in events]


def add_self_times(spans):
    """Self time = span duration minus its children's durations, on the wall
    clock ("self") and on the thread's CPU clock ("self_cpu"). Spans nest
    strictly on one thread, so children never overlap."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        kids = children.get(s["id"], [])
        s["self"] = (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in kids)
        s["self_cpu"] = s["cpu"] - sum(c["cpu"] for c in kids)


def per_layer(raw, spans):
    """Per-layer metrics of a traced run. Host times are in reference seconds,
    like the end-to-end ones, and bench.probe_s is the run's own median probe
    time, which gives the scale back. bench.offcpu_frac shows how much wall
    time CPU time leaves out."""
    add_self_times(spans)
    factor = speed_factor(raw)

    def self_cpu(name):
        return [s["self_cpu"] * factor for s in spans if s["name"] == name]

    runs = [s for s in spans if s["name"] == "core.run_job"]
    measured = [s["cpu"] * factor for s in runs if s["rep"] >= 1]
    first = [s["cpu"] * factor for s in runs if s["rep"] == 0]
    whole = [s for s in spans if s["name"] == "bench.workload"]
    if len(whole) != 1 or not measured or len(first) != 1:
        raise BenchError("trace of %s lacks its workload or rep spans" % raw["workload"])
    whole = whole[0]
    whole_wall = whole["end"] - whole["start"]
    run_s = statistics.median(measured)
    sim = raw["sim"]
    metrics = {
        "graph.generate_s": statistics.median(self_cpu("graph.generate")),
        "graph.ref_s": sum(self_cpu("graph.ref")),
        "graph.edges": raw["prepared_edges"],
        "algorithms.prepare_s": statistics.median(self_cpu("algorithms.prepare")),
        "core.run_s": run_s,
        "core.run_first_s": first[0],
        "core.host_ns_per_edge": run_s / max(sim["core.edges"], 1) * 1e9,
        "bench.verify_s": statistics.median(self_cpu("bench.verify")),
        "bench.probe_s": statistics.median(raw["probe_s"]),
        # Share of the process's wall time that layer spans (the children of
        # bench.workload) account for.
        "bench.span_coverage": (whole_wall - whole["self"]) / raw["wall_s"],
        # Share of the workload's wall time its thread was not running.
        "bench.offcpu_frac": 1.0 - whole["cpu"] / whole_wall,
    }
    for name, value in sim.items():
        if name not in ("sim_s", "sim_superstep_max_s"):
            metrics[name] = value
    return metrics


def metric_units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(workload, metrics, units):
    for name, value in metrics.items():
        print("%s %s %.9g %s" % (workload, name, value, units.get(name, "ratio")))


def out_dir(args):
    path = os.path.abspath(args.out or os.path.join(build_dir(), "out"))
    os.makedirs(path, exist_ok=True)
    return path


def run_one(args, spec, binary):
    """The single-workload form: the last stdout line is the result JSON."""
    trace_path = None
    if args.trace:
        trace_path = os.path.join(out_dir(args), "trace_%s.json" % args.workload)
    raw = run_workload(binary, args.workload, args.seed, args.seconds, trace_path, args.smoke)
    if args.trace:
        values = per_layer(raw, load_spans(trace_path))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]
    for error in raw["errors"]:
        sys.stderr.write("%s: %s\n" % (args.workload, error))
    print_metrics(args.workload, {m["name"]: values[m["name"]] for m in wanted},
                  metric_units(spec))
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_set(args, binary, out, trace):
    """Runs every workload once; returns {workload: record}."""
    results = {}
    for workload in WORKLOADS:
        raw = run_workload(binary, workload, args.seed, args.seconds, smoke=args.smoke)
        record = {
            "end_to_end": end_to_end(raw),
            "failed_frac": raw["failed"] / raw["attempted"],
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "errors": raw["errors"],
            "reps": len(raw["run_s"]),
            "run_wall_s": statistics.median(raw["run_wall_s"]),
            "sim": raw["sim"],
        }
        if trace:
            trace_path = os.path.join(out, "trace_%s.json" % workload)
            traced = run_workload(binary, workload, args.seed, args.seconds, trace_path,
                                  args.smoke)
            record["per_layer"] = per_layer(traced, load_spans(trace_path))
            untraced_run = record["end_to_end"]["run_s"]
            record["per_layer"]["bench.trace_overhead_frac"] = (
                statistics.median(traced["run_s"]) - untraced_run) / untraced_run
            if traced["sim"] != raw["sim"]:
                record["errors"].append("simulated counters differ between traced and "
                                        "untraced runs")
            record["failed"] += traced["failed"]
            record["errors"] += traced["errors"]
        results[workload] = record
    return results


def report_set(results, units):
    ok = True
    for workload, record in results.items():
        print_metrics(workload, record["end_to_end"], units)
        print("%s failed_frac %.9g ratio (%d of %d reps; %d measured)" % (
            workload, record["failed_frac"], record["failed"], record["attempted"],
            record["reps"]))
        print("%s run_wall_s %.9g s (wall clock, for reference)" % (
            workload, record["run_wall_s"]))
        if "per_layer" in record:
            print_metrics(workload, record["per_layer"], units)
        for error in record["errors"]:
            print("%s ERROR %s" % (workload, error), file=sys.stderr)
        ok = ok and record["failed"] == 0 and not record["errors"]
    return ok


def compare_sets(first, second, spec):
    """Checks two sets of the same code: simulated metrics byte-identical,
    host medians within each metric's bound. Prints every spread."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        if a["sim"] != b["sim"]:
            print("%s simulated counters differ between sets" % workload)
            ok = False
        for name, bound in bounds.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            spread = abs(y - x) / x if x else 0.0
            exact = name not in HOST_METRICS
            good = (repr(x) == repr(y)) if exact else spread <= bound
            print("%s %s set1=%.6g set2=%.6g spread=%.2f%% %s %s" % (
                workload, name, x, y, 100 * spread,
                "exact" if exact else "bound=%g%%" % (100 * bound), "ok" if good else "FAIL"))
            ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
        binary = build()
        if args.workload:
            return run_one(args, spec, binary)
        out = out_dir(args)
        units = metric_units(spec)
        units["bench.trace_overhead_frac"] = "ratio"
        results = run_set(args, binary, out, bool(args.trace))
        ok = report_set(results, units)
        if args.check:
            second = run_set(args, binary, out, False)
            ok = report_set(second, units) and ok
            ok = compare_sets(results, second, spec) and ok
            results = {"set1": results, "set2": second}
        with open(os.path.join(out, "results.json"), "w") as f:
            json.dump({"seed": args.seed, "smoke": args.smoke, "workloads": results}, f,
                      indent=1, sort_keys=True)
        return 0 if ok else 1
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
