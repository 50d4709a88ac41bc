#!/usr/bin/env python3
"""Host-and-simulated performance benchmark of the CommTM simulator.

Builds bench/perf (the commtm_perf program) in Release and runs one
workload for a fixed host-time budget:

  python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1>

It prints one "<workload> <metric> <value> <unit>" line per metric and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. A traced run also
prints the self time of every span kind and writes the spans as Chrome
trace-event JSON into the build directory. Other modes:

  --record FILE [--runs N] [--workload W] [--append]
                               N untraced runs plus one traced run of
                               every workload (or of W), summarized
                               into FILE; --append adds the untraced
                               runs to an existing FILE
  --compare PARENT CHANGE      one verdict per (workload, metric)
  --smoke                      every workload at reduced op counts

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root. bench/perf/README.md describes the metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "bench" / "perf"
DEFAULT_SEED = 0x5EED
# commtm_perf stops within --seconds once it has its minimum rounds;
# a run still going at RUN_TIMEOUT_S (under the 180 s a benchmark run
# may take) has hung.
RUN_TIMEOUT_S = 170
# Metrics that are simulated: identical for identical seeds.
SIMULATED_E2E = ("sim_Mcycles", "commit_frac")


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build commtm_perf; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        die(f"simulator sources not found under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PERF), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "commtm_perf",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "commtm_perf"


def run_perf(exe, workload, seed, seconds, trace, smoke=False):
    """One commtm_perf process; returns (result dict, stdout, trace)."""
    out = build_dir()
    tag = f"{workload}-{seed}-{int(trace)}{'-smoke' if smoke else ''}"
    result_path = out / f"result-{tag}.json"
    trace_path = out / f"trace-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if trace:
        cmd.append(f"--trace={trace_path}")
    if smoke:
        cmd.append("--smoke")
    # Observers forced on through the environment would change what is
    # measured; the benchmark turns them on only where it means to.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COMMTM_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{workload}: commtm_perf did not finish in "
            f"{RUN_TIMEOUT_S} s", 1)
    if proc.returncode not in (0, 1) or not result_path.is_file():
        sys.stdout.write(proc.stdout)
        die(f"{workload}: commtm_perf exited {proc.returncode}", 1)
    with open(result_path) as f:
        result = json.load(f)
    return result, proc.stdout, trace_path if trace else None


def result_line(result, metric_specs):
    """The last output line: exactly the named metrics, each checked to
    be present, finite, and in the unit BENCHMARK.json gives."""
    correct = bool(result["correct"])
    metrics = {}
    for spec in metric_specs:
        got = result["metrics"].get(spec["name"])
        if got is None or not math.isfinite(got["value"]) or \
                got["unit"] != spec["unit"]:
            print(f"run.py: metric {spec['name']} missing, not finite, "
                  f"or not in {spec['unit']}", file=sys.stderr)
            correct = False
            continue
        metrics[spec["name"]] = {"value": got["value"],
                                 "unit": spec["unit"]}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def self_times(trace_path):
    """Per span name: (self seconds, total seconds, count), where self
    time is a span's duration minus its child spans' durations."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child = [0.0] * len(events)
    for ev in events:
        parent = ev["args"]["parent"]
        if parent >= 0:
            child[parent] += ev["dur"]
    table = {}
    for ev in events:
        entry = table.setdefault(ev["name"], [0.0, 0.0, 0])
        entry[0] += (ev["dur"] - child[ev["args"]["id"]]) / 1e6
        entry[1] += ev["dur"] / 1e6
        entry[2] += 1
    return table


def single_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r} (one of {names})")
    exe = build()
    result, stdout, trace_path = run_perf(
        exe, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    if trace_path:
        print(f"trace {trace_path} (open in https://ui.perfetto.dev)")
        table = self_times(trace_path)
        for name, (self_s, total_s, count) in sorted(
                table.items(), key=lambda kv: -kv[1][0]):
            print(f"span {name} self_s {self_s:.6f} total_s "
                  f"{total_s:.6f} count {count}")
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = result_line(result, specs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stamp(exe):
    """Host, compiler and build type of a record file."""
    cache = exe.parent / "CMakeCache.txt"
    entries = {}
    for line in cache.read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            entries[key.split(":")[0]] = value
    compiler = entries.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"],
                             stdout=subprocess.PIPE, text=True)
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "os": f"{platform.system()} {platform.release()}",
            "compiler": version.stdout.splitlines()[0],
            "build_type": entries.get("CMAKE_BUILD_TYPE", ""),
            "date": time.strftime("%Y-%m-%d")}


def record(args, spec):
    exe = build()
    path = Path(args.record)
    if args.append and path.is_file():
        with open(path) as f:
            out = json.load(f)
        if out["seed"] != args.seed or out["seconds"] != args.seconds:
            die(f"{path} was recorded with seed {out['seed']} and "
                f"{out['seconds']} s; append with the same settings")
    else:
        out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    out["stamp"] = stamp(exe)
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        entry = out["workloads"].setdefault(name, {"end_to_end": {}})
        runs = []
        for i in range(args.runs):
            result, _, _ = run_perf(exe, name, args.seed, args.seconds,
                                    False)
            runs.append(result)
            print(f"{name} run {i + 1}/{args.runs}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr)
        # One traced run per workload and file: appended runs add
        # untraced samples only.
        checked = list(runs)
        if "per_layer" not in entry:
            traced, _, trace_path = run_perf(exe, name, args.seed,
                                             args.seconds, True)
            checked.append(traced)
            entry["per_layer"] = {k: v for k, v in
                                  traced["metrics"].items()
                                  if k not in e2e}
            entry["span_self_s"] = {k: v[0] for k, v in
                                    self_times(trace_path).items()}
        entry.setdefault("sim_digest", checked[0]["sim_digest"])
        digests = {entry["sim_digest"]} | {r["sim_digest"] for r in checked}
        if len(digests) != 1:
            print(f"run.py: {name}: sim_digest differs across same-seed "
                  f"runs: {sorted(digests)}", file=sys.stderr)
            ok = False
        ok = ok and all(r["correct"] for r in checked)
        for m in spec["end_to_end"]:
            summary = entry["end_to_end"].setdefault(
                m["name"], {"unit": m["unit"], "values": []})
            summary["values"] += [r["metrics"][m["name"]]["value"]
                                  for r in runs]
            summary["q1"], summary["median"], summary["q3"] = \
                quartiles(summary["values"])
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def verdict(parent, change, better, bound):
    """Choosing-metrics rule: improved needs >= 9/10 pair wins and a
    median gap beyond the parent's IQR; worse is a median loss beyond
    the bound; a spread wider than the bound leaves it unresolved
    unless every change run beats every parent run."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    loss = -gain / p_med if p_med else 0.0
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    if loss > bound:
        return "worse", wins, len(pairs)
    spread = (q3 - q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(args, spec):
    with open(args.compare[0]) as f:
        parent = json.load(f)
    with open(args.compare[1]) as f:
        change = json.load(f)
    print("workload metric verdict parent_median change_median "
          "change/parent wins/pairs parent_iqr unit")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent["workloads"] or \
                name not in change["workloads"]:
            print(f"{name} - missing from one file")
            continue
        pw = parent["workloads"][name]
        cw = change["workloads"][name]
        if pw["sim_digest"] != cw["sim_digest"]:
            print(f"{name} sim_digest differs: {pw['sim_digest']} -> "
                  f"{cw['sim_digest']} (simulated behaviour changed)")
        for m in spec["end_to_end"]:
            p = pw["end_to_end"][m["name"]]["values"]
            c = cw["end_to_end"][m["name"]]["values"]
            result, wins, n = verdict(p, c, m["better"], m["bound"])
            q1, p_med, q3 = quartiles(p)
            c_med = statistics.median(c)
            ratio = c_med / p_med if p_med else float("nan")
            print(f"{name} {m['name']} {result} {p_med:.6g} {c_med:.6g} "
                  f"{ratio:.4f} {wins}/{n} {q3 - q1:.6g} {m['unit']}")
    return 0


def smoke(spec):
    exe = build()
    start = time.monotonic()
    ok = True
    e2e = spec["end_to_end"]
    layer = spec["per_layer"]
    for w in spec["workloads"]:
        name = w["name"]
        a, _, _ = run_perf(exe, name, DEFAULT_SEED, 0, False, True)
        b, _, _ = run_perf(exe, name, DEFAULT_SEED, 0, False, True)
        t, _, _ = run_perf(exe, name, DEFAULT_SEED, 0, True, True)
        problems = []
        for result, specs in ((a, e2e), (b, e2e), (t, layer)):
            if not result_line(result, specs)["correct"]:
                problems.append("a metric is missing or a check failed")
        if t["metrics"]["check_fail_frac"]["value"] != 0:
            problems.append("check_fail_frac != 0")
        if len({a["sim_digest"], b["sim_digest"], t["sim_digest"]}) != 1:
            problems.append("sim_digest differs between same-seed runs")
        for m in SIMULATED_E2E:
            if a["metrics"][m]["value"] != b["metrics"][m]["value"]:
                problems.append(f"{m} differs between same-seed runs")
        print(f"smoke {name}: {'; '.join(problems) or 'ok'}")
        ok = ok and not problems
    elapsed = time.monotonic() - start
    print(f"smoke: {'passed' if ok else 'FAILED'} in {elapsed:.1f} s")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default=DEFAULT_SEED,
                        type=lambda s: int(s, 16 if s[:2].lower() == "0x"
                                           else 10))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args, spec)
    if args.smoke:
        return smoke(spec)
    if args.record:
        return record(args, spec)
    if not args.workload:
        parser.error("--workload is required")
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
