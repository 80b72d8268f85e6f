#!/usr/bin/env python3
"""The repository benchmark: builds hadfl_bench, runs workloads, checks
their outputs and prints every metric BENCHMARK.json names, with its unit.

One measured run (the last stdout line is the JSON result):
  python3 benchmark/run.py --workload rt-mlp --seed 7 --seconds 20 --trace 0

Full mode: every workload round-robin, --sets times, then one traced run
per workload; writes a results file with provenance:
  python3 benchmark/run.py --sets 2 --out benchmark/results/seed.json

Smoke: every workload at about 1/20 length, traced; asserts that every
metric is printed, finite and has a unit, and that every check passes:
  python3 benchmark/run.py --smoke

Thread scaling of sim-resnet, fleet-1m and the GEMM probe:
  python3 benchmark/run.py --threads 1,2,4 --out benchmark/results/threads.json

See benchmark/README.md for the workloads and metric definitions.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build" / "benchmark"
OUT_DIR = BUILD_DIR / "out"
BINARY = BUILD_DIR / "hadfl_bench"
WORKLOADS = ["sim-resnet", "rt-mlp", "net-tcp-topk", "fleet-1m"]
# The components a traced run's run_s splits into; the fleet adds its clock.
BREAKDOWN = ["round.train_critical_s", "core.select_s", "round.sync_s",
             "round.eval_s", "fleet.clock_s", "round.other_s"]


def nproc():
    return len(os.sched_getaffinity(0))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds hadfl_bench; raises on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.log", "w") as build_log:
        steps = []
        if not (BUILD_DIR / "Makefile").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "hadfl_bench", "-j", str(nproc())])
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                build_log.flush()
                tail = (BUILD_DIR / "build.log").read_text().splitlines()[-20:]
                raise RuntimeError("build failed: " + " ".join(step) + "\n" +
                                   "\n".join(tail))


def run_bench(workload, seed, seconds, trace, threads, smoke=False,
              min_reps=3):
    """Runs hadfl_bench once and returns its JSON summary."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--min-reps={min_reps}", f"--out-dir={OUT_DIR}"]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, HADFL_NUM_THREADS=str(threads))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=3 * seconds + 90)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"hadfl_bench {workload} failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


# ---- aggregation -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def aggregate(summary):
    """Medians over a run's repetitions: end-to-end metrics from the untimed
    repetitions (repetition 0 only warms the process up), per-layer metrics
    from the traced ones."""
    reps = summary["reps"]
    plain = [r for r in reps if not r["traced"]][1:]
    traced = [r for r in reps if r["traced"]]
    per_rep = {
        "setup_s": [r["setup_s"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "rounds_per_s": [r["rounds"] / r["run_s"] for r in plain],
        "samples_per_s": [r["samples"] / r["run_s"] for r in plain],
        "best_acc": [r["best_acc"] for r in plain],
    }
    e2e = {k: statistics.median(v) for k, v in per_rep.items()}
    round_ms = [ms for r in plain for ms in r["round_ms"]]
    e2e["round_ms_p50"] = percentile(round_ms, 0.50)
    e2e["round_ms_p90"] = percentile(round_ms, 0.90)
    e2e["peak_rss_mb"] = summary["peak_rss_mb"]
    spread = {k: quartiles(v) for k, v in per_rep.items()}

    details = {
        "round_samples": len(round_ms),
        "reps": len(plain),
        "wire_kb_per_round": statistics.median(r["wire_kb_per_round"] for r in reps),
        "warn_lines": statistics.median(r["warn_lines"] for r in reps),
    }
    tta = [r["virtual_tta_s"] for r in plain if r["virtual_tta_s"] is not None]
    if tta:
        details["virtual_tta_s"] = statistics.median(tta)

    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        layers.update(summary.get("probes", {}))
        layers["trace.overhead_share"] = (
            statistics.median(r["run_s"] for r in traced) / e2e["run_s"] - 1.0)
        layers["run_s"] = statistics.median(r["run_s"] for r in traced)
    return {
        "e2e": e2e,
        "spread": spread,
        "layers": layers,
        "details": details,
        "attempted": sum(r["rounds"] for r in reps),
        "failed": sum(r["failed_rounds"] for r in reps),
        "hash": reps[0]["hash"],
        "checks": summary["checks"],
    }


def select_metrics(values, spec_metrics):
    """{name: {value, unit}} for every metric the spec names; raises if one
    is missing or not finite."""
    out = {}
    for m in spec_metrics:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            raise RuntimeError(f"metric {m['name']} missing or not finite: {v}")
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


# ---- modes -----------------------------------------------------------------

def measured_run(args, spec, threads):
    summary = run_bench(args.workload, args.seed, args.seconds, args.trace,
                        threads)
    agg = aggregate(summary)
    if args.trace:
        metrics = select_metrics(agg["layers"], spec["per_layer"])
    else:
        metrics = select_metrics(agg["e2e"], spec["end_to_end"])
    print_metrics(f"{args.workload} seed {args.seed} (threads {threads})",
                  metrics)
    print("checks:", json.dumps(agg["checks"]))
    result = {"correct": bool(agg["checks"]["ok"]),
              "attempted": agg["attempted"], "failed": agg["failed"],
              "metrics": metrics}
    print(json.dumps(result))


def smoke(spec, threads):
    t0 = time.time()
    ok = True
    for workload in WORKLOADS:
        agg = aggregate(run_bench(workload, 7, 3, True, threads, smoke=True,
                                  min_reps=1))
        try:
            select_metrics(agg["e2e"], spec["end_to_end"])
            select_metrics(agg["layers"], spec["per_layer"])
            units = all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
            passed = units and agg["checks"]["ok"] and agg["failed"] == 0
        except RuntimeError as e:
            log(str(e))
            passed = False
        ok = ok and passed
        print(f"{workload:14s} {'ok' if passed else 'FAILED'}  "
              f"checks {json.dumps(agg['checks'])}")
    print(f"smoke {'passed' if ok else 'FAILED'} in {time.time() - t0:.1f} s")
    return 0 if ok else 1


def provenance(threads, compiler_version):
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    for line in cache_file.read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True)
    return {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "git_dirty": bool(dirty.stdout.strip()) if dirty.returncode == 0 else None,
        "nproc": nproc(),
        "hadfl_num_threads": threads,
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} {compiler_version}",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "march_native": cache.get("HADFL_HAS_MARCH_NATIVE") == "1",
        "kernel": platform.release(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def agreement(runs, spec):
    """Largest relative disagreement between any two sets' medians, per
    end-to-end metric, against the metric's bound."""
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        worst = (max(values) - min(values)) / min(values) if min(values) else 0.0
        out[m["name"]] = {"max_disagreement": worst, "bound": m["bound"],
                          "within": worst <= m["bound"]}
    return out


def full(args, spec, threads):
    out = Path(args.out) if args.out else BUILD_DIR / "results.json"
    results = {"workloads": {w: {"runs": []} for w in WORKLOADS}}
    if args.append and out.exists():
        results = json.loads(out.read_text())
    compiler = "?"
    ok = True
    first_set = max(len(results["workloads"][w]["runs"]) for w in WORKLOADS)
    for s in range(first_set, first_set + args.sets):
        seed = args.seed + s - first_set
        for workload in WORKLOADS:
            summary = run_bench(workload, seed, args.seconds, False, threads)
            compiler = summary["compiler"]
            agg = aggregate(summary)
            ok = ok and agg["checks"]["ok"] and agg["failed"] == 0
            results["workloads"][workload]["runs"].append({
                "set": s, "seed": seed, "metrics": agg["e2e"],
                "quartiles": agg["spread"], "details": agg["details"],
                "attempted": agg["attempted"], "failed": agg["failed"],
                "hash": agg["hash"], "checks": agg["checks"]})
            print(f"set {s} {workload:14s} " + "  ".join(
                f"{k} {v:.5g}" for k, v in agg["e2e"].items()))
    for workload in WORKLOADS if args.traced else []:
        summary = run_bench(workload, args.seed, args.seconds, True, threads)
        compiler = summary["compiler"]
        agg = aggregate(summary)
        ok = ok and agg["checks"]["ok"]
        results["workloads"][workload]["traced"] = {
            "seed": args.seed, "layers": agg["layers"], "checks": agg["checks"]}
        layers = agg["layers"]
        parts = [k for k in BREAKDOWN if k in layers]
        print(f"traced {workload:14s} run_s {layers['run_s']:.4f} = " +
              " + ".join(f"{k} {layers[k]:.4f}" for k in parts) +
              f"  (overhead {100 * layers['trace.overhead_share']:+.1f}%)")
    for workload in WORKLOADS:
        runs = results["workloads"][workload]["runs"]
        if len(runs) >= 2:
            results["workloads"][workload]["agreement"] = agreement(runs, spec)
            for name, a in results["workloads"][workload]["agreement"].items():
                if not a["within"]:
                    print(f"{workload} {name}: sets disagree by "
                          f"{100 * a['max_disagreement']:.1f}% > bound "
                          f"{100 * a['bound']:.0f}%")
    results["provenance"] = provenance(threads, compiler)
    results["settings"] = {"seconds": args.seconds, "seed": args.seed}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}  ({'all checks passed' if ok else 'CHECKS FAILED'})")
    return 0 if ok else 1


def thread_scaling(args):
    """sim-resnet throughput, fleet-1m round rate and the GEMM probe at each
    thread count. Sets alternate the order of the counts, so a drift of the
    host's speed does not favour one count."""
    counts = [int(t) for t in args.threads.split(",")]
    keys = ["sim-resnet.samples_per_s", "fleet-1m.rounds_per_s",
            "tensor.gemm_gflops"]
    values = {t: {k: [] for k in keys} for t in counts}
    hashes = set()
    compiler = "?"
    for s in range(args.sets):
        for t in counts if s % 2 == 0 else counts[::-1]:
            resnet = run_bench("sim-resnet", args.seed, args.seconds, True, t)
            fleet = run_bench("fleet-1m", args.seed, args.seconds, False, t)
            compiler = resnet["compiler"]
            r, f = aggregate(resnet), aggregate(fleet)
            values[t]["sim-resnet.samples_per_s"].append(r["e2e"]["samples_per_s"])
            values[t]["fleet-1m.rounds_per_s"].append(f["e2e"]["rounds_per_s"])
            values[t]["tensor.gemm_gflops"].append(r["layers"]["tensor.gemm_gflops"])
            hashes.add((r["hash"], f["hash"]))
    rows = {}
    for t in counts:
        rows[str(t)] = {k: {"median": statistics.median(values[t][k]),
                            "sets": values[t][k],
                            "speedup": statistics.median(values[t][k]) /
                                       statistics.median(values[counts[0]][k])}
                        for k in keys}
        print(f"threads {t}: " + "  ".join(
            f"{k} {v['median']:.4g} ({v['speedup']:.2f}x)"
            for k, v in rows[str(t)].items()))
    same = len(hashes) == 1
    print("state hashes identical across thread counts:", same)
    out = Path(args.out) if args.out else BUILD_DIR / "threads.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "rows": rows,
        "hashes_identical": same,
        "provenance": provenance(",".join(map(str, counts)), compiler),
        "settings": {"seconds": args.seconds, "seed": args.seed,
                     "sets": args.sets}},
        indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction,
                        default=True, help="full mode: add a traced run per workload")
    parser.add_argument("--append", action="store_true",
                        help="full mode: add the sets to an existing --out file")
    parser.add_argument("--out", help="full and thread modes: results file")
    parser.add_argument("--threads", help="comma list of HADFL_NUM_THREADS values")
    args = parser.parse_args()

    spec = load_spec()
    try:
        build()
        if args.threads:
            return thread_scaling(args)
        threads = nproc()
        if args.smoke:
            return smoke(spec, threads)
        if args.workload:
            measured_run(args, spec, threads)
            return 0
        return full(args, spec, threads)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
