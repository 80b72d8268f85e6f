#!/usr/bin/env python3
"""Compares two benchmark results files (benchmark/run.py full mode) by the
rules of the benchmark's method:

  python3 benchmark/compare.py PARENT.json CHANGE.json [--claim METRIC:WORKLOAD ...]
  python3 benchmark/compare.py --self-test

* Each side's samples are its runs (one per set), paired in order: collect
  them alternately, parent then change, with the same seeds on both sides.
* A claimed (metric, workload) pair counts as a gain only if the change
  wins at least 9/10 of the pairs (ties count for neither side), there are
  at least 10 pairs, and the medians differ by more than the parent's
  interquartile range.
* Every other end-to-end (metric, workload) pair passes if the change's
  median is no worse than the parent's by more than the metric's bound in
  BENCHMARK.json. Where the parent's spread (IQR / median) exceeds the
  bound, the pair is "unresolved" unless every change run beats every
  parent run.
* The comparison fails if the share of failed operations grows.

Exit status: 0 when no pair regressed, every claim is met and the failed
share did not grow; 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True if `a` reads strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric, claimed):
    """Verdict for one (metric, workload) pair from the two sides' samples."""
    direction, bound = metric["better"], metric.get("bound")
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    row = {"parent_median": med_p, "change_median": med_c,
           "parent_quartiles": [q1, q3], "change_quartiles": list(quartiles(change))}
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(c, p, direction) for p, c in pairs)
        row["wins"] = f"{wins}/{len(pairs)}"
        reasons = []
        if len(pairs) < MIN_PAIRS:
            reasons.append(f"only {len(pairs)} pairs (need {MIN_PAIRS})")
        if wins < WIN_SHARE * len(pairs):
            reasons.append(f"won {wins}/{len(pairs)} pairs")
        if not (better(med_c, med_p, direction) and abs(med_c - med_p) > iqr):
            reasons.append("median gain not above the parent's IQR")
        row["verdict"] = "claim met" if not reasons else "claim NOT met: " + "; ".join(reasons)
        row["fail"] = bool(reasons)
        return row
    worse = (med_c - med_p) / med_p if direction == "lower" else (med_p - med_c) / med_p
    spread = iqr / med_p if med_p else 0.0
    all_better = all(better(c, p, direction) for p in parent for c in change)
    row["worse_share"] = worse
    if spread > bound and not all_better:
        row["verdict"] = f"unresolved (parent spread {100 * spread:.1f}% > bound {100 * bound:.0f}%)"
        row["fail"] = False
    elif worse > bound:
        row["verdict"] = f"REGRESSED by {100 * worse:.1f}% > bound {100 * bound:.0f}%"
        row["fail"] = True
    else:
        row["verdict"] = "ok"
        row["fail"] = False
    return row


def failed_share(results):
    attempted = failed = 0
    for w in results["workloads"].values():
        for run in w["runs"]:
            attempted += run["attempted"]
            failed += run["failed"]
    return failed / attempted if attempted else 0.0


def evaluate(parent, change, spec, claims):
    rows = []
    for workload, pw in parent["workloads"].items():
        cw = change["workloads"].get(workload)
        if cw is None or not pw["runs"] or not cw["runs"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in pw["runs"]]
            c = [r["metrics"][name] for r in cw["runs"]]
            row = judge(p, c, metric, (name, workload) in claims)
            row.update(workload=workload, metric=name)
            rows.append(row)
    share_p, share_c = failed_share(parent), failed_share(change)
    unknown = {c for c in claims if not any(
        (r["metric"], r["workload"]) == c for r in rows)}
    return {"rows": rows, "failed_share": [share_p, share_c],
            "failed_grew": share_c > share_p, "unknown_claims": sorted(unknown),
            "fail": any(r["fail"] for r in rows) or share_c > share_p or bool(unknown)}


def print_report(report, parent, change, spec):
    for row in report["rows"]:
        extra = f"  wins {row['wins']}" if "wins" in row else ""
        print(f"{row['workload']:14s} {row['metric']:16s} "
              f"parent {row['parent_median']:12.6g}  change {row['change_median']:12.6g}"
              f"{extra}  {row['verdict']}")
    for claim in report["unknown_claims"]:
        print(f"claim {claim[0]}:{claim[1]} names no measured pair")
    share_p, share_c = report["failed_share"]
    print(f"failed-operation share: parent {share_p:.4g}, change {share_c:.4g}"
          f"{'  GREW' if report['failed_grew'] else ''}")
    print("per-layer (traced runs, no bound):")
    for workload, pw in parent["workloads"].items():
        pl = pw.get("traced", {}).get("layers", {})
        cl = change["workloads"].get(workload, {}).get("traced", {}).get("layers", {})
        for m in spec["per_layer"]:
            a, b = pl.get(m["name"]), cl.get(m["name"])
            if a is None or b is None:
                continue
            ratio = f"{b / a:8.3f}x" if a else "        "
            print(f"  {workload:14s} {m['name']:26s} {a:12.6g} -> {b:12.6g} {ratio} {m['unit']}")
    print("FAIL" if report["fail"] else "PASS")


def self_test():
    """Checks each rule on synthetic results, against a fixed 10% bound."""
    spec = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.1}],
            "per_layer": []}

    def results(run_s, failed=0):
        runs = [{"metrics": {"run_s": v}, "attempted": 100, "failed": failed}
                for v in run_s]
        return {"workloads": {"w": {"runs": runs}}}

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in base]
    claim = {("run_s", "w")}
    cases = [
        ("unchanged passes", results(base), results(base), set(), False, "ok"),
        ("clear gain meets claim", results(base), results(faster), claim, False, "claim met"),
        ("8/10 wins misses claim", results(base),
         results(faster[:8] + [1.05, 1.06]), claim, True, "claim NOT met"),
        ("gain inside parent IQR misses claim", results(base),
         results([v - 0.005 for v in base]), claim, True, "claim NOT met"),
        ("too few pairs misses claim", results(base[:5]), results(faster[:5]),
         claim, True, "claim NOT met"),
        ("20% slower regresses", results(base), results([v * 1.2 for v in base]),
         set(), True, "REGRESSED"),
        ("noisy parent is unresolved", results([0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]),
         results([v * 1.05 for v in base]), set(), False, "unresolved"),
        ("noisy parent but every change run better", results([1.4, 1.9, 1.5, 1.8, 1.6, 1.7, 1.45, 1.85, 1.55, 1.75]),
         results(base), set(), False, "ok"),
        ("more failed operations fails", results(base), results(base, failed=1),
         set(), True, "ok"),
    ]
    ok = True
    for name, parent, change, claims, want_fail, want_verdict in cases:
        report = evaluate(parent, change, spec, claims)
        row = next(r for r in report["rows"] if r["metric"] == "run_s")
        passed = report["fail"] == want_fail and row["verdict"].startswith(want_verdict)
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {row['verdict']}"
              f" (comparison {'fails' if report['fail'] else 'passes'})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("PARENT.json and CHANGE.json are required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claims = set()
    for c in args.claim:
        metric, _, workload = c.partition(":")
        claims.add((metric, workload))
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    report = evaluate(parent, change, spec, claims)
    print_report(report, parent, change, spec)
    return 1 if report["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
