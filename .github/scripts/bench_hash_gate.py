#!/usr/bin/env python3
"""Fails unless every benchmark workload ends as it does at the merge base.

Builds `hadfl_bench` twice on this machine, once from the merge base of
BASE_REF and HEAD (extracted with `git archive`) and once from the working
tree, runs each workload with `--smoke --seed=7 --min-reps=1 --trace=0` on
both builds, and compares every repetition's deterministic outputs: the
state `hash` and the work counters `rounds`, `wire_kb_per_round` and
`failed_rounds`. The counters catch a change that moves bytes or rounds but
not the final state (a receiver rebuilds the same aggregate from a delta
leg and from a dense leg, for one). Building both sides on one machine
keeps the compiler and the ISA that `-march=native` picks the same on both.
The values are read from the JSON summary that `hadfl_bench` prints as its
last stdout line once every repetition has finished; a run that exits
non-zero or prints no summary fails its workload. The repetition count
follows the run's time budget, so the two sides may run a different number
of repetitions.

A change that moves these outputs on purpose adds a line that starts with
`Hash-change:` to CHANGES.md, naming the affected workloads, e.g.

    Hash-change: sim-resnet, fleet-1m

and those workloads are skipped. A mention of the marker inside other
text does not count.

    python3 .github/scripts/bench_hash_gate.py origin/main

Builds and outputs go to a new directory under the temp dir (TMPDIR).
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ["sim-resnet", "rt-mlp", "net-tcp-topk", "fleet-1m"]
RUN_FLAGS = ["--smoke", "--seed=7", "--min-reps=1", "--trace=0"]
# The repetition fields that must not move: the state hash and the work
# counters that are equal from run to run.
EXACT_FIELDS = ["hash", "rounds", "wire_kb_per_round", "failed_rounds"]


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def extract(repo, rev, dest):
    """Writes the tree of `rev` to `dest` (no .git, no worktree)."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", str(repo), "archive", rev], check=True,
                       stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def build(src, build_dir):
    """Builds hadfl_bench from `src` the way benchmark/run.py does."""
    log = build_dir.with_name(build_dir.name + ".log")
    with open(log, "w") as out:
        for step in (["cmake", "-S", str(src / "benchmark"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", str(build_dir), "--target",
                      "hadfl_bench", "-j", str(os.cpu_count() or 1)]):
            if subprocess.run(step, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.exit(f"build failed: {' '.join(step)} (see {log})")
    return build_dir / "hadfl_bench"


def outputs(binary, workload, out_dir):
    """Every repetition's EXACT_FIELDS as one tuple, in order; [] unless
    the run exited 0 and ended with its JSON summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary), f"--workload={workload}", *RUN_FLAGS,
                           f"--out-dir={out_dir}"], capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        print(f"  {binary} exited {proc.returncode}: {proc.stderr.strip()}")
        return []
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
        return [tuple(rep[f] for f in EXACT_FIELDS) for rep in summary["reps"]]
    except (IndexError, KeyError, TypeError, ValueError):
        print(f"  {binary} printed no JSON summary")
        return []


def tally(values):
    """'(hash=0xab.. rounds=2 ...) x3' — each distinct output with its
    count."""
    def show(v):
        return "(" + " ".join(f"{f}={x}" for f, x in zip(EXACT_FIELDS, v)) + ")"
    return ", ".join(f"{show(v)} x{values.count(v)}"
                     for v in sorted(set(values))) or "no output"


def hash_change_workloads(repo, base):
    """Workloads named on Hash-change: lines added to CHANGES.md."""
    diff = git(repo, "diff", base, "--", "CHANGES.md")
    named = set()
    for line in diff.splitlines():
        if line.startswith("+") and not line.startswith("+++"):
            m = re.match(r"\s*Hash-change:\s*(.*)", line[1:])
            if m:
                named.update(w for w in re.split(r"[\s,;`]+", m.group(1))
                             if w in WORKLOADS)
    return named


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="branch the change merges into")
    args = parser.parse_args()

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    base = git(repo, "merge-base", args.base_ref, "HEAD").strip()
    skipped = hash_change_workloads(repo, base)
    work = Path(tempfile.mkdtemp(prefix="bench-hash-gate-"))
    extract(repo, base, work / "base-src")
    print(f"merge base {base[:12]}; skipping {sorted(skipped) or 'none'}; "
          f"work dir {work}")

    binaries = {"base": build(work / "base-src", work / "base-build"),
                "head": build(repo, work / "head-build")}
    failures = 0
    for workload in WORKLOADS:
        if workload in skipped:
            print(f"SKIP  {workload} (Hash-change)")
            continue
        got = {side: outputs(binary, workload, work / f"{side}-out")
               for side, binary in binaries.items()}
        every = got["base"] + got["head"]
        ok = bool(got["base"]) and bool(got["head"]) and len(set(every)) == 1
        print(f"{'OK  ' if ok else 'FAIL'}  {workload}: base "
              f"{tally(got['base'])}; head {tally(got['head'])}")
        failures += not ok
    if failures:
        sys.exit(f"{failures} workload(s) failed or changed a state hash or "
                 "counter; name the workload on a Hash-change: line in "
                 "CHANGES.md if the change is intended")


if __name__ == "__main__":
    main()
