#!/usr/bin/env bash
# A/A check: is the benchmark steady enough to judge a change with?
#
#   benchmark/aa.sh [runs-per-set [workload ...]]   (default 5 runs, every workload of
#                                                    BENCHMARK.json; the contract's own
#                                                    check uses 10; slab-field and
#                                                    campaign-local run when named)
#
# For every workload, two sets (A, B) of runs of the same build, taken
# alternately (A B B A ...), each run on a fresh seed, with the exact
# `command` of BENCHMARK.json from the repo root. Prints, per end-to-end
# metric, each set's median and quartiles, its spread (interquartile
# distance over median, as statistics.quantiles(n=4) gives it) and how
# much worse B's median is than A's; and, for the time-based metrics, the
# spread of the same runs' uncorrected wall-clock values (src/hostspeed.rs),
# which is what the host correction is there to beat. Fails when a spread
# (setup_s excepted) or a worsening exceeds the metric's bound. The output
# is the Markdown table in BASELINE.md; every run's full output (round and
# set-up times) is kept in benchmark/scratch/aa-runs.log.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - "${@:-5}" <<'PY'
import json, os, re, statistics, subprocess, sys

n = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
only = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
seconds = spec["run_seconds"]
os.makedirs("benchmark/scratch", exist_ok=True)
log = open("benchmark/scratch/aa-runs.log", "w")

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    log.write(out)  # every run's round and set-up times, for a post-mortem
    log.flush()
    values = {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()}
    wall = re.search(r"by the wall clock: (.*)", out).group(1)
    values.update(("wall " + k, float(v)) for k, v in re.findall(r"(\w+) = ([0-9.e+-]+)", wall))
    return values

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

bad = []
print(f"| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | bound | wall-clock spread A, B |")
print("|---|---|---|---|---|---|---|---|---|")
seed = 1000
for w in only:
    sets = {"A": [], "B": []}
    for i in range(n):
        for side in ("AB" if i % 2 == 0 else "BA"):
            seed += 1
            sets[side].append(run(w, seed))
    for m in spec["end_to_end"]:
        a = summary([r[m["name"]] for r in sets["A"]])
        b = summary([r[m["name"]] for r in sets["B"]])
        worse = (a[0] - b[0]) / a[0] if m["better"] == "higher" else (b[0] - a[0]) / a[0]
        cell = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
        wall = "wall " + m["name"]
        raw = ", ".join(f"{summary([r[wall] for r in sets[s]])[3]:.4f}" for s in "AB") if wall in sets["A"][0] else ""
        print(f"| {w} | {m['name']} ({m['unit']}) | {cell(a)} | {a[3]:.4f} | {cell(b)} | {b[3]:.4f} "
              f"| {worse:+.4f} | {m['bound']} | {raw} |", flush=True)
        if m["name"] != "setup_s" and max(a[3], b[3]) > m["bound"]:
            bad.append(f"{w} {m['name']}: spread {max(a[3], b[3]):.4f} > bound {m['bound']}")
        if worse > m["bound"]:
            bad.append(f"{w} {m['name']}: B worse than A by {worse:.4f} > bound {m['bound']}")
if bad:
    print("\nA/A check FAILED:\n  " + "\n  ".join(bad))
    sys.exit(1)
print(f"\nA/A check passed: {n} runs per set, {seconds} s each.")
PY
