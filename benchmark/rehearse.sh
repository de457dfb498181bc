#!/usr/bin/env bash
# Rehearse the benchmark the way its driver runs it: in a bare copy of
# the files git would commit (no target/, not a git repository), from
# that copy's root, with the exact `command` of BENCHMARK.json.
#
#   benchmark/rehearse.sh            every workload of BENCHMARK.json, both trace modes,
#                                    run_seconds each
#   benchmark/rehearse.sh --smoke    the same with --seconds 2 (all checks still on), and
#                                    the two workloads the runner knows beyond those
#
# Asserts: exit 0; the last stdout line is the result object with
# exactly the metrics BENCHMARK.json names for that mode, finite, with
# the declared units; every run after the first (which builds) ends
# within run_seconds + 5 s; the command fails without printing a result
# in a directory holding only BENCHMARK.json and benchmark/; and the
# repository itself is left as it was. Scratch space is $TMPDIR.
set -euo pipefail

smoke=0
[[ "${1:-}" == "--smoke" ]] && smoke=1
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/vpic-rehearse.XXXXXX")
trap 'rm -rf "$work"' EXIT
before=$(git -C "$repo" status --porcelain --ignored | sort | sha256sum)

mkdir "$work/checkout" "$work/bare"
git -C "$repo" ls-files -co --exclude-standard -z |
    tar -C "$repo" --null -T - -cf - | tar -C "$work/checkout" -xf -
cp "$work/checkout/BENCHMARK.json" "$work/bare/"
cp -r "$work/checkout/benchmark" "$work/bare/"

cd "$work/checkout"
export CARGO_TARGET_DIR=.bench_build
python3 - "$smoke" <<'PY'
import json, math, subprocess, sys, time

smoke = sys.argv[1] == "1"
spec = json.load(open("BENCHMARK.json"))
seconds = 2 if smoke else spec["run_seconds"]
names = {0: spec["end_to_end"], 1: spec["per_layer"]}
first = True
workloads = [w["name"] for w in spec["workloads"]]
if smoke:
    workloads += ["slab-field", "campaign-local"]
for seed, name in enumerate(workloads, start=1):
    for trace in (0, 1):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
        t = time.time()
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.time() - t
        tag = f"{name} --trace {trace}"
        assert p.returncode == 0, f"{tag}: exit {p.returncode}"
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, tag
        assert result["correct"] is True and result["attempted"] >= 1, tag
        want = {m["name"]: m["unit"] for m in names[trace]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"{tag}: metrics differ: {set(got) ^ set(want)}"
        for k, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), f"{tag}: {k}"
        if trace == 0:
            zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
            assert not zero, f"{tag}: end-to-end metrics read 0: {zero}"
        if not (smoke or first):
            assert wall <= seconds + 5, f"{tag}: took {wall:.1f} s"
        first = False
        print(f"ok  {tag:32s} {wall:6.1f} s  attempted {result['attempted']}", flush=True)
PY

cd "$work/bare"
if out=$(python3 -c 'import json,subprocess,sys; sys.exit(subprocess.run(json.load(open("BENCHMARK.json"))["command"] + ["--workload","uniform-push","--seed","1","--seconds","2","--trace","0"]).returncode)' 2>/dev/null); then
    echo "the command succeeded without the program's sources" >&2
    exit 1
fi
if grep -q '"correct"' <<<"$out"; then
    echo "the command printed a result without the program's sources" >&2
    exit 1
fi
echo "ok  fails cleanly without the program's sources"

after=$(git -C "$repo" status --porcelain --ignored | sort | sha256sum)
[[ "$before" == "$after" ]] || { echo "the rehearsal changed files in $repo" >&2; exit 1; }
echo "rehearsal passed"
