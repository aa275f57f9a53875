#!/usr/bin/env bash
# Same-code A/A: run the full untraced set twice and compare the two sets
# the way the benchmark's driver does.
#
#   benchmark/aa.sh [runs-per-workload-per-set]     (default 10)
#
# For every workload x end-to-end metric it prints the two medians, their
# ratio, each set's spread (interquartile range over median, across seeds)
# and the bound from BENCHMARK.json, and exits 1 if set B's median is worse
# than set A's by more than the bound or a spread exceeds it. `setup_s` is
# held to the median rule only, as in the driver. Run it from anywhere; it
# builds into the package's own target directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-10}"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
cd "$here/.."

exec python3 - "$target/release/zcorba-benchmark" "$runs" <<'PY'
import json, statistics, subprocess, sys

binary, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
seconds = spec["run_seconds"]

def one(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

failures = []
print(f"{'workload':<22}{'metric':<16}{'median A':>14}{'median B':>14}"
      f"{'B/A':>8}{'spread A':>10}{'spread B':>10}{'bound':>7}")
for w in (w["name"] for w in spec["workloads"]):
    # Set A on seeds 1..n, set B on n+1..2n: no seed is used twice.
    sets = [[one(w, s) for s in range(base + 1, base + runs + 1)]
            for base in (0, runs)]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r[name] for r in rs] for rs in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_a - med_b if m["better"] == "higher" else med_b - med_a) / med_a
        spreads = (spread(a), spread(b))
        verdict = ""
        if worse > bound:
            verdict = "  MEDIAN MOVED"
        elif name != "setup_s" and max(spreads) > bound:
            verdict = "  SPREAD WIDE"
        if verdict:
            failures.append(f"{w} {name}{verdict}")
        print(f"{w:<22}{name:<16}{med_a:>14.4f}{med_b:>14.4f}{med_b / med_a:>8.3f}"
              f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{bound:>7.2f}{verdict}", flush=True)
if failures:
    sys.exit("A/A failed:\n  " + "\n  ".join(failures))
print("A/A passed: every pair of medians and every spread is within its bound")
PY
