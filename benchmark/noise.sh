#!/usr/bin/env bash
# benchmark/noise.sh K [SECONDS] — is the benchmark steady enough to gate on?
#
# Builds once, then runs two interleaved sets (A B A B ...) of K full runs of
# every workload with the same binary: run i of either set uses seed i, so the
# two sets see the same inputs and differ only in when they ran. For each
# workload x end-to-end metric it prints both set medians, their relative gap,
# each set's spread (inter-quartile range / median, statistics.quantiles n=4,
# needs K >= 2) and the metric's bound, as Markdown. Exits non-zero if a gap
# or a spread (setup_s spread excepted) exceeds its bound.
#
#   benchmark/noise.sh 10 > benchmark/NOISE.md
#
# NOISE_RAW=file keeps every run's result line (set, workload, JSON) there.
set -euo pipefail

K="${1:?usage: benchmark/noise.sh K [SECONDS]}"
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/hotbench"
seconds="${2:-$(grep -o '"run_seconds":[0-9]*' "$here/../BENCHMARK.json" | cut -d: -f2)}"
if [ -n "${NOISE_RAW:-}" ]; then
  lines="$NOISE_RAW"
  : >"$lines"
else
  lines="$(mktemp)"
  trap 'rm -f "$lines"' EXIT
fi

for i in $(seq 1 "$K"); do
  for set in A B; do
    for workload in rt_call rt_pipe kv_memtier store_stream; do
      echo "run $i/$K set $set $workload" >&2
      result="$("$bin" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)"
      printf '%s\t%s\t%s\n' "$set" "$workload" "$result" >>"$lines"
    done
  done
done

python3 - "$lines" "$here/../BENCHMARK.json" "$K" "$seconds" <<'PY'
import json, statistics, sys

lines, manifest, k, seconds = sys.argv[1:5]
manifest = json.load(open(manifest))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
runs = {}
bad_runs = 0
for line in open(lines):
    which, workload, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    bad_runs += not result["correct"]
    for name, m in result["metrics"].items():
        runs.setdefault((workload, name), {"A": [], "B": []})[which].append(m["value"])

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"# Noise of the benchmark on this host\n")
print(f"`benchmark/noise.sh {k}`: two interleaved sets of {k} runs per workload, "
      f"`--seconds {seconds}`, seeds 1..{k}, one build.")
print("`gap` is (median B - median A) / median A; `spread` is IQR / median within a set.\n")
print("| workload | metric | median A | median B | gap | spread A | spread B | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
failures = 0
for w in [x["name"] for x in manifest["workloads"]]:
    for name, bound in bounds.items():
        a, b = runs[(w, name)]["A"], runs[(w, name)]["B"]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma
        sa, sb = spread(a), spread(b)
        over = abs(gap) > bound or (name != "setup_s" and max(sa, sb) > bound)
        failures += over
        verdict = "OVER" if over else ("ok" if max(sa, sb) <= bound / 3 or name == "setup_s" else "ok (spread > bound/3)")
        print(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {gap:+.2%} | {sa:.2%} | {sb:.2%} | {bound:.0%} | {verdict} |")
print(f"\n{failures} of {4 * len(bounds)} workload x metric pairs over their bound; "
      f"{bad_runs} runs reported a wrong output.")
sys.exit(1 if failures or bad_runs else 0)
PY
