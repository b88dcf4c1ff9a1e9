#!/usr/bin/env bash
# scripts/pairs.sh <parent-rev>|telemetry-off <workload> [pairs=10] [seconds=20] [first-seed]
#
# The ROADMAP pairs protocol (choosing-metrics §8) for one workload of the
# repo benchmark: builds `hotbench` once from a clean export of <parent-rev>
# and once from the working tree, then runs <pairs> parent/change pairs —
# pair i on seed first-seed + i, alternating which side goes first — and
# prints, after a header line naming the revision, the seeds and which of
# the CPU flags `sha_ni avx2 avx512f avx512bw` the host reports (they decide
# which crypto kernels both sides ran), per end-to-end metric of
# BENCHMARK.json both medians, both inter-quartile ranges, the pairs the
# change won and a verdict:
#
#   gain        the change won >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's IQR
#   worse       the change's median is worse by more than the metric's bound
#   identical   every pair tied (what the sim_* metrics must read)
#   unresolved  anything else: not shown to be better, not shown to be worse
#
# Both sides spin two threads, so compile nothing while a series runs; ten
# 20 s pairs take about seven minutes. Pick a first-seed no earlier series
# used (the default is the clock). Exits non-zero on a `worse` verdict or a
# run that reported wrong output.
#
# The parent is exported with `git archive` into a temporary directory
# (under $TMPDIR) that is removed on exit; nothing is registered in `.git`
# and nothing under `benchmark/` is written except its own `target/`.
#
# The telemetry-overhead reading (ROADMAP aim 4): pass the literal
# `telemetry-off` as <parent-rev> and the "parent" side is the working tree
# built with `--features hotcalls/telemetry-off` — same source, the
# telemetry plane compiled out — so `delta median` is what the
# instrumentation costs and the verdict reads the same way.
# PAIRS_RAW=file keeps every run's result line (pair, seed, side, JSON).
set -euo pipefail

usage="usage: scripts/pairs.sh <parent-rev>|telemetry-off <workload> [pairs=10] [seconds=20] [first-seed]"
parent="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seconds="${4:-20}"
first_seed="${5:-$(($(date +%s) % 1000000))}"
cd "$(dirname "$0")/.."
repo="$PWD"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
lines="${PAIRS_RAW:-$tmp/lines}"
: >"$lines"

if [[ "$parent" == telemetry-off ]]; then
    parent_sha=telemetry-off
    echo "building the working tree with hotcalls/telemetry-off" >&2
    cargo build --release --offline --quiet --features hotcalls/telemetry-off \
        --manifest-path "$repo/benchmark/Cargo.toml" --target-dir "$tmp/parent-target" >&2
else
    parent_sha="$(git rev-parse --short "$parent^{commit}")"
    echo "building parent $parent_sha" >&2
    mkdir "$tmp/parent"
    git archive "$parent_sha" | tar -x -C "$tmp/parent"
    cargo build --release --offline --quiet \
        --manifest-path "$tmp/parent/benchmark/Cargo.toml" --target-dir "$tmp/parent-target" >&2
fi
cp "$tmp/parent-target/release/hotbench" "$tmp/hotbench.parent"
rm -rf "$tmp/parent" "$tmp/parent-target"
echo "building the working tree" >&2
cargo build --release --offline --quiet \
    --manifest-path "$repo/benchmark/Cargo.toml" --target-dir "$repo/benchmark/target" >&2
cp "$repo/benchmark/target/release/hotbench" "$tmp/hotbench.change"

for i in $(seq 0 $((pairs - 1))); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $((i + 1))/$pairs seed $seed $side" >&2
        result="$("$tmp/hotbench.$side" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)"
        printf '%s\t%s\t%s\t%s\n' "$i" "$seed" "$side" "$result" >>"$lines"
    done
done

# Which crypto kernels this host can run (`sgx_sim::crypto` picks them from
# the same CPU flags): a series recorded without one of them measured the
# portable path there, so it reads "identical by construction", not "no gain".
kernels=""
for flag in sha_ni avx2 avx512f avx512bw; do
    if grep -qsw "$flag" /proc/cpuinfo; then kernels+=" $flag"; else kernels+=" no-$flag"; fi
done

python3 - "$lines" "$repo/BENCHMARK.json" "$parent_sha" "$workload" "$seconds" "${kernels# }" <<'PY'
import json, statistics, sys

lines, manifest, parent, workload, seconds, kernels = sys.argv[1:7]
metrics = json.load(open(manifest))["end_to_end"]
runs, seeds, bad_runs = {}, [], 0
failed = {"parent": [0, 0], "change": [0, 0]}
for line in open(lines):
    pair, seed, side, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    bad_runs += not result["correct"]
    failed[side][0] += result["failed"]
    failed[side][1] += result["attempted"]
    if side == "parent":
        seeds.append(int(seed))
    for name, m in result["metrics"].items():
        runs.setdefault(name, {"parent": [], "change": []})[side].append(m["value"])

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

print(f"`scripts/pairs.sh {parent} {workload}`: {len(seeds)} interleaved parent/change pairs, "
      f"`--seconds {seconds}`, seeds {seeds[0]}..{seeds[-1]}, alternating which side runs first; "
      f"`/proc/cpuinfo`: {kernels}.")
print("Median [lower quartile, upper quartile]; `won` = pairs in which the change read better.\n")
print("| metric | parent | change | delta median | parent IQR | bound | won | verdict |")
print("|---|---|---|---|---|---|---|---|")
worse = 0
for metric in metrics:
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    p, c = runs[name]["parent"], runs[name]["change"]
    mp, mc = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    won = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    delta = (mc - mp) / mp if mp else 0.0
    if won == 0 and lost == 0:
        verdict = "identical"
    elif 10 * won >= 9 * len(p) and sign * (mc - mp) < 0 and abs(mc - mp) > p3 - p1:
        verdict = "gain"
    elif sign * delta > bound:
        verdict = "worse"
        worse += 1
    else:
        verdict = "unresolved"
    iqr = (p3 - p1) / mp if mp else 0.0
    print(f"| {name} ({metric['unit']}) | {mp:.6g} [{p1:.6g}, {p3:.6g}] | {mc:.6g} [{c1:.6g}, {c3:.6g}] "
          f"| {delta:+.2%} | {iqr:.2%} | {bound:.0%} | {won}/{len(p)} | {verdict} |")
print()
for metric in metrics:
    p, c = runs[metric["name"]]["parent"], runs[metric["name"]]["change"]
    if p != c:
        print(f"{metric['name']} parent/change per pair: "
              + ", ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(p, c)))
print(f"\nfailed operations: parent {failed['parent'][0]} of {failed['parent'][1]}, "
      f"change {failed['change'][0]} of {failed['change'][1]}; "
      f"{bad_runs} runs reported a wrong output.")
sys.exit(1 if worse or bad_runs else 0)
PY
