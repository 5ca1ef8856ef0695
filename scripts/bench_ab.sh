#!/usr/bin/env bash
# Interleaved same-host A/B of one benchmark workload: the working tree
# (the change) against another revision (the parent), through each side's
# own unmodified `benchmark/` harness.
#
#   scripts/bench_ab.sh <rev> <workload> [pairs=10] [seed=1]
#
# <rev> is exported with `git archive` into target/ab/<sha>/ (offline, and
# nothing to unregister afterwards), each side is built once into its own
# target directory, and every pair runs
#   gcache-perf --workload W --seed S --seconds <run_seconds> --trace 0
# once per side, alternating which side goes first. Before the runs it
# prints the length of each side's `Timer::calibrate` disassembly, with a
# warning when they differ (ROADMAP item 1(b)). Every run is printed
# as it finishes; then, for each end-to-end metric of BENCHMARK.json in
# its `better` direction: median and quartiles per side, the relative
# difference of the medians, pairs won and lost (ties count for neither)
# and whether every change run beats every parent run.
#
# Exits 1 if the sides disagree on `failed` or on `sim_ipc_gm` (which is
# exact: a deterministic simulator either reproduces it bit for bit or
# simulates something else). A speed difference never fails the script;
# judging it against the claim rule is the reader's job.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

[ $# -ge 2 ] || { sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
sha=$(git rev-parse --verify --quiet "$rev^{commit}") \
  || { echo "bench_ab: unknown revision $rev" >&2; exit 2; }
grep -q "\"name\": \"$workload\"" BENCHMARK.json \
  || { echo "bench_ab: BENCHMARK.json has no workload $workload" >&2; exit 2; }

ab=$PWD/target/ab
parent=$ab/${sha:0:12}
if [ ! -d "$parent" ]; then
  # Extract beside the final name and move it into place only once tar has
  # succeeded: an interrupted extraction must never pass for the parent.
  rm -rf "$parent.tmp"
  mkdir -p "$parent.tmp"
  git archive "$sha" | tar -x -C "$parent.tmp"
  mv "$parent.tmp" "$parent"
fi

# build <checkout> <target dir>: what benchmark/run.sh builds, once.
build() {
  (cd "$1" \
    && cargo build --release --offline --quiet --target-dir "$2" --manifest-path benchmark/Cargo.toml \
    && cargo build --release --offline --quiet --target-dir "$2" -p gcache-bench --bin sweep_server)
}
echo "==> building parent ${sha:0:12} and change (working tree)" >&2
build "$parent" "$ab/parent-target"
build "$PWD" "$ab/change-target"

# The calibrated metrics divide by the cost of benchmark/src/cal.rs's loop,
# whose codegen moves with unrelated changes elsewhere in the build. Two
# different disassembly lengths mean the sides time different loops.
cal_lines() {
  objdump -d -C "$ab/$1-target/release/gcache-perf" | awk '/Timer::calibrate>:/,/ret/' | wc -l
}
cal_parent=$(cal_lines parent) cal_change=$(cal_lines change)
echo "Timer::calibrate disassembly: parent $cal_parent lines, change $cal_change lines"
if [ "$cal_parent" != "$cal_change" ]; then
  echo "WARNING: the calibration loop compiled differently; host_cost and the calibrated rates are not comparable"
fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
# run <side> <checkout>: one run, its result line on standard output.
run() {
  (cd "$2" && "$ab/$1-target/release/gcache-perf" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 --out-dir "$ab/$1-out" 2>/dev/null | tail -n 1)
}
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then checkout=$parent; else checkout=$PWD; fi
    line=$(run "$side" "$checkout")
    printf '%s\t%s\t%s\n' "$pair" "$side" "$line" >> "$runs"
    printf 'pair %2d  %-6s  %s\n' "$pair" "$side" "$line"
  done
done

python3 - "$runs" "$workload" "$seed" "${sha:0:12}" <<'EOF'
import json, sys

runs_path, workload, seed, sha = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
sides = {"parent": [], "change": []}
for row in open(runs_path):
    _pair, side, line = row.rstrip("\n").split("\t")
    sides[side].append(json.loads(line))

def quantile(values, q):
    values = sorted(values)
    at = q * (len(values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (at - lo)

n = len(sides["parent"])
print(f"\n{workload}, seed {seed}: parent {sha} vs change (working tree), {n} pairs")
print(f"{'metric':<20} {'parent median [q1-q3]':>32} {'change median [q1-q3]':>32} "
      f"{'diff':>8} {'pairs':>16}  every run better")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    beats = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(beats(ci, pi) for ci, pi in zip(c, p))
    lost = sum(beats(pi, ci) for ci, pi in zip(c, p))
    clean = all(beats(ci, pi) for ci in c for pi in p)
    cell = lambda v: f"{quantile(v, .5):.4g} [{quantile(v, .25):.4g}-{quantile(v, .75):.4g}]"
    base = quantile(p, .5)
    diff = f"{(quantile(c, .5) - base) / base:+.1%}" if base else "n/a"
    print(f"{name:<20} {cell(p):>32} {cell(c):>32} {diff:>8} "
          f"{f'{won} won, {lost} lost':>16}  {'yes' if clean else 'no'}")

failed = {side: [r["failed"] for r in rs] for side, rs in sides.items()}
ipc = {r["metrics"]["sim_ipc_gm"]["value"] for rs in sides.values() for r in rs}
if failed["parent"] != failed["change"]:
    sys.exit(f"bench_ab: failed operations differ: parent {failed['parent']}, change {failed['change']}")
if len(ipc) != 1:
    sys.exit(f"bench_ab: sim_ipc_gm is not bit-equal across runs: {sorted(ipc)}")
print(f"failed {failed['change'][0]} on every run, sim_ipc_gm {ipc.pop()!r} on every run")
EOF
