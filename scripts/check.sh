#!/usr/bin/env bash
# Full local gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# What the gate measures along the way (line counts) is kept here; CI
# uploads the directory instead of measuring twice.
kept=target/check
rm -rf "$kept" && mkdir -p "$kept"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> one JSON writer (no hand-formatted JSON object outside json.rs)"
# `{{\"` is how a format string opens a JSON object; gcache_core::json's
# JsonWriter is the only thing that may write one.
if grep -rn '{{\\"' crates/*/src | grep -v '^crates/gcache-core/src/json.rs:'; then
  echo "hand-formatted JSON: write it with gcache_core::json::JsonWriter"; exit 1
fi

echo "==> one port view, one gated array, one perf ledger, no settle protocol, six policy hooks, one format per artifact"
# system.rs hands out one borrowed view type (`Port`); a second one is a
# second place that decides "lane or mesh node, and which destination".
views=$(grep -c '^pub struct [A-Za-z0-9_]*<'"'"'a' crates/gcache-sim/src/system.rs) || true
[ "$views" -eq 1 ] \
  || { echo "system.rs declares $views borrowed view structs, expected exactly one (Port)"; exit 1; }
if grep -rn 'ClockedWith' crates/; then
  echo "ClockedWith is gone: CoreComplex and Gated have inherent tick/is_idle/next_event"; exit 1
fi
if grep -n '^\[\[bench\]\]' crates/gcache-bench/Cargo.toml; then
  echo "speed is measured by benchmark/ (bash benchmark/run.sh), not by a bench target"; exit 1
fi
# A skipped station or core has nothing to catch up on: no counter needs
# settling across the cycles the run loop elides.
if grep -rnE 'fn settle|counted_to|note_blocked|has_ldst_head' crates/; then
  echo "the settle protocol is gone: count nothing a skipped cycle would have to replay"; exit 1
fi
# A primitive is a Codec like any other value: a typed writer or reader
# method beside put/get is a second wire layout to keep in step.
if grep -nE 'pub fn (u8|u16|u32|u64|usize|bool|f64)\(' crates/gcache-core/src/snapshot.rs; then
  echo "one way to write a value: \`w.put\` / \`r.get\`"; exit 1
fi
# A policy decides through name, on_access, on_hit, fill_decision,
# on_insert and on_epoch; the bypass and copy-back planes around it are
# CacheConfig fields, not hooks or a wrapper type.
if grep -rnE 'fn (on_evict|evict_decision|on_set_access|observe_access)\b|enum EvictDecision|struct WriteDiscipline' \
     crates/*/src; then
  echo "the policy interface is six hooks"; exit 1
fi
# Fleet status is the status.json document and telemetry is CSV: a
# second rendering of either (or a parser for one) has no reader.
if grep -rnE 'fn (prometheus|parse_csv|telemetry_json)\b|"/metrics"\)? *(=>|\|)' crates/*/src \
   || grep -nE 'fn (write_json|to_json)\b' crates/gcache-sim/src/telemetry.rs; then
  echo "one format per observability artifact"; exit 1
fi

echo "==> census: no new file-local pub fn (scripts/census.sh vs scripts/census.allow)"
# A `pub fn` no other file names is surface nothing uses. The allow-list
# only shrinks: a new one fails, and so does a listed one that has since
# been deleted, made private or found a caller elsewhere.
census=$(scripts/census.sh)
allowed=$(grep -v '^#' scripts/census.allow)
new=$(LC_ALL=C comm -23 <(echo "$census") <(echo "$allowed"))
gone=$(LC_ALL=C comm -13 <(echo "$census") <(echo "$allowed"))
if [ -n "$new" ]; then
  echo "$new" | sed 's/^/   file-local pub fn: /'
  echo "make it private, move it under #[cfg(test)] or delete it"; exit 1
fi
if [ -n "$gone" ]; then
  echo "$gone" | sed 's/^/   no longer file-local: /'
  echo "delete these lines from scripts/census.allow"; exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> golden-output equivalence (release binaries vs tests/golden)"
# The same byte-compare the gcache-bench integration test performs in the
# debug profile, repeated here against the release binaries: optimization
# level must never change a simulated number.
for exp in fig2 energy fig8_fig9 table3 fig10 ablation fig3_fig4 hierarchy; do
  diff "crates/gcache-bench/tests/golden/${exp}_quick.txt" \
       <(./target/release/"$exp" --quick --bench BFS,CFD,STL 2>/dev/null) \
    || { echo "golden mismatch: $exp"; exit 1; }
done

echo "==> usage-error smoke (a flag a binary does not honour exits 2, prints nothing)"
# fig2 runs the flat machine only: accepting --hierarchy would print the
# flat numbers under a shape it never read.
status=0
out=$(./target/release/fig2 --quick --hierarchy c4 2>/dev/null) || status=$?
[ "$status" -eq 2 ] && [ -z "$out" ] \
  || { echo "fig2 --hierarchy c4: expected exit 2 and empty stdout, got $status"; exit 1; }

echo "==> ML plane-sweep golden (release mlsweep --quick vs tests/golden)"
# mlsweep runs its own GEMM/CONV/ATTN registry, so no --bench filter.
diff crates/gcache-bench/tests/golden/mlsweep_quick.txt \
     <(./target/release/mlsweep --quick 2>/dev/null) \
  || { echo "golden mismatch: mlsweep"; exit 1; }

echo "==> Table 1 at paper scale (release table1 vs results/table1.txt)"
# Every golden above is --quick. This is the gate's look at the
# paper-scale op streams: op counts, transactions per memory op and
# footprints of four warps per kernel, in under a second.
diff results/table1.txt <(./target/release/table1 2>/dev/null) \
  || { echo "paper-scale op streams moved: table1"; exit 1; }

echo "==> fast-forward differential (release, --no-fast-forward vs golden)"
# Ticking every cycle must reproduce the same bytes the fast-forwarding
# golden was captured with.
diff crates/gcache-bench/tests/golden/fig8_fig9_quick.txt \
     <(./target/release/fig8_fig9 --quick --bench BFS,CFD,STL --no-fast-forward 2>/dev/null) \
  || { echo "fast-forward divergence: fig8_fig9"; exit 1; }

echo "==> checkpoint round-trip (fig2 --checkpoint/--resume, release)"
# Periodic snapshotting must be passive (no output byte changes), and an
# interrupted run resumed from its checkpoints must reproduce the
# uninterrupted bytes. The kill is timeout-based: if the host is fast
# enough that the run completes first, the resume leg degenerates to a
# fresh run and the diff still gates byte-identity.
ckdir=$(mktemp -d)
./target/release/fig2 --quick 2>/dev/null > "$ckdir/straight.txt"
./target/release/fig2 --quick --checkpoint "$ckdir/ck" --checkpoint-every 1500 \
  2>/dev/null > "$ckdir/hooked.txt"
diff "$ckdir/straight.txt" "$ckdir/hooked.txt" \
  || { echo "checkpoint hooks changed fig2 output"; rm -rf "$ckdir"; exit 1; }
# Subshell + stderr redirect keeps the shell's "Killed" notice quiet.
(timeout -s KILL 1 ./target/release/fig2 --quick \
  --checkpoint "$ckdir/ck" --checkpoint-every 800 >/dev/null 2>&1 || true) 2>/dev/null
if ls "$ckdir"/ck.*.ckpt >/dev/null 2>&1; then
  ./target/release/fig2 --quick --checkpoint "$ckdir/ck" --resume "$ckdir/ck" \
    2> "$ckdir/resume.err" > "$ckdir/resumed.txt"
  grep -q "resuming" "$ckdir/resume.err" \
    || { echo "checkpoint files present but nothing resumed"; rm -rf "$ckdir"; exit 1; }
else
  echo "   (run finished before the kill; resume leg runs fresh)"
  ./target/release/fig2 --quick --checkpoint "$ckdir/ck" --resume "$ckdir/ck" \
    2>/dev/null > "$ckdir/resumed.txt"
fi
diff "$ckdir/straight.txt" "$ckdir/resumed.txt" \
  || { echo "resumed fig2 output diverged"; rm -rf "$ckdir"; exit 1; }
rm -rf "$ckdir"

echo "==> sweep-server kill-resume smoke (worker abort + coordinator SIGKILL)"
./scripts/kill_resume_smoke.sh | sed 's/^/   /'
# The same contract as an integration test, in release: `cargo test
# --workspace` above ran it in debug, where the sweep is five times
# slower and a kill that depends on timing cannot miss.
cargo test --release -q -p gcache-bench --test sweep_server_kill_resume | sed 's/^/   /'

echo "==> status-endpoint smoke (live /status.json during a sweep)"
# The curl-equivalent probe lives in the observability integration test:
# it spawns the real sweep_server binary, reads the bound port from the
# startup log record, and GETs status.json (and a 404) while workers run.
cargo test -q -p gcache-bench --test observability status_endpoint_serves_live_sweep \
  | sed 's/^/   /'

echo "==> trace export smoke (Chrome trace_event JSON, quick BFS)"
# The emitted timeline must parse and carry G-Cache switch-flip instants
# (acceptance: viewable in ui.perfetto.dev, not just countable).
trace_json=$(mktemp)
./target/release/fig8_fig9 --quick --bench BFS --trace-out "$trace_json" >/dev/null 2>&1
python3 - "$trace_json" <<'EOF' || { rm -f "$trace_json"; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
flips = [e for e in doc["traceEvents"]
         if e.get("ph") == "i" and e["name"].startswith("switch ")]
assert flips, "no switch-flip instant events in the exported trace"
print(f"    {len(doc['traceEvents'])} trace events, {len(flips)} switch flips")
EOF
rm -f "$trace_json"

echo "==> benchmark package (offline build + harness self-tests)"
# Tier-1 never builds benchmark/, and it links gcache-{core,sim,workloads,
# bench} through their public API: an API break against it fails here.
# Perf questions go to `bash benchmark/run.sh`, not to this gate. Both
# steps share run.sh's target directory (benchmark/.cargo/config.toml).
CARGO_TARGET_DIR=target/perf cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q) | sed 's/^/   /'

echo "==> paper-scale smoke (one sensitive_full, insensitive_full and cluster_ml pass through the benchmark)"
# The 8 cache-sensitive kernels at paper scale under BS and GC, where the
# L1 controller and the mesh do the work, the 5 memory-bound streaming
# kernels, where the L2 and the DRAM scheduler do, and the clustered ML
# kernels, the only workload that runs the L1.5, the crossbars and the
# policy planes, once each: the benchmark's own output check, the exact
# simulated IPC, and the peak resident set, which is what a warp program
# that stockpiles its ops moves first (75 MB when every generator did,
# 11.6 MB streaming).
for smoke in "sensitive_full 1.5070255171022573" "insensitive_full 0.8470923939763924" \
             "cluster_ml 1.7378452463558949"; do
  read -r workload ipc <<< "$smoke"
  result=$(target/perf/release/gcache-perf --workload "$workload" --quick --trace 0 2>/dev/null | tail -n 1)
  python3 - "$workload" "$ipc" "$result" <<'EOF'
import json, sys
workload, ipc, line = sys.argv[1:]
result = json.loads(line)
metric = lambda name: result["metrics"][name]["value"]
assert result["correct"] is True and result["failed"] == 0, result
assert metric("sim_ipc_gm") == float(ipc), (workload, metric("sim_ipc_gm"))
assert metric("peak_rss_mb") < 25, (workload, metric("peak_rss_mb"))
print(f"    {workload}: {result['attempted']} points, sim_ipc_gm {metric('sim_ipc_gm')}, "
      f"peak_rss_mb {metric('peak_rss_mb'):.1f}")
EOF
done

echo "==> sampling profile smoke (scripts/profile.sh grid_smoke 2)"
# The profiler every speed claim cites must still build, sample and
# symbolize: enough samples, and the simulator's run loop on the stack.
profile=$(scripts/profile.sh grid_smoke 2)
samples=$(sed -n '1s/^grid_smoke: \([0-9]*\) samples$/\1/p' <<< "$profile")
[ "${samples:-0}" -ge 100 ] \
  || { echo "$profile"; echo "profile.sh: ${samples:-no} samples, expected at least 100"; exit 1; }
# grep reads to the end (no -q): under pipefail, a grep that quits at its
# first match can leave sed writing into a closed pipe (status 141).
sed -n '/^by inclusive time$/,$p' <<< "$profile" | grep 'gcache_sim::gpu::Gpu::run_kernel$' >/dev/null \
  || { echo "$profile"; echo "profile.sh: Gpu::run_kernel is not among the inclusive rows"; exit 1; }
echo "    $samples samples, Gpu::run_kernel on the stack"

echo "==> telemetry smoke (per-epoch switch-on fraction, GC design)"
# BFS is contention-heavy: its G-Cache switches must open in some interval.
# STL is pure streaming with no reuse to protect: its switches stay shut.
tele_csv=$(mktemp)
./target/release/fig8_fig9 --quick --bench BFS,STL --telemetry "$tele_csv" >/dev/null 2>&1
# The column is looked up by name in the header row, so a column added
# before it cannot silently re-point the gate at another series.
awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "switch_on_frac") col = i; next }
  col && $col > m[$1] + 0 { m[$1] = $col }
  END {
    if (!col) { print "telemetry: no switch_on_frac column in the header"; exit 1 }
    if (m["BFS"] + 0 <= 0) { print "telemetry: BFS switch_on_frac never nonzero"; exit 1 }
    if (m["STL"] + 0 > 0.01) { print "telemetry: STL switch_on_frac " m["STL"] " (expected ~0)"; exit 1 }
    printf "    BFS max switch_on_frac %.3f, STL %.3f\n", m["BFS"] + 0, m["STL"] + 0
  }' "$tele_csv" || { rm -f "$tele_csv"; exit 1; }
rm -f "$tele_csv"

echo "==> line counts (scripts/loc.sh; ROADMAP item 2 quotes these)"
./scripts/loc.sh | tee "$kept/loc.txt" | sed 's/^/   /'

echo "==> all checks passed"
