#!/usr/bin/env bash
# A sampling profile of one benchmark workload, with nothing but cc, nm
# and python3:
#
#   scripts/profile.sh <workload> [seconds=10]
#
# Builds benchmark/ (and the sweep_server it drives) with frame pointers
# and line tables into target/prof, compiles scripts/sigprof.c into an
# LD_PRELOAD shim, runs
#   gcache-perf --workload W --seconds S --trace 0
# under it and prints, per function, the share of samples it was running
# in (self) and on the stack for (inclusive). Every process of the run
# writes target/prof/samples/sigprof.<pid>; addresses are symbolized with
# `nm` against each mapped file's load base (its offset-0 mapping). The
# timer fires at most once per kernel tick, so a run collects about HZ
# samples per CPU-second; inlined functions count as their caller.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

[ $# -ge 1 ] || { sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }
workload=$1 seconds=${2:-10}

prof=$PWD/target/prof
export CARGO_TARGET_DIR=$prof
export RUSTFLAGS="-C force-frame-pointers=yes"
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet -p gcache-bench --bin sweep_server
cc -O2 -shared -fPIC -o "$prof/sigprof.so" scripts/sigprof.c

samples=$prof/samples
rm -rf "$samples" && mkdir -p "$samples"
SIGPROF_OUT=$samples/sigprof LD_PRELOAD=$prof/sigprof.so \
  "$prof/release/gcache-perf" --workload "$workload" --seconds "$seconds" --trace 0 \
  --out-dir "$prof/out" > /dev/null

python3 - "$workload" "$samples" <<'EOF'
import bisect, collections, os, re, subprocess, sys

workload, samples = sys.argv[1:]
symbols = {}

def symbol_table(path):
    """(sorted addresses, names) of the text symbols `nm` finds in path;
    the dynamic ones of a stripped library."""
    if path not in symbols:
        addrs, names = [], []
        for dynamic in ([], ["-D"]):
            nm = subprocess.run(["nm", "-C", "-n", "--defined-only", *dynamic, path],
                                capture_output=True, text=True)
            for line in nm.stdout.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    addrs.append(int(parts[0], 16))
                    names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2]))
            if addrs:
                break
        symbols[path] = (addrs, names)
    return symbols[path]

def is_pie(path):
    with open(path, "rb") as f:
        return f.read(18)[16] == 3  # ET_DYN: linked at 0, relocated at load

total = 0
self_count, incl_count = collections.Counter(), collections.Counter()
for name in sorted(os.listdir(samples)):
    lines = open(os.path.join(samples, name)).read().splitlines()
    cut = lines.index("samples")
    maps, base = [], {}
    for line in lines[:cut]:
        f = line.split(None, 5)
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        if int(f[2], 16) == 0:
            base.setdefault(f[5], lo)
        if "x" in f[1]:
            maps.append((lo, hi, f[5]))
    maps.sort()
    starts = [m[0] for m in maps]

    def resolve(ip):
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= maps[i][1]:
            return "[unknown]"
        path = maps[i][2]
        off = ip - base.get(path, 0) if is_pie(path) else ip
        addrs, names = symbol_table(path)
        j = bisect.bisect_right(addrs, off) - 1
        return names[j] if j >= 0 else f"[{os.path.basename(path)}]"

    for line in lines[cut + 1:]:
        ips = [int(x, 16) for x in line.split()]
        # A return address points past its call: step back into the call.
        frames = [resolve(ip if k == 0 else ip - 1) for k, ip in enumerate(ips)]
        total += 1
        self_count[frames[0]] += 1
        incl_count.update(set(frames))

print(f"{workload}: {total} samples")
if total == 0:
    sys.exit("profile.sh: no samples")
share = lambda n: f"{100 * n / total:5.1f} %"
print("\nby self time")
for fn, n in self_count.most_common(25):
    print(f"  self {share(n)}  inclusive {share(incl_count[fn])}  {fn}")
print("\nby inclusive time")
for fn, n in incl_count.most_common(40):
    print(f"  inclusive {share(n)}  self {share(self_count[fn])}  {fn}")
EOF
