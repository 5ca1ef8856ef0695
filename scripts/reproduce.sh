#!/usr/bin/env bash
# Regenerates the eleven committed results/*.txt at full scale (the
# EXPERIMENTS.md "Regenerating" loop) and diffs each binary's stdout
# against its committed file. Prints one line per binary with its wall
# time and `same` or `DIFF` (`FAILED` if the binary exited non-zero), and
# exits 1 unless every line says `same`. About six minutes on two
# hardware threads. Run from anywhere:
#
#   scripts/reproduce.sh
#
# The regenerated stdout is kept under target/reproduce/ for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/reproduce
rm -rf "$out" && mkdir -p "$out"
cargo build --release --workspace --quiet

status=0
for b in table1 table2 fig2 fig3_fig4 fig8_fig9 fig10 table3 ablation energy hierarchy mlsweep; do
  start=$(date +%s%N)
  if ./target/release/"$b" > "$out/$b.txt" 2>/dev/null; then
    if cmp -s "results/$b.txt" "$out/$b.txt"; then verdict=same; else verdict=DIFF; fi
  else
    verdict=FAILED
  fi
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  printf '%-10s %5d.%d s  %s\n' "$b" $((ms / 1000)) $((ms % 1000 / 100)) "$verdict"
  [ "$verdict" = same ] || status=1
done
exit "$status"
