#!/usr/bin/env bash
# Line counts, the same way every time: ROADMAP item 2 and every PR that
# claims to shrink the code quote this output. Run from anywhere; pass a
# directory to count another checkout (`scripts/loc.sh target/ab/<rev>`).
#
# Per crate under crates/ and in total:
#   src      lines of src/**/*.rs up to each file's first `#[cfg(test)]`
#            at column 0 (src/bin included)
#   src-test the rest of those files: in-file unit tests
#   bin      the part of `src` that lives in src/bin/
#   tests    lines of tests/**/*.rs
#   benches  lines of benches/**/*.rs
#   total    src + src-test + tests + benches
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-18s %7s %8s %6s %6s %7s %7s\n' crate src src-test bin tests benches total
for crate in crates/*/; do
  find "$crate" -name '*.rs' -not -path '*/target/*' -print0 | sort -z |
    xargs -0 awk -v crate="$crate" '
      FNR == 1 { in_test = 0; rel = substr(FILENAME, length(crate) + 1) }
      rel ~ /^tests\// { tests++; next }
      rel ~ /^benches\// { benches++; next }
      rel !~ /^src\// { next }
      /^#\[cfg\(test\)\]/ { in_test = 1 }
      in_test { src_test++; next }
      { src++ }
      rel ~ /^src\/bin\// { bin++ }
      END {
        name = crate; sub(/^crates\//, "", name); sub(/\/$/, "", name)
        printf "%-18s %7d %8d %6d %6d %7d %7d\n", name, src, src_test, bin, tests, benches,
          src + src_test + tests + benches
      }'
done | awk '
  { print; for (i = 2; i <= NF; i++) sum[i] += $i }
  END { printf "%-18s %7d %8d %6d %6d %7d %7d\n", "total", sum[2], sum[3], sum[4], sum[5], sum[6], sum[7] }'
