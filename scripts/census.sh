#!/usr/bin/env bash
# Public surface nothing else uses. Prints `<file> <name>` for every
# `pub fn` / `pub const fn` and every `pub struct|enum|trait|type|const|
# static` declared in the non-test part of crates/*/src (up to a file's
# first `#[cfg(test)]` at column 0, as scripts/loc.sh counts) whose name
# no other .rs file in the repo mentions; benchmark/, tests/ and
# examples/ count as other files. Sorted bytewise. Such an item is
# private in waiting, test-only or dead.
#
#   scripts/census.sh
#
# scripts/check.sh compares the output with scripts/census.allow.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(git ls-files -co --exclude-standard '*.rs')
awk '
  FNR == 1 { in_test = 0; src = FILENAME ~ /^crates\/[^\/]+\/src\// }
  src && /^#\[cfg\(test\)\]/ { in_test = 1 }
  src && !in_test && match($0, /^[ \t]*pub ((const )?fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH)
    sub(/.* /, "", name)
    if (name != "fn") declared[FILENAME " " name] = name
  }
  {
    rest = $0
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(rest, RSTART, RLENGTH)
      if (!((word, FILENAME) in seen)) {
        seen[word, FILENAME] = 1
        files_naming[word]++
      }
      rest = substr(rest, RSTART + RLENGTH)
    }
  }
  END { for (d in declared) if (files_naming[declared[d]] == 1) print d }
' "${files[@]}" | LC_ALL=C sort
