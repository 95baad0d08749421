#!/usr/bin/env bash
# Counts each crate's non-test Rust lines: for every .rs file under the
# crate's src/, the lines before the file's first #[cfg(test)], leaving
# out blank lines and lines whose first non-space characters are //.
# Prints one line per file, then the crate's total.
#
#   scripts/count-lines.sh              # every crate
#   scripts/count-lines.sh serve dse    # just these (names under crates/)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  # shellcheck disable=SC2046 # crate names hold no spaces
  set -- $(cd crates && ls -d -- */src shims/*/src | sed 's#/src$##')
fi
for crate in "$@"; do
  src="crates/$crate/src"
  if [ ! -d "$src" ]; then
    echo "no crate '$crate' (no $src)" >&2
    exit 2
  fi
  total=0
  while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             /^[[:space:]]*(\/\/|$)/ { next }
             { n++ }
             END { print n + 0 }' "$file")
    printf '%7d  %s\n' "$n" "$file"
    total=$((total + n))
  done < <(find "$src" -name '*.rs' | sort)
  printf '%7d  %s (total)\n' "$total" "$crate"
done
