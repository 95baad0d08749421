#!/usr/bin/env bash
# Runs the repository's checks, one area at a time. CI runs one area per
# job; with no argument every area runs, in order.
#
#   scripts/kick-tires.sh               # every area
#   scripts/kick-tires.sh serve trace   # just these
#
# Area NAME is scripts/kick-tires/NAME.sh; lib.sh holds what they share.
set -euo pipefail
cd "$(dirname "$0")/.."

areas=(check bench docs serve tune frontier metrics trace watch mixed cluster)
[ $# -gt 0 ] || set -- "${areas[@]}"
for area in "$@"; do
  if [[ " ${areas[*]} " != *" $area "* ]]; then
    echo "unknown area '$area'; the areas are: ${areas[*]}" >&2
    exit 2
  fi
done
for area in "$@"; do
  echo "== kick-tires: $area"
  bash "scripts/kick-tires/$area.sh"
done
echo "== kick-tires: passed: $*"
