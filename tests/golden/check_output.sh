#!/usr/bin/env sh
# Runs one pinned program output and compares it byte for byte.
#
# Each directory under tests/golden/outputs/ pins one run:
#   cmd     one line: a binary path relative to the build tree, then its
#           flags (split on whitespace; paths in them are relative)
#   stdout  the run's standard output, when it is pinned
#   <file>  any file the run writes into its working directory
# Only the files present in the directory are compared, so a run whose
# stdout is not deterministic (run_campaign's progress lines) pins its
# CSV alone. The run executes in a fresh temporary directory, so relative
# output paths, and the stdout lines that echo them, stay stable.
#
# Usage:  check_output.sh check|regen BUILD_DIR OUTPUT_DIR
#   check  exits 1 and prints a diff if any pinned file differs
#   regen  overwrites the pinned files with this run's bytes
set -eu

if [ "$#" -ne 3 ]; then
  echo "usage: check_output.sh check|regen BUILD_DIR OUTPUT_DIR" >&2
  exit 2
fi
mode=$1
build=$2
golden=$3
case "$mode" in
  check|regen) ;;
  *) echo "check_output.sh: unknown mode '$mode'" >&2; exit 2 ;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

read -r binary args < "$golden/cmd"
set -f  # the flags are split on whitespace, never globbed
# shellcheck disable=SC2086
(cd "$work" && "$build/$binary" $args > stdout)
set +f

status=0
for expected in "$golden"/*; do
  name=$(basename "$expected")
  [ "$name" = cmd ] && continue
  actual="$work/$name"
  if [ ! -f "$actual" ]; then
    echo "$name: the run did not write it" >&2
    status=1
  elif [ "$mode" = regen ]; then
    cp "$actual" "$expected"
  elif ! cmp -s "$expected" "$actual"; then
    echo "$name differs from $expected (first 40 diff lines):" >&2
    diff "$expected" "$actual" | head -n 40 >&2 || true
    status=1
  fi
done
if [ "$status" -ne 0 ] && [ "$mode" = check ]; then
  echo "If the change is intended, rerun tests/golden/regen.sh and review the diff." >&2
fi
exit "$status"
