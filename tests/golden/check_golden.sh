#!/bin/sh
# Diff a program's standard output against a checked-in golden file at
# two worker counts.
#
# Usage: check_golden.sh GOLDEN DIR PROGRAM [ARG...]
#
# Runs "PROGRAM ARG... --threads=N" from directory DIR for N = 1 and
# N = 4, and fails unless each run exits 0 and prints exactly the bytes
# of GOLDEN. tools/regen_golden.sh rewrites the golden files.
set -u
golden=$1
dir=$2
shift 2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for threads in 1 4; do
    if ! (cd "$dir" && "$@" --threads=$threads) > "$out"; then
        echo "FAIL: $* --threads=$threads exited non-zero"
        status=1
    elif ! diff -u "$golden" "$out"; then
        echo "FAIL: $* --threads=$threads differs from $golden"
        status=1
    fi
done
exit $status
