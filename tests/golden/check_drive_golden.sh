#!/bin/sh
# Diff the digest qdel_serve prints after driving one synthesized
# catalog queue against a checked-in golden file.
#
# Usage: check_drive_golden.sh GOLDEN QDEL_SYNTH SITE QUEUE QDEL_SERVE
#
# Writes queue SITE/QUEUE as SWF with "QDEL_SYNTH --seed=7" into a fresh
# directory, then runs "QDEL_SERVE --drive=SITE_QUEUE.swf --digest"
# there, in memory (no --state-dir), and fails unless it exits 0 and
# prints exactly the bytes of GOLDEN. The digest covers every entry's
# predictor state, so it pins the Submit/Start order in which
# serve::eventsFromJobs hands the trace to the registry.
set -u
golden=$1
synth=$2
site=$3
queue=$4
serve=$5
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
if ! "$synth" --out="$dir" --format=swf --site="$site" --queue="$queue" \
        --seed=7 > /dev/null; then
    echo "FAIL: $synth could not write $site/$queue"
    exit 1
fi
if ! (cd "$dir" && "$serve" --drive="${site}_${queue}.swf" --digest) \
        > "$dir/out.txt"; then
    echo "FAIL: $serve --drive=${site}_${queue}.swf exited non-zero"
    exit 1
fi
if ! diff -u "$golden" "$dir/out.txt"; then
    echo "FAIL: $serve --drive=${site}_${queue}.swf differs from $golden"
    exit 1
fi
