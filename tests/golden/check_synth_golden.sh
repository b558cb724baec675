#!/bin/sh
# Diff qdel_predict's standard output on one synthesized catalog queue
# against a checked-in golden file at two worker counts.
#
# Usage: check_synth_golden.sh GOLDEN QDEL_SYNTH SITE QUEUE QDEL_PREDICT [ARG...]
#
# Writes queue SITE/QUEUE as SWF with "QDEL_SYNTH --seed=7" into a fresh
# directory, then runs check_golden.sh there on
# "QDEL_PREDICT SITE_QUEUE.swf ARG...". With --trace-cache among the
# ARGs, the --threads=1 run parses the text and writes the .qtc cache
# and the --threads=4 run loads it, so both must print GOLDEN.
set -u
golden=$1
synth=$2
site=$3
queue=$4
shift 4
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
if ! "$synth" --out="$dir" --format=swf --site="$site" --queue="$queue" \
        --seed=7 > /dev/null; then
    echo "FAIL: $synth could not write $site/$queue"
    exit 1
fi
predict=$1
shift
"$(dirname "$0")/check_golden.sh" "$golden" "$dir" "$predict" \
    "${site}_${queue}.swf" "$@"
