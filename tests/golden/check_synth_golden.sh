#!/bin/sh
# Diff qdel_predict's standard output on one synthesized catalog trace
# against a checked-in golden file at two worker counts.
#
# Usage: check_synth_golden.sh GOLDEN QDEL_SYNTH TRACE QDEL_PREDICT [ARG...]
#
# Writes TRACE (SITE/QUEUE or a bare SITE; see synth_trace.sh) into a
# fresh directory, then runs check_golden.sh there on
# "QDEL_PREDICT FILE ARG...". With --trace-cache among the ARGs, the
# --threads=1 run parses the text and writes the .qtc cache and the
# --threads=4 run loads it, so both must print GOLDEN.
set -u
golden=$1
synth=$2
trace=$3
predict=$4
shift 4
here=$(dirname "$0")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
if ! file=$("$here/synth_trace.sh" "$synth" "$dir" "$trace"); then
    echo "FAIL: $synth could not write $trace"
    exit 1
fi
"$here/check_golden.sh" "$golden" "$dir" "$predict" "$file" "$@"
