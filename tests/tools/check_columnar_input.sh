#!/bin/sh
# Check qdel_predict on columnar input beyond its table.
#
# Usage: check_columnar_input.sh QDEL_SYNTH QDEL_PREDICT
#
# Streams paragon/q256s (1076 jobs) out as 400-job .qtc shards with
# "QDEL_SYNTH --stream-out --seed=7", then requires that
#  - "--stats-every=500" prints a progress line at each batch that
#    passes a multiple of 500, the last one at the end (800, 1076);
#  - the manifest with its first two shards swapped, whose submit times
#    then run backwards under valid CRCs, exits 1 with the
#    submission-order error;
#  - a manifest with no shards exits 1: an empty trace is an error.
set -u
synth=$1
predict=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
    echo "FAIL: $*"
    sed 's/^/  stderr: /' "$dir/err" 2> /dev/null
    exit 1
}
"$synth" --out="$dir" --stream-out --site=paragon --queue=q256s --seed=7 \
    --qtc-shard-size=400 > /dev/null || fail "$synth could not write shards"
manifest=$dir/paragon_q256s.qtcs

"$predict" "$manifest" --stats-every=500 > /dev/null 2> "$dir/err" ||
    fail "--stats-every run exited non-zero"
progress=$(sed -n 's/^progress: \([0-9]*\/[0-9]*\) jobs.*/\1/p' "$dir/err" |
    tr '\n' ' ')
[ "$progress" = "800/1076 1076/1076 " ] ||
    fail "--stats-every printed progress '$progress'"

sed -e 's/-00000\.qtc/-SWAP/' -e 's/-00001\.qtc/-00000.qtc/' \
    -e 's/-SWAP/-00001.qtc/' "$manifest" > "$dir/swapped.qtcs"
"$predict" "$dir/swapped.qtcs" > /dev/null 2> "$dir/err"
status=$?
[ $status -eq 1 ] || fail "swapped shards exited $status, not 1"
grep -q 'sorted by submission time' "$dir/err" ||
    fail "swapped shards did not report the submission order"

printf 'QTCS1\nsite=s\nmachine=m\nqueues=0\nshards=0\ntotal=0\n' \
    > "$dir/empty.qtcs"
"$predict" "$dir/empty.qtcs" > /dev/null 2> "$dir/err"
status=$?
[ $status -eq 1 ] || fail "empty manifest exited $status, not 1"
grep -q 'contains no jobs' "$dir/err" ||
    fail "empty manifest did not report an empty trace"
