#!/bin/sh
# Diff qdel_predict's standard output on the .qtc cache of one
# synthesized catalog trace against the golden file of the text trace.
#
# Usage: check_qtc_golden.sh GOLDEN QDEL_SYNTH TRACE QDEL_PREDICT [ARG...]
#
# Writes TRACE (SITE/QUEUE or a bare SITE; see synth_trace.sh) into a
# fresh directory, runs "QDEL_PREDICT FILE --trace-cache ARG..." there
# to write FILE.qtc, then runs "QDEL_PREDICT FILE.qtc ARG... --threads=N"
# for N = 1 and N = 4. Each run must exit 0 and print every line of
# GOLDEN but its title: the columnar input names another file.
set -u
golden=$1
synth=$2
trace=$3
predict=$4
shift 4
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
if ! file=$("$(dirname "$0")/synth_trace.sh" "$synth" "$dir" "$trace"); then
    echo "FAIL: $synth could not write $trace"
    exit 1
fi
if ! (cd "$dir" && "$predict" "$file" --trace-cache "$@") > /dev/null; then
    echo "FAIL: $predict $file --trace-cache exited non-zero"
    exit 1
fi
untitled() { sed '/^qdel-predict: /d' "$1"; }
untitled "$golden" > "$dir/golden.txt"
status=0
for threads in 1 4; do
    if ! (cd "$dir" && "$predict" "$file.qtc" "$@" --threads=$threads) \
            > "$dir/out.txt" 2> /dev/null; then
        echo "FAIL: $predict $file.qtc --threads=$threads exited non-zero"
        status=1
    elif ! untitled "$dir/out.txt" | diff -u "$dir/golden.txt" -; then
        echo "FAIL: $predict $file.qtc --threads=$threads differs from $golden"
        status=1
    fi
done
exit $status
