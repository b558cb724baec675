#!/bin/sh
# Write one synthesized catalog trace into a directory and print the
# name of the file it wrote.
#
# Usage: synth_trace.sh QDEL_SYNTH DIR TRACE
#
# TRACE is SITE/QUEUE or a bare SITE. SITE/QUEUE writes that queue as
# SWF with "QDEL_SYNTH --seed=7" (SITE_QUEUE.swf). A bare SITE writes
# each of the site's catalog queues in the native format with the same
# seed and joins their data lines, queue by queue in catalog order,
# into one multi-queue trace (SITE.txt; the loader sorts it by submit
# time).
set -eu
synth=$1
dir=$2
trace=$3
case $trace in
*/*)
    site=${trace%/*}
    queue=${trace#*/}
    "$synth" --out="$dir" --format=swf --site="$site" --queue="$queue" \
        --seed=7 > /dev/null
    echo "${site}_${queue}.swf"
    ;;
*)
    # qdel_synth prints "wrote FILE (N jobs)" per queue, in catalog
    # order.
    written=$("$synth" --out="$dir" --format=native --site="$trace" \
        --seed=7)
    : > "$dir/$trace.txt"
    echo "$written" | sed -n 's/^wrote \(.*\) ([0-9]* jobs)$/\1/p' |
        while read -r file; do
            grep -v '^#' "$file" >> "$dir/$trace.txt"
            rm "$file"
        done
    echo "$trace.txt"
    ;;
esac
