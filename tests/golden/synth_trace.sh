#!/bin/sh
# Write one synthesized catalog trace into a directory and print the
# name of the file it wrote.
#
# Usage: synth_trace.sh QDEL_SYNTH DIR TRACE
#
# TRACE is SITE/QUEUE or a bare SITE. SITE/QUEUE writes that queue as
# SWF with "QDEL_SYNTH --seed=7" (SITE_QUEUE.swf). A bare SITE writes
# each of the site's catalog queues in the native format with the same
# seed and joins their data lines, queue by queue, into one multi-queue
# trace (SITE.txt; the loader sorts it by submit time).
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
    # qdel_synth selects one queue at a time; these are the catalog's
    # queues for the sites a golden joins.
    case $trace in
    paragon) queues="q11 q256s q32l q641 standby" ;;
    *) echo "synth_trace.sh: no queue list for site '$trace'" >&2; exit 1 ;;
    esac
    : > "$dir/$trace.txt"
    for queue in $queues; do
        "$synth" --out="$dir" --format=native --site="$trace" \
            --queue="$queue" --seed=7 > /dev/null
        grep -v '^#' "$dir/${trace}_$queue.txt" >> "$dir/$trace.txt"
        rm "$dir/${trace}_$queue.txt"
    done
    echo "$trace.txt"
    ;;
esac
