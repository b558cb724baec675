#!/bin/sh
# Rewrite the golden outputs the Golden.* ctests diff against.
#
# Usage: tools/regen_golden.sh BUILD_DIR
#
# Runs every table/figure/ablation binary that BUILD_DIR registers a
# Golden.<name> test for (qdel_bench() in bench/CMakeLists.txt does)
# from BUILD_DIR/bench at --threads=4, qdel_predict --lenient on each
# tests/corpus/ input, qdel_predict with bmbp and lognormal-trim, per
# queue and --by-procs, on the synthesized datastar/normal and
# lanl/shared queues (qdel_synth --seed=7) and on the paragon queues
# joined into one trace, and qdel_serve --drive --digest on the
# two single queues, and writes their standard output over
# the golden files. A change that moves a golden file must
# say in CHANGES.md which cells moved and why.
set -eu
build=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/tests/golden

benches=$(cd "$build" && ctest -N -R '^Golden\.[a-z0-9_]+$' |
    sed -n 's/^ *Test *#[0-9]*: Golden\.//p')
for bench in $benches; do
    echo "bench/$bench"
    "$build/bench/$bench" --threads=4 > "$golden/bench/$bench.txt"
done

# From the corpus directory, so the printed input path is relative.
for input in mixed.swf mixed_native.txt; do
    echo "qdel_predict $input"
    (cd "$root/tests/corpus" &&
        "$build/tools/qdel_predict" "$input" --lenient --threads=4) \
        > "$golden/predict/$(echo "$input" | tr . _).txt" 2> /dev/null
done

# The synthesized traces, from a scratch directory, as
# tests/golden/check_synth_golden.sh runs them: per queue and --by-procs.
synth_dir=$(mktemp -d)
trap 'rm -rf "$synth_dir"' EXIT
mkdir -p "$golden/predict/synth" "$golden/serve/drive"
for trace in datastar/normal lanl/shared paragon; do
    file=$("$golden/synth_trace.sh" "$build/tools/qdel_synth" \
        "$synth_dir" "$trace")
    stem=$(echo "$trace" | tr / _)
    for method in bmbp lognormal-trim; do
        for mode in queue by-procs; do
            echo "qdel_predict $stem $method $mode"
            flag=
            [ "$mode" = by-procs ] && flag=--by-procs
            (cd "$synth_dir" &&
                "$build/tools/qdel_predict" "$file" \
                    --method=$method $flag --threads=4) \
                > "$golden/predict/synth/$stem.$method.$mode.txt"
        done
    done
    [ "$stem" = "$trace" ] && continue
    echo "qdel_serve --drive $stem"
    (cd "$synth_dir" &&
        "$build/tools/qdel_serve" --drive="$file" --digest) \
        > "$golden/serve/drive/$stem.txt"
done
