#!/bin/sh
# Rewrite the golden outputs the Golden.* ctests diff against.
#
# Usage: tools/regen_golden.sh BUILD_DIR
#
# Runs every table/figure/ablation binary that BUILD_DIR registers a
# Golden.<name> test for (qdel_bench() in bench/CMakeLists.txt does)
# from BUILD_DIR/bench at --threads=4, and qdel_predict
# --lenient on each tests/corpus/ input, and writes their standard
# output over the golden files. A change that moves a golden file must
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
