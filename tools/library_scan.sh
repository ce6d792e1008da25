#!/usr/bin/env bash
# Library boundary scan: prints the flashcache:: functions that the
# src/ archives define but that only tests and the micro_* benches
# link. No example, no figure/table/ablation bench and not perfbench's
# flashbench reaches them, so each one is either an oracle that
# belongs in tests/support or a member kept for tests to observe
# state with.
#
# Every binary is built with -O0 -fno-inline -ffunction-sections and
# linked with --gc-sections: each called function stays a symbol of
# its own and the linker drops every function nothing calls, so a
# binary's defined text symbols are the functions it can reach. -g
# lets nm name the file (header or source) that defines each one.
#
# Usage: tools/library_scan.sh
# Builds afresh into build-scan/ at the repository root (binaries and
# archives left there by a target that no longer exists would
# otherwise be scanned too) and prints the report on stdout. Exits
# non-zero only if the build fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-scan
rm -rf "$out"
flags="-O0 -g -fno-inline -ffunction-sections"
jobs=$(nproc)

configure() { # <source dir> <build dir>
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}
configure "$root" "$out/repo"
cmake --build "$out/repo" -j"$jobs" > /dev/null
configure "$root/perfbench" "$out/perfbench"
cmake --build "$out/perfbench" -j"$jobs" --target flashbench > /dev/null

# Defined text symbols in the flashcache namespace, one name a line.
textSymbols() {
    nm -C --defined-only "$@" |
        sed -n 's/^[0-9a-f]* [TtWw] \(flashcache::.*\)$/\1/p' | sort -u
}

shipped=()
tested=()
for f in "$out"/repo/examples/* "$out"/repo/bench/* \
         "$out"/perfbench/flashbench "$out"/repo/tests/*; do
    [[ -f $f && -x $f ]] || continue
    case $f in
      */bench/micro_*|*/tests/*) tested+=("$f") ;;
      *) shipped+=("$f") ;;
    esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for f in "${shipped[@]}"; do textSymbols "$f"; done | sort -u > "$tmp/shipped"
for f in "${tested[@]}"; do textSymbols "$f"; done | sort -u > "$tmp/tested"
comm -23 "$tmp/tested" "$tmp/shipped" > "$tmp/test_only"

# Archive symbols as "file<TAB>name": nm -l appends the defining
# file:line after a tab.
find "$out/repo/src" -name 'libfc_*.a' -print0 |
    xargs -0 nm -C -l --defined-only 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] \(flashcache::[^\t]*\)\t\(.*\):[0-9]*$/\2\t\1/p' |
    sed "s|^$root/||" | grep '^src/' | sort -u > "$tmp/archive"

echo "flashcache:: functions the src/ archives define that only tests"
echo "and micro_* benches link, by defining file"
awk -F '\t' 'NR == FNR { only[$0] = 1; next }
             ($2 in only) && !seen[$2]++ { print $1 "\t" $2 }' \
    "$tmp/test_only" "$tmp/archive" | sort |
    awk -F '\t' '$1 != file { file = $1; print ""; print file }
                 { print "    " $2; n++ }
                 END { print ""; print n + 0 " functions" }'
