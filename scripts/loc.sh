#!/usr/bin/env bash
# Line count for the workspace's crates, those under crates/ and the
# root `cos` package: per crate, the non-blank lines that are not `//`
# comments (doc comments included), split into library code and test
# code. Test code is every `#[cfg(test)]` item in `src/` (found by brace
# depth) plus every file under the crate's `tests/`. Binaries under
# `src/bin/` count as library code. Informational, not a gate: run it
# before and after a change and compare.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<lib> <test>" for the given .rs files under src/.
count_src() {
    awk '
        FNR == 1 { pending = 0; depth = 0; intest = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            code = (line != "" && substr(line, 1, 2) != "//")
            if (!intest && line ~ /^#\[cfg\(test\)\]/) { intest = 1; pending = 1; depth = 0 }
            if (intest) {
                if (code) test++
                opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
                depth += opens - closes
                if (opens > 0) pending = 0
                if (!pending && depth <= 0) intest = 0
                else if (pending && depth == 0 && line ~ /;$/) intest = 0
                next
            }
            if (code) lib++
        }
        END { printf "%d %d\n", lib, test }
    ' "$@"
}

# Prints the code-line count of the given .rs files (all test code).
count_all() {
    awk '{ line = $0; sub(/^[ \t]+/, "", line); if (line != "" && substr(line, 1, 2) != "//") n++ }
         END { printf "%d\n", n }' "$@"
}

printf '%-16s %8s %8s %8s\n' crate library tests total
lib_sum=0
test_sum=0
for dir in crates/*/ ./; do
    name=${dir%/}
    name=${name#crates/}
    [ "$name" = . ] && name=cos
    mapfile -t src < <(find "$dir/src" -name '*.rs' | sort)
    read -r lib test < <(count_src "${src[@]}")
    if [ -d "$dir/tests" ]; then
        mapfile -t tst < <(find "$dir/tests" -name '*.rs' | sort)
        test=$((test + $(count_all "${tst[@]}")))
    fi
    printf '%-16s %8d %8d %8d\n' "$name" "$lib" "$test" $((lib + test))
    lib_sum=$((lib_sum + lib))
    test_sum=$((test_sum + test))
done
printf '%-16s %8d %8d %8d\n' total "$lib_sum" "$test_sum" $((lib_sum + test_sum))
