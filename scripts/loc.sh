#!/usr/bin/env bash
# Non-blank, non-comment lines of non-test Go code, per package
# directory, then the total: the count the ROADMAP's line gates cite.
# A line counts unless it is empty or starts (after indentation) with
# //. The repo has no /* */ comments. With arguments, only those
# directories are counted (e.g. scripts/loc.sh internal/geom).
# Pure shell + awk; installs nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    # Hidden directories (build caches such as .bench_build) and
    # testdata hold no package of this repository.
    set -- $(find . \( -name '.?*' -o -name testdata \) -prune -o \
        -name '*.go' ! -name '*_test.go' -print |
        sed -e 's|/[^/]*$||' -e 's|^\./||' | sort -u)
fi

for dir in "$@"; do
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    awk -v dir="$dir" '!/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ } END { printf "%6d %s\n", n, dir }' $files
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
