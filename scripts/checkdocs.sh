#!/bin/sh
# checkdocs.sh — the CI documentation gate. Fails when:
#   1. a Go package has no doc comment (// Package ... for libraries,
#      // Command ... for cmd/ binaries and bench/, any leading comment for
#      examples/),
#   2. an internal/* package is missing from docs/ARCHITECTURE.md,
#   3. a relative markdown link in README.md or docs/*.md points at a file
#      that does not exist, or
#   4. examples/ is not gofmt-clean.
# Run from anywhere; it operates on the repository that contains it.
set -eu
cd "$(dirname "$0")/.."
fail=0

# 1. Every package directory must contain one file with a doc comment
# above its package clause (license headers and build tags may precede
# it, so the whole leading block is scanned, not just line 1). Examples
# are package main demos whose doc comment is prose, so any comment line
# before the package clause counts there. The benchmark's build cache and
# output directories (bench/run.sh) hold copies of Go sources, not packages.
for dir in $(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' \
    -not -path './bench/out/*' -exec dirname {} \; | sort -u); do
    case "$dir" in
    ./examples/*) pat='^\/\/ ' ;;
    ./cmd/* | ./bench) pat='^\/\/ Command ' ;;
    *) pat='^\/\/ Package ' ;;
    esac
    ok=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac # godoc ignores test files
        if awk -v pat="$pat" 'BEGIN{rc=1} /^package /{exit} $0 ~ pat {rc=0; exit} END{exit rc}' "$f"; then
            ok=1
            break
        fi
    done
    if [ "$ok" = 0 ]; then
        echo "checkdocs: $dir has no package doc comment (want $pat...)" >&2
        fail=1
    fi
done

# 2. The architecture guide must cover every internal package. The match
# is anchored past the package name so internal/trace is not satisfied by
# a mention of internal/tracefile.
for d in internal/*/; do
    name=$(basename "$d")
    if ! grep -qE "internal/$name([^a-z-]|$)" docs/ARCHITECTURE.md; then
        echo "checkdocs: internal/$name is not mentioned in docs/ARCHITECTURE.md" >&2
        fail=1
    fi
done

# 3. Relative markdown links must resolve. External URLs and in-page
# anchors are skipped; "#section" suffixes are stripped before the check.
for f in README.md docs/*.md; do
    dir=$(dirname "$f")
    for target in $(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        rel=${target%%#*}
        if [ ! -e "$dir/$rel" ]; then
            echo "checkdocs: dead link ($target) in $f" >&2
            fail=1
        fi
    done
done

# 4. Example programs are documentation too; keep them formatted.
unformatted=$(gofmt -l examples/)
if [ -n "$unformatted" ]; then
    echo "checkdocs: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

exit "$fail"
