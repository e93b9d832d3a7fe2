#!/bin/sh
# checkdocs.sh — the CI documentation gate. Fails when:
#   1. a Go package has no doc comment (// Package ... for libraries,
#      // Command ... for cmd/ binaries and bench/, any leading comment for
#      examples/),
#   2. an internal/* package is missing from docs/ARCHITECTURE.md,
#   3. a relative markdown link in README.md or docs/*.md points at a file
#      that does not exist, or its #fragment (in-page links included)
#      names no heading of its target, or
#   4. examples/ is not gofmt-clean, or
#   5. a flag cmd/htiersimd defines is not documented.
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

# 3. Relative markdown links must resolve, and so must their fragments.
# External URLs are skipped. A fragment must equal the GitHub slug of a
# heading in the target file (the linking file itself for "#section"): the
# heading lowercased, every character other than a letter, digit, space,
# "-" or "_" dropped, and spaces turned into "-". Letters are ASCII here,
# and headings inside code fences do not count.
slugs() {
    LC_ALL=C awk '/^```/ { fence = !fence; next }
        !fence && /^#+ / {
            h = tolower($0)
            sub(/^#+ +/, "", h)
            gsub(/[^a-z0-9 _-]/, "", h)
            gsub(/ /, "-", h)
            print h
        }' "$1"
}
for f in README.md docs/*.md; do
    dir=$(dirname "$f")
    for target in $(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        rel=${target%%#*}
        file=$dir/$rel
        [ -n "$rel" ] || file=$f
        if [ ! -e "$file" ]; then
            echo "checkdocs: dead link ($target) in $f" >&2
            fail=1
            continue
        fi
        case "$target" in
        *#*)
            if ! slugs "$file" | grep -qxF -- "${target#*#}"; then
                echo "checkdocs: link ($target) in $f names no heading of $file" >&2
                fail=1
            fi
            ;;
        esac
    done
done

# 4. Example programs are documentation too; keep them formatted.
unformatted=$(gofmt -l examples/)
if [ -n "$unformatted" ]; then
    echo "checkdocs: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

# 5. Every htiersimd flag is documented: each name cmd/htiersimd/main.go
# defines must open an inline code span (`-name` or `-name <arg>`) in one
# of the daemon's guides. A flag mentioned only inside another flag's span
# (`-worker -join <url>`) does not count.
for name in $(grep -oE 'fs\.[A-Za-z0-9]+\((&[A-Za-z.]+, )?"[a-z-]+"' cmd/htiersimd/main.go |
    sed -E 's/.*"([a-z-]+)"$/\1/'); do
    if ! grep -qE "\`-$name[\` ]" docs/SERVICE.md docs/FABRIC.md docs/DURABILITY.md; then
        echo "checkdocs: htiersimd flag -$name is not documented as \`-$name\` in docs/SERVICE.md, FABRIC.md or DURABILITY.md" >&2
        fail=1
    fi
done

exit "$fail"
