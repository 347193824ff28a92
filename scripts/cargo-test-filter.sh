#!/usr/bin/env sh
# usage: scripts/cargo-test-filter.sh <filter> <cargo test selection args...>
#
# `cargo test <args> <filter>` exits 0 when the filter matches nothing, so a
# CI step that selects unit tests by name substring passes silently once the
# tests are renamed or moved. This runs the same command, but first asks the
# harness to `--list` and fails when the filter selects no test at all.
set -eu
filter=$1
shift
count=$(cargo test "$@" -q -- --list "$filter" 2>/dev/null | grep -c ': test$' || true)
if [ "$count" -eq 0 ]; then
    echo "error: filter '$filter' selects no test in \`cargo test $*\`" >&2
    exit 1
fi
echo "filter '$filter' selects $count tests in \`cargo test $*\`"
exec cargo test "$@" -q "$filter"
