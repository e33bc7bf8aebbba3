#!/usr/bin/env bash
# Run `cargo test -q <args>` and fail when it fails or when its name filter
# selects no test, so a renamed test cannot turn a CI step into a no-op.
#   ci/cargo-test-some.sh -p joinstudy-exec --lib progress
out=$(cargo test -q "$@" 2>&1)
status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
echo "$out" | grep -qE 'test result: ok\. [1-9]' || {
    echo "no test selected by: $*"
    exit 1
}
