#!/usr/bin/env bash
# Runs a GoogleTest binary under --gtest_filter and fails unless the filter
# selected at least one test. GoogleTest 1.12 has no flag that fails an
# empty selection, so a renamed test would otherwise leave the step green
# with nothing run.
#
#   ci/gtest_filtered.sh FILTER COMMAND [ARGS...]
#
# COMMAND is the test binary, or a runner plus the binary (qemu-aarch64 -L
# SYSROOT ./test); --gtest_filter=FILTER is appended to it.
set -euo pipefail
filter=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" --gtest_filter="$filter" | tee "$log"
if ! grep -Eq '^\[==========\] [1-9][0-9]* tests? from .* ran\.' "$log"; then
  echo "gtest_filtered: no test matched --gtest_filter=$filter" >&2
  exit 1
fi
