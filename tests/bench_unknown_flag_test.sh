#!/usr/bin/env bash
# Unknown-option gate for the bench and example binaries: each reads the
# options it accepts and then rejects the rest, so --bogus-flag=3 makes it
# exit nonzero with an error naming the flag before any experiment runs.
#
#   tests/bench_unknown_flag_test.sh <binary>...
set -euo pipefail

[ "$#" -gt 0 ] || { echo "usage: bench_unknown_flag_test.sh <binary>..." >&2; exit 2; }
# The rejection escapes main as an exception; leave no core file behind.
ulimit -c 0

for bin in "$@"; do
  name="$(basename "$bin")"
  if err="$("$bin" --bogus-flag=3 2>&1)"; then
    echo "bench_unknown_flag: '$name --bogus-flag=3' exited 0" >&2
    exit 1
  fi
  case "$err" in
    *"unknown option --bogus-flag"*) ;;
    *) echo "bench_unknown_flag: '$name': error does not name the flag: $err" >&2
       exit 1 ;;
  esac
  echo "  $name: rejected --bogus-flag"
done
echo "bench_unknown_flag: ok ($# binaries)"
