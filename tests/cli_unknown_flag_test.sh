#!/usr/bin/env bash
# CLI gate for unknown options: every `fsim` subcommand reads the options it
# accepts before doing any work, so one it does not read — here
# --bogus-flag=3 — makes it exit nonzero with an error naming the flag,
# before a campaign runs, a daemon starts or a socket is dialled.
#
#   tests/cli_unknown_flag_test.sh <path-to-fsim>
set -euo pipefail

fsim="${1:?usage: cli_unknown_flag_test.sh <fsim>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A finished one-run checkpoint, for the commands that take a file.
"$fsim" batch --apps=jacobi --runs=1 --regions=regular --jobs=1 --quiet \
  --checkpoint="$tmp/ck.json" --out="$tmp/result.json" 2>/dev/null

sock="$tmp/none.sock"
cases=(
  "run --app=jacobi"
  "campaign --app=jacobi --runs=2"
  "batch --apps=jacobi --runs=2"
  "resume $tmp/ck.json"
  "merge $tmp/result.json"
  "analyze --app=jacobi --runs=0"
  "profile --app=jacobi"
  "trace --app=jacobi"
  "mix --app=jacobi"
  "lint --app=jacobi"
  "serve --socket=$sock --state=$tmp/state"
  "worker --socket=$sock"
  "submit --socket=$sock --spec=$tmp/ck.json"
  "status --socket=$sock"
  "status $tmp/ck.json"
  "fetch --socket=$sock --job=j1"
  "shutdown --socket=$sock"
)

for c in "${cases[@]}"; do
  # shellcheck disable=SC2086  # each case is a word list on purpose
  if err="$("$fsim" $c --bogus-flag=3 2>&1)"; then
    echo "cli_unknown_flag: '$c --bogus-flag=3' exited 0" >&2
    exit 1
  fi
  case "$err" in
    *"unknown option --bogus-flag"*) ;;
    *) echo "cli_unknown_flag: '$c': error does not name the flag: $err" >&2
       exit 1 ;;
  esac
  echo "  $c: $err"
done
[ ! -e "$tmp/state" ] || { echo "serve created its state dir" >&2; exit 1; }
echo "cli_unknown_flag: ok (${#cases[@]} cases)"
