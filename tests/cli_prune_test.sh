#!/usr/bin/env bash
# CLI gate for the --prune flag on `fsim run`: an unknown spelling must be
# rejected with a message listing the valid values, and a valid level must
# attach the static analysis and report the activation verdict. Guards the
# single-run entry point into the precision ladder (campaign/batch have
# their own digest gates). The --engine flag's unknown spellings, including
# the retired `interpreter` alias, are rejected the same way.
#
#   tests/cli_prune_test.sh <path-to-fsim>
set -euo pipefail

fsim="${1:?usage: cli_prune_test.sh <fsim>}"

# Unknown spelling: nonzero exit, error names the valid values.
if err="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=bogus \
            2>&1)"; then
  echo "cli_prune: --prune=bogus unexpectedly succeeded" >&2
  exit 1
fi
case "$err" in
  *"off|regs|full"*) ;;
  *) echo "cli_prune: error does not list valid values: $err" >&2
     exit 1 ;;
esac
echo "  --prune=bogus rejected: $err"

# --engine accepts exactly interp|threaded.
for bad in interpreter bogus; do
  if err="$("$fsim" run --app=wavetoy --region=heap --seed=5 \
              --engine="$bad" 2>&1)"; then
    echo "cli_prune: --engine=$bad unexpectedly succeeded" >&2
    exit 1
  fi
  case "$err" in
    *"interp|threaded"*) ;;
    *) echo "cli_prune: error does not list valid engines: $err" >&2
       exit 1 ;;
  esac
  echo "  --engine=$bad rejected: $err"
done

# Valid level: run succeeds and reports the static activation verdict.
out="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=full)"
case "$out" in
  *"static:  activation"*) ;;
  *) echo "cli_prune: --prune=full run missing static verdict line" >&2
     printf '%s\n' "$out" >&2
     exit 1 ;;
esac
echo "  --prune=full reports a static activation verdict"

# --prune=off must not attach the analysis (no static line).
out="$("$fsim" run --app=wavetoy --region=heap --seed=5 --prune=off)"
case "$out" in
  *"static:"*) echo "cli_prune: --prune=off printed a static verdict" >&2
               exit 1 ;;
  *) ;;
esac
echo "  --prune=off runs without the analysis attached"

echo "cli_prune: all checks passed"
