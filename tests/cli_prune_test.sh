#!/usr/bin/env bash
# CLI gate for the --prune flag: `fsim run` and `fsim batch` accept exactly
# off|full and reject anything else (the retired `regs` level and the
# on|true|false spellings included) with a message listing the valid
# values, and a valid level on `fsim run` attaches the static analysis and
# reports the activation verdict. Spec files refuse a boolean "prune",
# `fsim batch --spec` refuses the inline campaign flags the spec would
# silently override (only --engine may accompany a spec), and
# `fsim merge` refuses a result document that is not fsim-batch-v2. The
# --engine flag's unknown spellings, including the retired `interpreter`
# alias, are rejected the same way.
#
#   tests/cli_prune_test.sh <path-to-fsim>
set -euo pipefail

fsim="${1:?usage: cli_prune_test.sh <fsim>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# expect_refusal LABEL PATTERN CMD...: CMD must exit nonzero with PATTERN
# in its output.
expect_refusal() {
  local label="$1" pattern="$2"
  shift 2
  local err
  if err="$("$@" 2>&1)"; then
    echo "cli_prune: $label unexpectedly succeeded" >&2
    exit 1
  fi
  case "$err" in
    *"$pattern"*) ;;
    *) echo "cli_prune: $label: error lacks '$pattern': $err" >&2
       exit 1 ;;
  esac
  echo "  $label rejected: $err"
}

# Unknown and retired spellings: nonzero exit, error names the valid values.
for bad in bogus regs on true false; do
  expect_refusal "run --prune=$bad" "off|full" \
    "$fsim" run --app=wavetoy --region=heap --seed=5 --prune="$bad"
  expect_refusal "batch --prune=$bad" "off|full" \
    "$fsim" batch --apps=wavetoy --runs=1 --regions=regular --jobs=1 \
    --quiet --prune="$bad"
done

# Spec files take a level name only, never the old boolean.
printf '%s\n' '{"prune": true, "runs": 1, "regions": ["regular"],' \
  ' "campaigns": [{"app": "wavetoy"}]}' > "$tmp/bool.json"
expect_refusal 'batch --spec with "prune": true' "off|full" \
  "$fsim" batch --spec="$tmp/bool.json" --jobs=1 --quiet

# A spec file defines every campaign: inline campaign flags beside it are
# refused rather than ignored (a bad --prune value included), while
# --engine still overrides the spec.
printf '%s\n' '{"prune": "full", "runs": 1, "regions": ["regular"],' \
  ' "campaigns": [{"app": "wavetoy"}]}' > "$tmp/spec.json"
for flag in --apps=wavetoy --runs=7 --seed=3 --regions=regular --prune=off \
            --prune=bogus; do
  expect_refusal "batch --spec with $flag" "cannot be combined with --spec" \
    "$fsim" batch --spec="$tmp/spec.json" --jobs=1 --quiet "$flag"
done
"$fsim" batch --spec="$tmp/spec.json" --jobs=1 --quiet --engine=interp \
  --json --out="$tmp/spec_interp.json"
grep -q '"runs_per_region": *1' "$tmp/spec_interp.json" || {
  echo "cli_prune: batch --spec --engine=interp did not run the spec" >&2
  exit 1
}
echo "  batch --spec --engine=interp accepted"

# fsim merge reads fsim-batch-v2 result documents only.
"$fsim" batch --apps=wavetoy --runs=1 --regions=regular --jobs=1 --quiet \
  --json --out="$tmp/v2.json"
sed 's/"fsim-batch-v2"/"fsim-batch-v1"/' "$tmp/v2.json" > "$tmp/v1.json"
"$fsim" merge "$tmp/v2.json" --json > /dev/null
expect_refusal "merge of an fsim-batch-v1 document" "fsim-batch-v2" \
  "$fsim" merge "$tmp/v1.json"

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
