#!/usr/bin/env bash
# Unit tests for tools/lib.sh. Run directly or via check.sh; exits
# non-zero on the first failing assertion.
set -euo pipefail
cd "$(dirname "$0")"
# shellcheck source=lib.sh
. ./lib.sh

fails=0
expect() {
  local what="$1" got="$2" want="$3"
  if [ "$got" != "$want" ]; then
    echo "FAIL $what: got \`$got\`, want \`$want\`" >&2
    fails=$((fails + 1))
  fi
}

# json_scalar pulls scalar fields out of serve/submit wire JSON: strings
# unquoted, numbers and booleans verbatim, first occurrence winning, and
# nothing for absent keys.
wire='{"job_id":7,"status":"done","cached":true,"cells":[{"scheme":"base","cached":false,"result":{"stats_digest":"0x432788c91a33cfe9","ipc":0.866}}]}'
expect "json string" "$(json_scalar "$wire" status)" "done"
expect "json bool (first wins)" "$(json_scalar "$wire" cached)" "true"
expect "json number" "$(json_scalar "$wire" job_id)" "7"
expect "json hex string" "$(json_scalar "$wire" stats_digest)" "0x432788c91a33cfe9"
expect "json missing key" "$(json_scalar "$wire" nonesuch)" ""
expect "json spaced colon" "$(json_scalar '{ "a": 3.5 }' a)" "3.5"

# The hpabench result line (the last stdout line of a run): the benchmark
# smoke in check.sh gates on its top-level `correct` and `failed`, which
# come before the metrics object, so a metric whose name ends in `failed`
# cannot shadow them.
bench='{"correct":true,"attempted":1500,"failed":0,"metrics":{"serve.jobs_failed":{"value":0,"unit":"count"},"ops_per_s":{"value":139.3,"unit":"1/s"}}}'
expect "bench correct" "$(json_scalar "$bench" correct)" "true"
expect "bench failed" "$(json_scalar "$bench" failed)" "0"
expect "bench attempted" "$(json_scalar "$bench" attempted)" "1500"
wrong='{"correct":false,"attempted":1500,"failed":2,"metrics":{}}'
expect "bench wrong result" "$(json_scalar "$wrong" correct)" "false"
expect "bench failures" "$(json_scalar "$wrong" failed)" "2"

# never_fired_classes reads the per-scheme class rows of RESILIENCE.json:
# a class counts as fired if any scheme's row has a detected, masked or
# sdc run; one whose rows are all dormant is reported.
resilience='{"seed":42,"runs":6,"dormant":3,"schemes":[{"scheme":"base","classes":[{"class":"tag-bit-flip","detected":1,"masked":0,"dormant":0,"sdc":0},{"class":"stale-now-bits","detected":0,"masked":0,"dormant":1,"sdc":0},{"class":"last-arrival-flip","detected":0,"masked":0,"dormant":1,"sdc":0}]},{"scheme":"seq-rf","classes":[{"class":"tag-bit-flip","detected":0,"masked":0,"dormant":1,"sdc":0},{"class":"stale-now-bits","detected":0,"masked":1,"dormant":0,"sdc":0},{"class":"last-arrival-flip","detected":0,"masked":0,"dormant":0,"sdc":0}]}]}'
expect "never-fired classes" "$(never_fired_classes "$resilience")" "last-arrival-flip"
fired='{"schemes":[{"scheme":"base","classes":[{"class":"read-port-storm","detected":0,"masked":2,"dormant":3,"sdc":0}]}]}'
expect "every class fired" "$(never_fired_classes "$fired")" ""

if [ "$fails" -gt 0 ]; then
  echo "test_check_lib: $fails failure(s)" >&2
  exit 1
fi
echo "test_check_lib: all assertions passed"
