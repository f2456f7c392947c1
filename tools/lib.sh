# Shared shell helpers for the repo's tooling. Sourced by check.sh and
# unit-tested by tools/test_check_lib.sh; keep everything here POSIX-ish
# and side-effect free.

# Prints the value of the FIRST `"key":<scalar>` pair in the JSON text
# `$1` (key in `$2`): strings are unquoted, numbers/booleans print as-is,
# and a missing key prints nothing. Scalar fields only — values holding
# `,`, `}` or escaped quotes are out of scope (the serve wire format and
# the hpabench result line keep their greppable fields — status, cached,
# digests, correct, failed — scalar).
json_scalar() {
  printf '%s' "$1" |
    grep -o "\"$2\": *\(\"[^\"]*\"\|[^,}]*\)" |
    head -1 |
    sed 's/^"[^"]*": *//; s/ *$//; s/^"//; s/"$//'
}

# Prints, one per line, every fault class in the `RESILIENCE.json` text
# `$1` (rendered by `hpa faults`) that fired in no run of the campaign:
# summed over schemes, its detected + masked + sdc count is 0, so all its
# runs were dormant.
never_fired_classes() {
  printf '%s' "$1" |
    grep -o '"class":"[^"]*","detected":[0-9]*,"masked":[0-9]*,"dormant":[0-9]*,"sdc":[0-9]*' |
    awk -F'[":,]+' '{ fired[$3] += $5 + $7 + $11; seen[$3] = 1 }
      END { for (c in seen) if (fired[c] == 0) print c }' |
    sort
}
