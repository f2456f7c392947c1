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
