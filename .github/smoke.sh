# Helpers for the steps of workflows/tests.yml, loaded through BASH_ENV. Each
# echoes what it saw and ends in its assertion. From the repository root:
#   BASH_ENV=.github/smoke.sh bash -eo pipefail -c 'prints 1/480 integral --g 2 --lambda 1'
hodgetrees() { PYTHONPATH=src python -m hodgetrees "$@"; }

# prints EXPECTED ARG...: `hodgetrees ARG...` exits 0, and its stdout is EXPECTED.
prints() {
  local expected=$1 out code=0; shift
  out=$(hodgetrees "$@") || code=$?
  printf 'hodgetrees %s: exit %s\n  expected %s\n  actual   %s\n' "$*" "$code" "$expected" "$out"
  test "$code" = 0 && test "$out" = "$expected"
}

# refuses PATTERN ARG...: `hodgetrees ARG...` exits 2 within 10 s with an empty
# stdout, and its stderr, left in err.txt, matches the grep pattern PATTERN.
refuses() {
  local pattern=$1 out code=0; shift
  out=$(PYTHONPATH=src timeout 10 python -m hodgetrees "$@" 2> err.txt) || code=$?
  printf "hodgetrees %s: exit %s, stdout '%s'\n" "$*" "$code" "$out"
  cat err.txt
  test "$code" = 2 && test -z "$out" && grep -q -e "$pattern" err.txt
}

# digest KEY COMMAND...: COMMAND exits 0, and its stdout's sha256 is bench/golden.json's KEY.
digest() {
  local key=$1 expected actual code=0; shift
  expected=$(python -c 'import json, sys; print(json.load(open("bench/golden.json"))[sys.argv[1]])' "$key")
  "$@" > stdout.txt || code=$?
  actual=$(sha256sum < stdout.txt | cut -d" " -f1)
  printf '%s: exit %s\n  expected %s\n  actual   %s\n' "$key" "$code" "$expected" "$actual"
  test "$code" = 0 && test -n "$expected" && test "$actual" = "$expected"
}
