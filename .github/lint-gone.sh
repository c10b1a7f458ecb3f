#!/usr/bin/env bash
# Checks every row of .github/lint-gone.txt (its header gives the row
# format) from the repo root. Prints each row that does not hold and
# exits 1 if any failed, 0 otherwise. Run it from anywhere:
#
#   bash .github/lint-gone.sh
set -u
cd "$(dirname "$0")/.."
table=.github/lint-gone.txt
failed=0
n=0
fail() {
  echo "$table:$n: $*"
  failed=1
}
while IFS= read -r line || [ -n "$line" ]; do
  n=$((n + 1))
  case $line in
    '' | '#'*) ;;
    'absent '*)
      # Unquoted on purpose: a glob in the row expands here.
      for path in ${line#absent }; do
        if [ -e "$path" ]; then fail "$path exists"; fi
      done
      ;;
    'grep '*' -- '*)
      rest=${line#grep }
      paths=${rest%% -- *}
      pattern=${rest#* -- }
      missing=0
      for path in $paths; do
        if [ ! -e "$path" ]; then
          fail "$path does not exist"
          missing=1
        fi
      done
      if [ "$missing" = 1 ]; then continue; fi
      grep -rnHE -- "$pattern" $paths
      case $? in
        0) fail "matched: $pattern" ;;
        1) ;;
        *) fail "grep could not run: $pattern" ;;
      esac
      ;;
    *) fail "not a row: $line" ;;
  esac
done <"$table"
exit "$failed"
