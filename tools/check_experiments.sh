#!/bin/sh
# Drift gate for EXPERIMENTS.md: every table row of the paper-scale
# report golden must appear in it verbatim, so a quoted table cannot
# differ from what `torsim report` prints.
# Usage: check_experiments.sh GOLDEN EXPERIMENTS_MD
set -eu
golden="$1" doc="$2"
missing=0
while IFS= read -r row; do
  case "$row" in
    '|'*)
      if ! grep -Fxq -- "$row" "$doc"; then
        echo "error: $doc lacks the golden row: $row" >&2
        missing=$((missing + 1))
      fi
      ;;
  esac
done <"$golden"
if [ "$missing" -ne 0 ]; then exit 1; fi
echo "every table row of $golden is in $doc"
