#!/bin/sh
# `torsim scan`, `torsim trackdet` and `torsim report` run one chain
# (src/pipeline), so at the same flags they must agree on the Fig. 1
# open-port total and the Sec. VII rows (the report's last lines), and
# the report must match its golden byte for byte.
# Usage: check_report.sh TORSIM GOLDEN [FLAGS...]
set -eu
bin="$1" golden="$2"
shift 2
report="$(mktemp)" trackdet="$(mktemp)"
trap 'rm -f "$report" "$trackdet"' EXIT
"$bin" report "$@" >"$report"
scan="$("$bin" scan "$@" | sed -n 's/.* found \([0-9]*\) open ports .*/\1/p')"
row="$(sed -n 's/^| open ports | \([0-9]*\) |.*/\1/p' "$report")"
if [ -z "$scan" ] || [ "$scan" != "$row" ]; then
  echo "error: scan found '$scan' open ports, report says '$row'" >&2
  exit 1
fi
"$bin" trackdet "$@" >"$trackdet"
if ! tail -n "$(wc -l <"$trackdet")" "$report" | cmp -s - "$trackdet"; then
  echo "error: the report's Sec. VII rows differ from torsim trackdet" >&2
  exit 1
fi
diff "$golden" "$report"
echo "scan and report agree on $scan open ports; report matches golden"
