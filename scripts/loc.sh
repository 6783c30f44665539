#!/usr/bin/env bash
# Prints the number of non-test Go lines outside bench/ — the figure
# ROADMAP.md and CHANGES.md quote for simplicity PRs. With --by-package,
# prints the same count split by directory, total last. Run from the root
# of a checkout.
set -euo pipefail
files() {
  find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go'
}
if [ "${1:-}" = --by-package ]; then
  files | xargs wc -l | awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
    END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
else
  files | xargs wc -l | tail -1
fi
