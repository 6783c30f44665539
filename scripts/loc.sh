#!/usr/bin/env bash
# Prints the number of non-test Go lines outside bench/ — the figure
# ROADMAP.md and CHANGES.md quote for simplicity PRs. Run from the root
# of a checkout.
set -euo pipefail
find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs wc -l | tail -1
