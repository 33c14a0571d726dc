#!/usr/bin/env bash
# Usage: golden.sh <bench binary> <committed output>
# Runs a deterministic bench and byte-compares its stdout with the
# committed output under docs/results/, printing the unified diff when
# they differ.
set -euo pipefail
"$1" | diff -u "$2" -
