#!/usr/bin/env bash
# Prints the ccache statistics of the build that just ran and fails when
# ccache recorded zero compile calls: a broken compiler-launcher wiring
# degrades silently into full rebuilds. Run after the build step, with the
# stats zeroed (ccache -z) before it:
#
#     bash scripts/ccache_gate.sh
set -euo pipefail

ccache -s
calls=$(ccache --print-stats | awk -F'\t' '
  $1 == "cache_miss" || $1 == "direct_cache_hit" || $1 == "preprocessed_cache_hit" { sum += $2 }
  END { print sum + 0 }')
echo "ccache-mediated compilations this build: $calls"
if [ "$calls" -eq 0 ]; then
  echo "::error::ccache saw zero compile calls; the compiler launcher is silently disabled"
  exit 1
fi
