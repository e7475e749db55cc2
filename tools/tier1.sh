#!/usr/bin/env bash
# Tier-1 gate: configure + build + full test suite (ROADMAP.md), then the
# post-build gates in tools/tier1_gates.sh.
#
# Usage: tools/tier1.sh [build-dir]   (default: build)
# Also wired as the CMake `check` target: cmake --build build --target check
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j
tools/tier1_gates.sh "$BUILD_DIR"
