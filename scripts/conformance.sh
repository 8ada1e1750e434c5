#!/bin/sh
# conformance.sh — run the declarative scenario conformance suite: the
# checked-in conformance/v1 corpus (coverage/testdata/corpus) executed
# through the public optimizer API under the corpus's execution matrix.
# Three stages, each a gate:
#
#   1. schema validation only (-validate): malformed or unversioned
#      corpus files fail before any optimizer time is spent;
#   2. generator drift check (confgen -check): the checked-in files
#      must match a fresh deterministic regeneration byte for byte;
#   3. the full run: every case under every requested worker count,
#      every invariant checked.
#
# Environment:
#   CONF_SOLVERS   comma-separated solver filter (default: corpus matrix)
#   CONF_WORKERS   comma-separated worker-count filter (default: matrix)
#   CONF_PARALLEL  concurrently executing cases (default: NumCPU)
#   CONF_FLAGS     extra flags for cmd/conformance (e.g. -v, -json)
set -eu

cd "$(dirname "$0")/.."

CORPUS=coverage/testdata/corpus

echo "== conformance: schema validation"
go run ./cmd/conformance -corpus "$CORPUS" -validate

echo "== conformance: generator drift check"
go run ./cmd/confgen -out "$CORPUS" -check

echo "== conformance: full run"
set -- -corpus "$CORPUS"
[ -n "${CONF_SOLVERS:-}" ] && set -- "$@" -solvers "$CONF_SOLVERS"
[ -n "${CONF_WORKERS:-}" ] && set -- "$@" -workers "$CONF_WORKERS"
[ -n "${CONF_PARALLEL:-}" ] && set -- "$@" -parallel "$CONF_PARALLEL"
# shellcheck disable=SC2086 — CONF_FLAGS is intentionally word-split.
go run ./cmd/conformance "$@" ${CONF_FLAGS:-}
