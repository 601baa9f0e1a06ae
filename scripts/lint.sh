#!/usr/bin/env bash
# Static-analysis gate — the exact entry point CI's lint job runs, so a
# local `bash scripts/lint.sh` reproduces the gate before pushing.
#
# Hard gate: go vet, then psdlint (the project's custom analyzer suite:
# determinism, fsyncdiscipline, unsafeconfine, closecheck, ctxpoll) driven
# through `go vet -vettool` so package loading, caching, and test-variant
# packages behave exactly as vet does.
#
# Advisory extras: staticcheck and govulncheck run when they are on PATH
# (CI installs them; a plain local checkout usually has neither — they are
# skipped, not failed, because this container must stay offline-buildable).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> psdlint (custom analyzers via go vet -vettool)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/psdlint" ./cmd/psdlint
go vet -vettool="$tmpdir/psdlint" ./...

# perfbench is its own module (replace psd => ../), so ./... above never
# reaches it: vet and psdlint it separately.
echo "==> go vet + psdlint (perfbench module)"
(cd perfbench && go vet ./... && go vet -vettool="$tmpdir/psdlint" ./...)

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck (advisory)"
  staticcheck ./... || echo "staticcheck: findings above are advisory"
fi
if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck (advisory)"
  govulncheck ./... || echo "govulncheck: findings above are advisory"
fi

echo "lint: OK"
