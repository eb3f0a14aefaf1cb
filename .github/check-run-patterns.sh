#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the CI
# workflow matches no test, example or fuzz target in the packages of
# its step (as `go test -list` reports them). Without it a renamed or
# deleted test silently drops out of the step that names it.
#
#   bash .github/check-run-patterns.sh [.github/workflows/ci.yml]
#
# `^$` (run no tests, benchmarks only) is the one alternative allowed to
# match nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
wf="${1:-.github/workflows/ci.yml}"
declare -A listed
status=0
checked=0
while IFS= read -r line; do
	pat=$(sed -nE "s/.*-run '([^']*)'.*/\1/p; t; s/.*-run ([^ ]+).*/\1/p" <<<"$line")
	read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]+' <<<"$line" | tr '\n' ' ')"
	[[ -n "$pat" && ${#pkgs[@]} -gt 0 ]] || continue
	names=""
	for pkg in "${pkgs[@]}"; do
		if [[ -z "${listed[$pkg]+set}" ]]; then
			listed[$pkg]=$(go test -list . "$pkg" | grep -E '^(Test|Example|Fuzz)' || true)
		fi
		names+="${listed[$pkg]}"$'\n'
	done
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		[[ "$alt" == '^$' ]] && continue
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "$wf: -run alternative '$alt' matches no test in ${pkgs[*]}"
			status=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$wf")
echo "checked $checked -run alternatives in $wf"
exit "$status"
