#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` or `-bench` pattern in the
# CI workflow matches no test, example or fuzz target (for -run) or no
# benchmark (for -bench) in the packages of its step, as `go test -list`
# reports them. Without it a renamed or deleted test or benchmark
# silently drops out of the step that names it.
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
declare -A checked=([run]=0 [bench]=0)

# pattern FLAG LINE prints the pattern LINE gives FLAG, quoted or bare.
pattern() {
	sed -nE "s/.*-$1 '([^']*)'.*/\1/p; t; s/.*-$1 ([^ ]+).*/\1/p" <<<"$2"
}

while IFS= read -r line; do
	read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]+' <<<"$line" | tr '\n' ' ')"
	[[ ${#pkgs[@]} -gt 0 ]] || continue
	for pkg in "${pkgs[@]}"; do
		if [[ -z "${listed[$pkg]+set}" ]]; then
			listed[$pkg]=$(go test -list . "$pkg")
		fi
	done
	for flag in run bench; do
		pat=$(pattern "$flag" "$line")
		[[ -n "$pat" ]] || continue
		if [[ $flag == run ]]; then kinds='^(Test|Example|Fuzz)'; what=test; else kinds='^Benchmark'; what=benchmark; fi
		names=""
		for pkg in "${pkgs[@]}"; do
			names+="$(grep -E "$kinds" <<<"${listed[$pkg]}" || true)"$'\n'
		done
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			[[ "$alt" == '^$' ]] && continue
			checked[$flag]=$((checked[$flag] + 1))
			if ! grep -Eq -- "$alt" <<<"$names"; then
				echo "$wf: -$flag alternative '$alt' matches no $what in ${pkgs[*]}"
				status=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench) ' "$wf")
echo "checked ${checked[run]} -run and ${checked[bench]} -bench alternatives in $wf"
exit "$status"
