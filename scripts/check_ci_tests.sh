#!/usr/bin/env bash
# check_ci_tests.sh fails when a test name that CI selects matches no test.
#
# `go test -run X` passes when X matches nothing, so a renamed or deleted
# test silently drops out of the gate that names it. This script reads every
# `go test` command line of the workflow (comment lines are skipped), takes
# each alternative of its -run, -bench and -fuzz patterns, and requires a
# `func` in a _test.go file of the named packages whose name starts with it.
# Alternatives that select nothing or everything on purpose ('^$', NONE, .)
# are skipped; any other alternative must be a plain name (a subtest path
# like TestA/case is checked by its TestA part).
#
# Usage: scripts/check_ci_tests.sh [workflow.yml]
#   (default .github/workflows/ci.yml; run from the repository root)
set -euo pipefail

wf="${1:-.github/workflows/ci.yml}"
[ -f "$wf" ] || { echo "check_ci_tests: no workflow file $wf" >&2; exit 2; }

fail=0
checked=0

# check_alt ALT DIR... reports whether some _test.go func under the package
# directories starts with ALT.
check_alt() {
	local alt="$1"
	shift
	local files=()
	local d
	for d in "$@"; do
		case "$d" in
		*/...) files+=($(find "${d%/...}" -name '*_test.go')) ;;
		*) files+=("${d%/}"/*_test.go) ;;
		esac
	done
	[ "${#files[@]}" -gt 0 ] && grep -qE "^func ${alt}[A-Za-z0-9_]*\(" "${files[@]}" 2>/dev/null
}

while IFS= read -r line; do
	# Skip comment lines; keep the command from its first `go test` on.
	case "$(sed 's/^[[:space:]]*//' <<<"$line")" in
	'#'*) continue ;;
	esac
	cmd="go test${line#*go test}"
	# Split into shell words (xargs honors the quotes around patterns).
	mapfile -t words < <(xargs printf '%s\n' <<<"$cmd")
	pkgs=()
	pats=()
	for ((i = 2; i < ${#words[@]}; i++)); do
		w="${words[$i]}"
		case "$w" in
		'|' | '&&' | ';' | '2>&1') break ;;
		-run | -bench | -fuzz) i=$((i + 1)); pats+=("${words[$i]}") ;;
		-run=* | -bench=* | -fuzz=*) pats+=("${w#*=}") ;;
		. | ./*) pkgs+=("$w") ;;
		esac
	done
	[ "${#pats[@]}" -gt 0 ] || continue
	[ "${#pkgs[@]}" -gt 0 ] || pkgs=(.)
	for pat in "${pats[@]}"; do
		IFS='|' read -r -a alts <<<"$pat"
		for alt in "${alts[@]}"; do
			alt="${alt#^}"
			alt="${alt%\$}"
			alt="${alt%%/*}"
			case "$alt" in
			'' | . | NONE) continue ;;
			esac
			checked=$((checked + 1))
			if ! [[ "$alt" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]]; then
				echo "check_ci_tests: unsupported pattern alternative '$alt' in: $cmd" >&2
				fail=1
			elif ! check_alt "$alt" "${pkgs[@]}"; then
				echo "check_ci_tests: '$alt' matches no test func in ${pkgs[*]}: $cmd" >&2
				fail=1
			fi
		done
	done
done < <(grep -E 'go test' "$wf")

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_ci_tests: all $checked test names in $wf match a test"
