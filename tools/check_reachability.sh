#!/usr/bin/env bash
# Reachability gate: every function the library defines must be kept by a
# program that ships, not only by the tests.
#
# Builds every non-test target of the repository (the CLI, the benches,
# the examples) and perfbench's canids_perfbench, with tests off, at -O0
# (so inlining hides no call) with one section per function and
# --gc-sections (so the linker drops every function nothing calls). A
# function is reached when its demangled name is defined in one of those
# binaries. The gate fails when:
#   - a T/W symbol of libcanids_lib.a whose demangled name starts with
#     canids:: (template instantiations and lambdas excluded) is reached by
#     no binary and is not on the allowlist;
#   - an allowlist line has no reason, or names a function that is now
#     reached or that the library no longer defines;
#   - an expected binary was not built (e.g. a bench skipped because
#     google-benchmark is missing).
#
# Usage: tools/check_reachability.sh [BUILD_DIR]   (default .reach_build)
# Run from anywhere; BUILD_DIR is relative to the repository root.
# Exit status: 0 when the gate passes, 1 when it fails.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${1:-.reach_build}
allowlist=tools/reachability_allowlist.txt
jobs=$(nproc 2>/dev/null || echo 2)

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
main_configure=(cmake -S . -B "$out/main" "${flags[@]}" -DCANIDS_BUILD_TESTS=OFF)
main_build=(cmake --build "$out/main" -j "$jobs")
perf_configure=(cmake -S perfbench -B "$out/perfbench" "${flags[@]}")
perf_build=(cmake --build "$out/perfbench" -j "$jobs" --target canids_perfbench)

echo "== reachability: reproduce from the repository root with"
echo "  tools/check_reachability.sh $out"
echo "== or step by step:"
for command in "${main_configure[*]@Q}" "${main_build[*]@Q}" \
               "${perf_configure[*]@Q}" "${perf_build[*]@Q}"; do
  echo "  $command"
done
cat <<'EOF'
== what this gate cannot see:
  - header-only functions: an unused inline function is never emitted,
    so it is in neither the library nor a binary;
  - virtual overrides of a class constructed somewhere: its vtable keeps
    every override, called or not.
EOF

binaries=("$out/main/canids" "$out/perfbench/canids_perfbench")
for source in bench/*.cpp; do
  binaries+=("$out/main/$(basename "$source" .cpp)")
done
for source in examples/*.cpp; do
  binaries+=("$out/main/example_$(basename "$source" .cpp)")
done

# A binary left over from an earlier build must not stand in for one this
# configuration no longer builds.
rm -f "${binaries[@]}"
"${main_configure[@]}" > /dev/null
"${main_build[@]}" > /dev/null
"${perf_configure[@]}" > /dev/null
"${perf_build[@]}" > /dev/null

status=0
fail() {
  echo "FAIL: $*"
  status=1
}

for binary in "${binaries[@]}"; do
  [ -x "$binary" ] || fail "expected binary not built: $binary"
done
[ "$status" = 0 ] || exit 1

# Demangled canids:: functions, one per line, minus template
# instantiations (a '<' in the qualified name, operators aside) and
# lambdas.
canids_functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TW]$/ { sub(/^[^ ]+ [TW] /, ""); print }' |
    grep '^canids::' | grep -v '{lambda' |
    awk '{ name = $0; sub(/\(.*/, "", name)
           gsub(/operator(<<=|<<|<=>|<=|<)/, "", name)
           if (index(name, "<") == 0) print }' |
    sort -u
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
canids_functions "$out/main/libcanids_lib.a" > "$work/defined"
canids_functions "${binaries[@]}" > "$work/reached"

: > "$work/allowed"
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  signature=${line%% #*}
  reason=${line#"$signature"}  # " # why", or empty when there is no " #"
  signature=${signature%"${signature##*[![:space:]]}"}
  if [ -z "${reason//[[:space:]#]/}" ]; then
    fail "allowlist line has no reason: $line"
    continue
  fi
  echo "$signature" >> "$work/allowed"
  if ! grep -qxF -- "$signature" "$work/defined"; then
    fail "allowlisted but not defined by the library: $signature"
  elif grep -qxF -- "$signature" "$work/reached"; then
    fail "allowlisted but reached: $signature"
  fi
done < "$allowlist"

sort -u -o "$work/allowed" "$work/allowed"
comm -23 "$work/defined" "$work/reached" | comm -23 - "$work/allowed" \
  > "$work/unreached"
while IFS= read -r signature; do
  fail "reached by no shipped binary: $signature"
done < "$work/unreached"

echo "== $(wc -l < "$work/defined") library functions," \
  "$(comm -12 "$work/defined" "$work/reached" | wc -l) reached by" \
  "${#binaries[@]} binaries, $(wc -l < "$work/allowed") allowlisted"
if [ "$status" = 0 ]; then
  echo "reachability OK"
fi
exit "$status"
