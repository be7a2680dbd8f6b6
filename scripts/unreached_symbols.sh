#!/usr/bin/env bash
# Lists the xbarlife:: library functions that no non-test binary reaches.
#
#   scripts/unreached_symbols.sh [BUILD_DIR]
#
# Builds every non-test binary unoptimized (Debug, so nothing is inlined
# away) with -ffunction-sections -fdata-sections -Wl,--gc-sections: the
# programs under apps/, bench/ and examples/ from the top-level build with
# tests off, and bench_e2e's xbarlife_e2e from its own package. A text
# symbol of the xbarlife:: namespace that some library archive defines and
# no linked binary keeps is unreached.
#
# Exits 1 when an unreached symbol is missing from
# scripts/unreached_allowlist.txt, or when an allowlist entry names a
# symbol that is now reached or gone (a stale entry); both are printed.
# Each allowlist line is a demangled symbol, " # ", and a one-line reason.
#
# The check is a lower bound: a virtual function counts as reached through
# its vtable, and a header-inline function that no library file emits
# never appears.
#
# BUILD_DIR (default ${TMPDIR:-/tmp}/xbarlife-unreached) holds the two
# build trees and must lie outside the source tree; a second run reuses it.
set -euo pipefail

root=$(realpath "$(dirname "$0")/..")
work=$(realpath -m "${1:-${TMPDIR:-/tmp}/xbarlife-unreached}")
case "$work/" in
  "$root"/*) echo "unreached_symbols: $work is inside the source tree" >&2
             exit 2 ;;
esac
mkdir -p "$work"
allowlist=$root/scripts/unreached_allowlist.txt
jobs=${JOBS:-2}
generator=()
command -v ninja > /dev/null && generator=(-G Ninja)

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S "$root" -B "$work/top" "${generator[@]}" "${flags[@]}" \
      -DXBARLIFE_BUILD_TESTS=OFF > /dev/null
cmake --build "$work/top" -j "$jobs" > /dev/null
cmake -S "$root/bench_e2e" -B "$work/e2e" "${generator[@]}" "${flags[@]}" \
      > /dev/null
cmake --build "$work/e2e" -j "$jobs" --target xbarlife_e2e > /dev/null

# Defined text symbols of the xbarlife namespace, one demangled name a line.
text_symbols() {
  nm -C --defined-only "$@" 2> /dev/null \
    | sed -n 's/^[0-9a-f]* [TW] \(xbarlife::.*\)$/\1/p'
}

defined=$(text_symbols "$work"/top/src/*/libxbarlife_*.a | sort -u)
binaries=$(find "$work/top/apps" "$work/top/bench" "$work/top/examples" \
                -maxdepth 1 -type f -perm -u+x)
binaries="$binaries $work/e2e/xbarlife_e2e"
# shellcheck disable=SC2086  # the binary paths hold no spaces
reached=$(text_symbols $binaries | sort -u)
unreached=$(comm -23 <(printf '%s\n' "$defined") <(printf '%s\n' "$reached") \
              | sed '/^$/d')
allowed=$(sed -e '/^#/d' -e '/^$/d' -e 's/ # .*$//' "$allowlist" | sort -u)

new=$(comm -23 <(printf '%s\n' "$unreached") <(printf '%s\n' "$allowed") \
        | sed '/^$/d')
stale=$(comm -13 <(printf '%s\n' "$unreached") <(printf '%s\n' "$allowed") \
          | sed '/^$/d')

echo "unreached_symbols: $(wc -w <<< "$binaries") binaries," \
     "$(grep -c . <<< "$defined") library symbols," \
     "$(grep -c . <<< "$unreached" || true) unreached"
status=0
if [ -n "$new" ]; then
  echo "Unreached by any non-test binary and not in the allowlist:"
  sed 's/^/  /' <<< "$new"
  status=1
fi
if [ -n "$stale" ]; then
  echo "Stale allowlist entries (now reached, or no longer defined):"
  sed 's/^/  /' <<< "$stale"
  status=1
fi
exit $status
