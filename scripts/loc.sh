#!/usr/bin/env bash
# Prints the non-test Rust lines of every crate of the workspace and
# their total. A file under a crate's `src/` counts the lines above the
# `#[cfg(test)]` that opens its `mod tests {`, or all of them without
# one: a test-only item above it (a `#[cfg(test)] fn`, a
# `#[cfg(test)] mod name;`) does not end the count. A file whose `mod`
# declaration sits under `#[cfg(test)]` (`owner/harness.rs`,
# `fold_parity.rs`, `test_util.rs`) is test code and counts none.
# Integration tests, examples, `benchmark/` and `vendor/` are
# left out. Gates nothing.
#
#   scripts/loc.sh            # from any directory
set -euo pipefail
cd "$(dirname "$0")/.."

# The files of the test-only modules that the files named declare: a
# `mod name;` on the line after a `#[cfg(test)]`.
test_modules() {
  local f dir
  for f in "$@"; do
    dir=$(dirname "$f")
    case $(basename "$f") in
      lib.rs | main.rs | mod.rs) ;;
      *) dir="$dir/$(basename "$f" .rs)" ;;
    esac
    awk -v dir="$dir" '
      prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && match($0, /mod [a-z_0-9]+;/) {
        name = substr($0, RSTART + 4, RLENGTH - 5)
        print dir "/" name ".rs"
        print dir "/" name "/mod.rs"
      }
      { prev = $0 }' "$f"
  done
}

total=0
for src in crates/*/src src; do
  crate=$(awk -F'"' '/^name *=/ { print $2; exit }' "$(dirname "$src")/Cargo.toml")
  mapfile -t files < <(find "$src" -name '*.rs' | sort)
  skip=$(test_modules "${files[@]}")
  lines=0
  for f in "${files[@]}"; do
    grep -qxF "$f" <<<"$skip" && continue
    n=$(awk '
      /^[ \t]*mod tests \{/ && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { n--; exit }
      { n++; prev = $0 }
      END { print n + 0 }' "$f")
    lines=$((lines + n))
  done
  printf '%-18s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-18s %6d\n' total "$total"
