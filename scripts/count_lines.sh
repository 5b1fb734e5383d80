#!/bin/sh
# Non-test Rust by PR 15's rule: every `.rs` file under crates/, src/ and
# examples/ outside a `tests/` directory, counted up to (not including) its
# first `#[cfg(test)]` line. Prints one line per crate and the total, which
# is the "falling line count" ROADMAP's north star quotes.
cd "$(dirname "$0")/.." || exit 1
find crates src examples -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
    case "$f" in
        crates/*) echo "$(echo "$f" | cut -d/ -f1-2) $n" ;;
        *) echo "$(echo "$f" | cut -d/ -f1) $n" ;;
    esac
done | awk '{c[$1]+=$2; t+=$2} END{for (k in c) printf "%-20s %6d\n", k, c[k] | "sort"; close("sort"); printf "%-20s %6d\n", "total", t}'
