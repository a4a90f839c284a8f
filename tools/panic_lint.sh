#!/usr/bin/env bash
# Ratchet lint on panic sites in the user-input-reachable compile path.
#
# Counts lines holding `.unwrap()`, `.expect(`, `panic!(` or
# `unreachable!(` per source file in the audited crates (rtgen, sched,
# encode, isa, sim, arch, ir, core, dfg, graph, num) and fails when any
# file exceeds its recorded budget in tools/panic_budget.txt. Tests and
# examples are exempt by construction: only `crates/*/src` is scanned,
# and in-file `#[cfg(test)]` modules are excluded by stripping
# everything from the test-module marker onward (repo convention keeps
# unit tests in a trailing `mod tests`).
#
# Lowering a count is welcome — regenerate the budget with:
#   tools/panic_lint.sh --regen
set -euo pipefail
cd "$(dirname "$0")/.."

budget_file=tools/panic_budget.txt
scan_dirs=(crates/rtgen/src crates/sched/src crates/encode/src crates/isa/src crates/sim/src crates/arch/src crates/ir/src crates/core/src crates/dfg/src crates/graph/src crates/num/src)

count_file() {
    # Strip the trailing unit-test module and comment lines, then count
    # panic sites.
    awk '/^#\[cfg\(test\)\]$/ { exit } { print }' "$1" |
        grep -v -E '^[[:space:]]*//' |
        grep -c -E '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' || true
}

if [[ "${1:-}" == "--regen" ]]; then
    {
        echo "# Panic-site budget: <count> <file>, one line per file."
        echo "# Regenerate with tools/panic_lint.sh --regen (only to lower counts"
        echo "# or add files — raising a budget needs review)."
        while IFS= read -r file; do
            echo "$(count_file "$file") $file"
        done < <(find "${scan_dirs[@]}" -name '*.rs' | sort)
    } > "$budget_file"
    echo "wrote $budget_file"
    exit 0
fi

declare -A budget
while read -r count file; do
    [[ -z "${file:-}" || "${count:0:1}" == "#" ]] && continue
    budget[$file]=$count
done < "$budget_file"

fail=0
while IFS= read -r file; do
    count=$(count_file "$file")
    allowed=${budget[$file]:-0}
    if (( count > allowed )); then
        echo "panic lint: $file has $count panic site(s), budget is $allowed" >&2
        fail=1
    fi
done < <(find "${scan_dirs[@]}" -name '*.rs' | sort)

if (( fail )); then
    echo >&2
    echo "New .unwrap()/.expect()/panic!/unreachable! in user-input-reachable" >&2
    echo "code. Convert the site to the typed error taxonomy (see DESIGN.md)," >&2
    echo "or restructure so the invariant needs no panicking call." >&2
    exit 1
fi
echo "panic lint: all $(find "${scan_dirs[@]}" -name '*.rs' | wc -l) files within budget"
