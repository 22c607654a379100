#!/usr/bin/env bash
# Prints the size figures ROADMAP aim 2 tracks, one `name value` per line:
#
#   ./scripts/size.sh
#
# - nontest_lines: lines of crates/datampi/src and src/bin, each file
#   counted up to its first `#[cfg(test)]`;
# - workspace_nontest_lines: the same count over every crate's src and
#   src/bin, so code moved between crates is not counted as removed;
# - entry_points: public `run_*` / `supervise_*` job runners in the
#   non-test lines of the runtime, iteration and supervisor modules;
# - jobconfig_with: `JobConfig::with_*` methods;
# - dmpirun_flags: flags `dmpirun` parses;
# - nontest_unwrap_expect: `unwrap()` and `expect(` sites in the same
#   non-test lines.
# - design_lines: lines of DESIGN.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the given files, each up to its first `#[cfg(test)]`.
live() {
    awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live' "$@"
}

# The file names hold no spaces, so word splitting is safe here.
# shellcheck disable=SC2046
nontest() {
    live $(find crates/datampi/src src/bin -name '*.rs' | sort)
}

echo "nontest_lines $(nontest | wc -l)"
# shellcheck disable=SC2046
echo "workspace_nontest_lines $(live $(find crates/*/src src/bin -name '*.rs' | sort) | wc -l)"
echo "entry_points $(live crates/datampi/src/{runtime,iteration,supervisor}.rs \
    | grep -cE '^pub fn (run|supervise)_')"
echo "jobconfig_with $(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /pub fn with_/' \
    crates/datampi/src/config.rs | wc -l)"
echo "dmpirun_flags $(grep -cE '^[[:space:]]*"--[a-z-]+"[^=]*=>' src/bin/dmpirun.rs)"
echo "nontest_unwrap_expect $(nontest | grep -oE 'unwrap\(\)|expect\(' | wc -l)"
echo "design_lines $(wc -l < DESIGN.md)"
