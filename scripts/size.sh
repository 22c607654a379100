#!/usr/bin/env bash
# Prints the size figures ROADMAP aim 2 tracks, one `name value` per line:
#
#   ./scripts/size.sh
#
# - nontest_lines: lines of crates/datampi/src and src/bin, each file
#   counted up to its first `#[cfg(test)]`;
# - jobconfig_with: `JobConfig::with_*` methods;
# - dmpirun_flags: flags `dmpirun` parses;
# - nontest_unwrap_expect: `unwrap()` and `expect(` sites in the same
#   non-test lines.
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() {
    find crates/datampi/src src/bin -name '*.rs' | sort \
        | xargs awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live'
}

echo "nontest_lines $(nontest | wc -l)"
echo "jobconfig_with $(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /pub fn with_/' \
    crates/datampi/src/config.rs | wc -l)"
echo "dmpirun_flags $(grep -cE '^[[:space:]]*"--[a-z-]+"[^=]*=>' src/bin/dmpirun.rs)"
echo "nontest_unwrap_expect $(nontest | grep -oE 'unwrap\(\)|expect\(' | wc -l)"
