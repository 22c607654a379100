#!/usr/bin/env bash
# Same-session parent/change pairs for the benchmark:
#
#   scripts/pairs.sh <base> <head> [--workload W] [--pairs N] [--seconds S]
#
# Clones each commit into its own directory, builds that commit's own
# `benchmark/` offline into its own CARGO_TARGET_DIR, then runs the two
# `dmpi-benchmark` binaries alternately, each from its own checkout root
# (so a result file records its own commit), swapping which side goes
# first on each pair. Every result file is kept as
# `results/result-{base,head}-<pair>.json`, and the script ends with
# `dmpi-benchmark compare`'s table for each pair, printed by the head's
# binary. It exits 1 if any pair has a `regressed` row or its compare
# fails.
#
# Absolute numbers move between sessions on a shared host; only pairs run
# side by side mean anything, which is why both sides run here, in turn.
#
# Defaults: `--workload all`, 4 pairs, the benchmark's own run length.
# The clones, target dirs and results live under $PAIRS_DIR (default
# ${TMPDIR:-/tmp}/dmpi-pairs); the target dirs are reused between runs.
# The two commits must carry the same BENCHMARK.json, or the script
# exits 2 before it clones or builds anything.
set -euo pipefail
shopt -s inherit_errexit
repo="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    echo "usage: scripts/pairs.sh <base> <head> [--workload W] [--pairs N] [--seconds S]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1 head_rev=$2
shift 2
workload=all pairs=4 seconds=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=(--seconds "$2") ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

commit() {
    git -C "$repo" rev-parse --verify --quiet "$1^{commit}" \
        || { echo "pairs.sh: $1 is not a commit" >&2; exit 2; }
}
base=$(commit "$base_rev")
head=$(commit "$head_rev")

# The judge must be the same on both sides.
spec() {
    git -C "$repo" rev-parse --verify --quiet "$1:BENCHMARK.json" 2>/dev/null \
        || { echo "pairs.sh: $2 ($1) has no BENCHMARK.json" >&2; exit 2; }
}
base_spec=$(spec "$base" "$base_rev")
head_spec=$(spec "$head" "$head_rev")
if [ "$base_spec" != "$head_spec" ]; then
    echo "pairs.sh: $base_rev and $head_rev carry different BENCHMARK.json files" >&2
    exit 2
fi

work=${PAIRS_DIR:-${TMPDIR:-/tmp}/dmpi-pairs}
mkdir -p "$work/results"

# Clones `side`'s commit afresh and builds its benchmark; prints the binary.
build() {
    local side=$1 sha=$2
    local src="$work/$side/src" target="$work/$side/target"
    rm -rf "$src"
    git clone --quiet --no-checkout "$repo" "$src"
    git -C "$src" checkout --quiet --detach "$sha"
    echo "== building $side ($sha) ==" >&2
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
    echo "$target/release/dmpi-benchmark"
}
base_bin=$(build base "$base")
head_bin=$(build head "$head")

run() {
    local side=$1 bin=$2 pair=$3
    echo "== pair $pair: $side ==" >&2
    (cd "$work/$side/src" && "$bin" run --workload "$workload" "${seconds[@]}" \
        --out "$work/results/result-$side-$pair.json")
}
for pair in $(seq "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$base_bin" "$pair"
        run head "$head_bin" "$pair"
    else
        run head "$head_bin" "$pair"
        run base "$base_bin" "$pair"
    fi
done

regressed=0
for pair in $(seq "$pairs"); do
    echo
    echo "== pair $pair: base $base_rev vs head $head_rev =="
    "$head_bin" compare "$work/results/result-base-$pair.json" \
        "$work/results/result-head-$pair.json" \
        --benchmark "$work/head/src/BENCHMARK.json" || regressed=$((regressed + 1))
done
echo
echo "$pairs pairs, $regressed with a regressed row (or a failed compare); results in $work/results"
[ "$regressed" -eq 0 ]
