//! Property-based tests of the workloads' scan kernels against naive
//! reference scans.

use proptest::prelude::*;

use dmpi_workloads::grep::count_matches;

/// Leftmost, non-overlapping matches, found by comparing the needle at
/// every position.
fn naive_count(haystack: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() {
        return 0;
    }
    let (mut count, mut i) = (0, 0);
    while i + needle.len() <= haystack.len() {
        if haystack[i..].starts_with(needle) {
            count += 1;
            i += needle.len();
        } else {
            i += 1;
        }
    }
    count
}

/// Bytes over a three-letter alphabet, so that needles recur, overlap
/// themselves (`"aa"` in `"aaaaa"`) and are prefixes of their own shifts.
fn abc(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn count_matches_equals_the_naive_scan(haystack in abc(0..40), needle in abc(1..5)) {
        prop_assert_eq!(count_matches(&haystack, &needle), naive_count(&haystack, &needle));
    }

    #[test]
    fn needles_longer_than_the_haystack_never_match(
        haystack in abc(0..4),
        needle in abc(1..5),
    ) {
        let needle = [&haystack[..], &needle].concat();
        prop_assert_eq!(count_matches(&haystack, &needle), 0);
    }
}
