//! User-facing task abstractions: O functions, A functions, and the
//! grouped-value iteration surface.
//!
//! DataMPI's "diversified" modes map onto two function shapes:
//!
//! * **Common mode** — the A side receives records grouped by key in hash
//!   order (no global sort): cheap, used by counting workloads.
//! * **MapReduce mode** — the A side receives groups in key-sorted order:
//!   what Sort and the Mahout-derived applications need.
//!
//! The mode is chosen by `JobConfig::sorted_grouping`. The concrete types
//! live in `dmpi_common::group` so the baseline engines can speak the same
//! language; they are re-exported here as the library's public surface.

use std::fmt;
use std::sync::Arc;

pub use dmpi_common::group::{
    group_hashed, group_sorted, BatchCollector, Collector, GroupedValues,
};

/// An O-side pre-aggregation function ("combiner" in MapReduce terms),
/// installed via [`JobConfig::with_combiner`](crate::JobConfig::with_combiner).
///
/// When set, each O task's per-destination buffer is grouped by key and
/// run through this function *before* the frame is shipped, so repeated
/// keys collapse locally and fewer bytes cross the interconnect. The
/// combiner sees the same `(group, collector)` shape as an A function
/// and usually *is* the A function (e.g. WordCount's sum).
///
/// # Correctness requirement
///
/// The job's final output must not change. That holds whenever the
/// A function `a` is insensitive to how its input multiset of values is
/// pre-folded — in practice: the combiner implements an **associative
/// and commutative** reduction and `a` folds the same operation. The
/// runtime cannot check this; a non-associative combiner silently
/// changes results.
#[derive(Clone)]
pub struct Combiner(Arc<CombinerFn>);

/// The boxed reduction a [`Combiner`] wraps.
type CombinerFn = dyn Fn(&GroupedValues, &mut dyn Collector) + Send + Sync;

impl Combiner {
    /// Wraps a grouped-reduction function as a combiner.
    pub fn new(f: impl Fn(&GroupedValues, &mut dyn Collector) + Send + Sync + 'static) -> Self {
        Combiner(Arc::new(f))
    }

    /// Runs the combiner on one local key group, emitting the folded
    /// records into `out`.
    pub fn apply(&self, group: &GroupedValues, out: &mut dyn Collector) {
        (self.0)(group, out)
    }
}

impl fmt::Debug for Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Combiner(..)")
    }
}
