//! Job configuration for the DataMPI runtime.

use dmpi_common::compare::SortKernel;
use dmpi_common::units::{KB, MB};
use dmpi_common::{Error, Result};

use crate::comm::DEFAULT_MAILBOX_CAPACITY;
use crate::fault::FaultPlan;
use crate::observe::Observer;
use crate::speculate::{Scheduling, SpeculationConfig};
use crate::task::Combiner;
use crate::transport::Backend;

/// Default coalescing watermark for the TCP event loop: raw batch bytes
/// accumulated before a wire batch seals (it also seals early whenever
/// the send window runs dry, so latency never waits on this).
pub const DEFAULT_WIRE_BATCH_BYTES: usize = 256 * KB as usize;

/// Per-batch wire compression for the TCP backend (see DESIGN.md §15:
/// the batch body is compressed after per-frame CRC stamping, so the
/// receiver's integrity gate is unchanged).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireCompression {
    /// Ship raw batch bodies (the default — loopback and fast networks
    /// are rarely compression-bound).
    #[default]
    None,
    /// LZ4-block-compress each sealed batch, keeping the compressed body
    /// only when it is actually smaller.
    Lz4,
}

impl WireCompression {
    /// Stable lowercase name, used by CLI flags and artifact JSON.
    pub fn name(self) -> &'static str {
        match self {
            WireCompression::None => "none",
            WireCompression::Lz4 => "lz4",
        }
    }

    /// Parses a compression name: `none` (or `off`) or `lz4`.
    pub fn parse(s: &str) -> Option<WireCompression> {
        match s {
            "none" | "off" => Some(WireCompression::None),
            "lz4" => Some(WireCompression::Lz4),
            _ => None,
        }
    }
}

/// Configuration of one DataMPI job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Number of worker ranks (threads standing in for MPI processes).
    /// Each rank hosts both an O executor and an A partition.
    pub ranks: usize,
    /// Partitioned send-buffer flush threshold in bytes: when one
    /// destination's buffer exceeds this, it is shipped asynchronously
    /// (the pipelining knob; the paper's DataMPI overlaps this with
    /// computation).
    pub flush_threshold: usize,
    /// If `false`, emitted data is held until the O task finishes and then
    /// shipped in one step — the "staged" ablation that mimics Hadoop's
    /// materialize-then-shuffle behaviour.
    pub pipelined: bool,
    /// Per-rank in-memory budget for the A-side intermediate store; beyond
    /// it partitions spill to simulated disk.
    pub memory_budget: usize,
    /// Whether completed O tasks checkpoint their emitted pairs for
    /// restart.
    pub checkpointing: bool,
    /// Unused since every job groups by key-sorted merge; kept because
    /// `benchmark/src/layers.rs` reads it.
    pub sorted_grouping: bool,
    /// Fault injection: a deterministic, seeded schedule of O-task
    /// errors, rank deaths, straggler delays, and frame corruptions
    /// ([`FaultPlan`]). `None` (the default) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Observability sink: when installed, ranks record phase spans and
    /// live counters into it ([`crate::observe`]). `None` (the default)
    /// is the no-op sink — every hook is a skipped `Option` check.
    pub observer: Option<Observer>,
    /// Which interconnect moves frames between ranks: the in-process
    /// channel fabric (default) or a real TCP mesh
    /// ([`crate::transport`]).
    pub transport: Backend,
    /// Capacity, in frames, of each rank's mailbox. Senders block while
    /// the destination mailbox is full — see `comm.rs` for the
    /// deadlock-freedom argument.
    pub mailbox_capacity: usize,
    /// TCP backend only: the frame-coalescing watermark — raw bytes a
    /// wire batch accumulates before sealing (default
    /// [`DEFAULT_WIRE_BATCH_BYTES`]; clamped by the encoder to
    /// 4 KiB..=64 MiB). Batches also seal whenever the peer's send
    /// window runs dry, so this bounds batching, it never adds latency.
    pub wire_batch_bytes: usize,
    /// TCP backend only: per-batch wire compression
    /// ([`WireCompression::Lz4`] or the default `None`).
    pub wire_compression: WireCompression,
    /// O-side pre-aggregation ([`Combiner`]): when set, each O task's
    /// per-destination buffer is key-grouped and folded through this
    /// function before its frame is shipped, cutting wire bytes for
    /// associative workloads (WordCount, Grep). `None` (the default)
    /// ships every emitted pair unmodified.
    pub combiner: Option<Combiner>,
    /// Unused since the A-side store sorts an index over frame bytes
    /// (one kernel, see [`dmpi_common::compare::sort_index`]); kept
    /// because the benchmark package reads the field.
    pub sort_kernel: SortKernel,
    /// Straggler defense ([`crate::speculate`]): progress heartbeats,
    /// median-based outlier detection, and speculative duplicate attempts
    /// with first-writer-wins commit. Disabled by default — the direct
    /// emission hot path is untouched unless `speculation.enabled`.
    /// In-proc only: a rank that is a process of its own (`dmpirun`,
    /// the service) has no shared board and never speculates.
    pub speculation: SpeculationConfig,
    /// How O splits are assigned to ranks: the classic shared queue
    /// (default) or a static `task % ranks` pinning with optional work
    /// stealing. Output bytes are identical in every mode. In-proc
    /// only: separate processes always use the static pinning.
    pub scheduling: Scheduling,
    /// Spill directory for the A-side store: when set, sealed runs are
    /// written as indexed, block-formatted files under it (the
    /// external-memory path for data ≫ RAM); `None` (the default) keeps
    /// runs as in-memory images in the same format. Grouped output is
    /// byte-identical either way — see DESIGN.md §16.
    pub spill_dir: Option<std::path::PathBuf>,
    /// LZ4 block compression for sealed spill runs (reuses the wire
    /// codec; each block's CRC covers the uncompressed bytes, and the
    /// compressed form is kept only when smaller).
    pub spill_compression: WireCompression,
    /// Raw-byte budget of one spill-run block — the unit of read, CRC
    /// check, decompression, index skip and checkpoint resume. Default
    /// [`crate::spillfmt::DEFAULT_SPILL_BLOCK_BYTES`].
    pub spill_block_bytes: usize,
}

impl JobConfig {
    /// A small default suitable for tests and examples.
    pub fn new(ranks: usize) -> Self {
        JobConfig {
            ranks,
            flush_threshold: MB as usize,
            pipelined: true,
            memory_budget: 64 * MB as usize,
            checkpointing: false,
            sorted_grouping: true,
            faults: None,
            observer: None,
            transport: Backend::InProc,
            mailbox_capacity: DEFAULT_MAILBOX_CAPACITY,
            wire_batch_bytes: DEFAULT_WIRE_BATCH_BYTES,
            wire_compression: WireCompression::default(),
            combiner: None,
            sort_kernel: SortKernel::default(),
            speculation: SpeculationConfig::default(),
            scheduling: Scheduling::default(),
            spill_dir: None,
            spill_compression: WireCompression::default(),
            spill_block_bytes: crate::spillfmt::DEFAULT_SPILL_BLOCK_BYTES,
        }
    }

    /// Validates invariants.
    pub fn validate(&self) -> Result<()> {
        if self.ranks == 0 {
            return Err(Error::Config("need at least one rank".into()));
        }
        if self.flush_threshold == 0 {
            return Err(Error::Config("flush threshold must be positive".into()));
        }
        if self.memory_budget == 0 {
            return Err(Error::Config("memory budget must be positive".into()));
        }
        if self.mailbox_capacity == 0 {
            return Err(Error::Config("mailbox capacity must be positive".into()));
        }
        if self.wire_batch_bytes == 0 {
            return Err(Error::Config(
                "wire batch watermark must be positive".into(),
            ));
        }
        if self.spill_block_bytes == 0 {
            return Err(Error::Config("spill block size must be positive".into()));
        }
        self.speculation.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        Ok(())
    }

    /// Builder: resize the job to `ranks` worker ranks. The elastic
    /// supervisor uses this to shrink or grow the mesh between attempts.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Builder: set pipelining.
    pub fn with_pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Builder: set checkpointing.
    pub fn with_checkpointing(mut self, on: bool) -> Self {
        self.checkpointing = on;
        self
    }

    /// Builder: set the A-store memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Builder: set the flush threshold.
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }

    /// Builder: install a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builder: install an observability sink (tracing + metrics).
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builder: select the interconnect backend.
    pub fn with_transport(mut self, backend: Backend) -> Self {
        self.transport = backend;
        self
    }

    /// Builder: set the TCP frame-coalescing watermark (raw batch
    /// bytes before a seal).
    pub fn with_wire_batch_bytes(mut self, bytes: usize) -> Self {
        self.wire_batch_bytes = bytes;
        self
    }

    /// Builder: set per-batch wire compression for the TCP backend.
    pub fn with_wire_compression(mut self, compression: WireCompression) -> Self {
        self.wire_compression = compression;
        self
    }

    /// Builder: install an O-side combiner (pre-aggregation before the
    /// shuffle). The combiner must be an associative, commutative
    /// reduction compatible with the job's A function — see
    /// [`Combiner`]'s correctness requirement.
    pub fn with_combiner(mut self, combiner: Combiner) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// No-op, kept because `benchmark/src/run.rs` calls it (ROADMAP item 1 unpins it).
    pub fn with_o_parallelism(self, _workers: usize) -> Self {
        self
    }

    /// Builder: configure straggler defense (speculative duplicate
    /// attempts with first-writer-wins commit).
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// Builder: select the O-split scheduling mode.
    pub fn with_scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Builder: spill sealed runs to files under `dir` (the
    /// external-memory path; runs are cleaned up when their last handle
    /// drops, covering failed and elastic attempts).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder: LZ4-compress spill-run blocks.
    pub fn with_spill_compression(mut self, compression: WireCompression) -> Self {
        self.spill_compression = compression;
        self
    }

    /// Builder: set the spill-run block budget (raw bytes per block).
    pub fn with_spill_block_bytes(mut self, bytes: usize) -> Self {
        self.spill_block_bytes = bytes;
        self
    }

    /// The spill-run sealing parameters this config implies (untagged —
    /// the runtime tags runs per rank and attempt).
    pub fn spill_config(&self) -> crate::spillfmt::SpillConfig {
        crate::spillfmt::SpillConfig {
            dir: self.spill_dir.clone(),
            compress: self.spill_compression == WireCompression::Lz4,
            block_bytes: self.spill_block_bytes,
            ..crate::spillfmt::SpillConfig::default()
        }
    }

    /// Builder: inject a single O-task error (shorthand for the most
    /// common single-fault plan).
    pub fn with_o_task_fault(self, task: usize, on_attempt: u32) -> Self {
        let plan = self
            .faults
            .clone()
            .unwrap_or_default()
            .fail_o_task(task, on_attempt);
        self.with_faults(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        JobConfig::new(4).validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(JobConfig::new(0).validate().is_err());
        assert!(JobConfig::new(1)
            .with_flush_threshold(0)
            .validate()
            .is_err());
        assert!(JobConfig::new(1).with_memory_budget(0).validate().is_err());
        let mut no_mailbox = JobConfig::new(1);
        no_mailbox.mailbox_capacity = 0;
        assert!(no_mailbox.validate().is_err());
        assert!(JobConfig::new(1)
            .with_wire_batch_bytes(0)
            .validate()
            .is_err());
        // An invalid fault plan makes the whole config invalid.
        let plan = FaultPlan::new(0).straggler(0, 0, FaultPlan::MAX_STRAGGLER_MS + 1);
        assert!(JobConfig::new(1).with_faults(plan).validate().is_err());
        // So does an invalid (enabled) speculation config.
        let spec = SpeculationConfig::enabled().with_slow_factor(0.1);
        assert!(JobConfig::new(1).with_speculation(spec).validate().is_err());
    }

    #[test]
    fn ranks_speculation_and_scheduling_builders() {
        let c = JobConfig::new(2)
            .with_ranks(5)
            .with_speculation(SpeculationConfig::enabled())
            .with_scheduling(Scheduling::Static {
                work_stealing: true,
            });
        assert_eq!(c.ranks, 5);
        assert!(c.speculation.enabled);
        assert_eq!(
            c.scheduling,
            Scheduling::Static {
                work_stealing: true
            }
        );
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = JobConfig::new(2)
            .with_pipelined(false)
            .with_checkpointing(true)
            .with_memory_budget(123)
            .with_flush_threshold(456)
            .with_o_task_fault(1, 0);
        assert!(!c.pipelined);
        assert!(c.checkpointing);
        assert_eq!(c.memory_budget, 123);
        assert_eq!(c.flush_threshold, 456);
        let plan = c.faults.as_ref().expect("plan installed");
        assert!(plan.o_task_error(1, 0));
        assert!(!plan.o_task_error(1, 1));
    }

    #[test]
    fn wire_knobs_build_and_parse() {
        let c = JobConfig::new(2)
            .with_wire_batch_bytes(64 * 1024)
            .with_wire_compression(WireCompression::Lz4);
        assert_eq!(c.wire_batch_bytes, 64 * 1024);
        assert_eq!(c.wire_compression, WireCompression::Lz4);
        c.validate().unwrap();
        assert_eq!(WireCompression::parse("lz4"), Some(WireCompression::Lz4));
        assert_eq!(WireCompression::parse("none"), Some(WireCompression::None));
        assert_eq!(WireCompression::parse("off"), Some(WireCompression::None));
        assert_eq!(WireCompression::parse("zstd"), None);
        assert_eq!(WireCompression::Lz4.name(), "lz4");
        assert_eq!(WireCompression::None.name(), "none");
    }

    #[test]
    fn spill_knobs_build_and_validate() {
        let c = JobConfig::new(2)
            .with_spill_dir("/tmp/dmpi-spill")
            .with_spill_compression(WireCompression::Lz4)
            .with_spill_block_bytes(4096);
        c.validate().unwrap();
        let spill = c.spill_config();
        assert_eq!(
            spill.dir.as_deref(),
            Some(std::path::Path::new("/tmp/dmpi-spill"))
        );
        assert!(spill.compress);
        assert_eq!(spill.block_bytes, 4096);
        // Default: in-memory, uncompressed, default block budget.
        let spill = JobConfig::new(1).spill_config();
        assert!(spill.dir.is_none());
        assert!(!spill.compress);
        assert_eq!(
            spill.block_bytes,
            crate::spillfmt::DEFAULT_SPILL_BLOCK_BYTES
        );
        assert!(JobConfig::new(1)
            .with_spill_block_bytes(0)
            .validate()
            .is_err());
    }

    #[test]
    fn o_task_fault_shorthand_extends_an_existing_plan() {
        let c = JobConfig::new(1)
            .with_faults(FaultPlan::new(9).rank_panic(0, 0))
            .with_o_task_fault(2, 1);
        let plan = c.faults.unwrap();
        assert_eq!(plan.seed(), 9, "shorthand keeps the existing seed");
        assert!(plan.rank_panics(0, 0));
        assert!(plan.o_task_error(2, 1));
    }
}
