//! Workspace-wide error type.
//!
//! Every crate in the workspace funnels failures through [`Error`]. The
//! variants cover the three broad failure domains of the reproduced system:
//! data corruption (serialization / codec), resource exhaustion (the Spark
//! OOM behaviour studied in Figure 3(b) of the paper), and distributed
//! bookkeeping mistakes (missing blocks, unknown tasks).

use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Classification of a [`FaultCause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A deliberately injected task error (fault-injection harness).
    InjectedError,
    /// User code panicked inside a task.
    TaskPanic,
    /// A whole worker rank died before finishing its work.
    RankDeath,
    /// A frame failed its CRC-32C integrity check on receipt.
    CorruptFrame,
    /// A simulated cluster node failed.
    NodeFailure,
    /// The interconnect failed: a connection could not be established, a
    /// peer's stream closed before its EOF frame, or a wire frame could
    /// not be decoded.
    Transport,
    /// A spill run could not be written: a full disk, or another I/O
    /// error of the spill dir.
    Spill,
    /// A fault with no richer classification.
    Other,
}

/// Structured cause carried by [`Error::Fault`], so supervisors and tests
/// can match on *what* failed (which task, which rank, which attempt)
/// instead of grepping a formatted string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCause {
    /// What kind of fault this is.
    pub kind: FaultKind,
    /// The task (split index) involved, if any.
    pub task: Option<usize>,
    /// The worker rank involved, if any.
    pub rank: Option<usize>,
    /// The job attempt on which the fault fired, if known.
    pub attempt: Option<u32>,
    /// Free-form human context.
    pub detail: String,
}

impl FaultCause {
    /// A cause of `kind` with no located task/rank/attempt yet.
    pub fn new(kind: FaultKind, detail: impl Into<String>) -> Self {
        FaultCause {
            kind,
            task: None,
            rank: None,
            attempt: None,
            detail: detail.into(),
        }
    }

    /// Builder: the task involved.
    pub fn task(mut self, task: usize) -> Self {
        self.task = Some(task);
        self
    }

    /// Builder: the rank involved.
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Builder: the attempt on which the fault fired.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = Some(attempt);
        self
    }

    /// True for faults produced by the injection harness (as opposed to
    /// genuine panics or corruption found in the wild).
    pub fn is_injected(&self) -> bool {
        self.kind == FaultKind::InjectedError
    }
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FaultKind::InjectedError => "injected error",
            FaultKind::TaskPanic => "task panic",
            FaultKind::RankDeath => "rank death",
            FaultKind::CorruptFrame => "corrupt frame",
            FaultKind::NodeFailure => "node failure",
            FaultKind::Transport => "transport failure",
            FaultKind::Spill => "spill failure",
            FaultKind::Other => "fault",
        };
        write!(f, "{kind}")?;
        if let Some(t) = self.task {
            write!(f, " [task {t}]")?;
        }
        if let Some(r) = self.rank {
            write!(f, " [rank {r}]")?;
        }
        if let Some(a) = self.attempt {
            write!(f, " [attempt {a}]")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// Unified error for all `datampi-rs` crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A serialized record or file frame could not be decoded.
    Corrupt(String),
    /// A varint overflowed or was truncated.
    Varint(String),
    /// The LZ77 codec hit an invalid back-reference or truncated block.
    Codec(String),
    /// A memory budget was exceeded (Spark-style OutOfMemory).
    OutOfMemory {
        /// What was being allocated when the budget ran out.
        context: String,
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes still available under the budget.
        available: u64,
    },
    /// A DFS path, block, or replica was not found.
    NotFound(String),
    /// An operation was attempted against an entity in the wrong state
    /// (e.g. reading an unfinished file, double-finishing a task).
    InvalidState(String),
    /// A configuration value was out of range or inconsistent.
    Config(String),
    /// A simulated component failed (injected fault or modeled crash),
    /// with a structured [`FaultCause`] saying what, where, and when.
    Fault(FaultCause),
    /// A task exceeded its retry budget and the job was aborted.
    JobAborted(String),
}

impl Error {
    /// Shorthand for a corruption error with formatted context.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        Error::Corrupt(msg.into())
    }

    /// True if this error is the simulated OutOfMemory condition.
    pub fn is_oom(&self) -> bool {
        matches!(self, Error::OutOfMemory { .. })
    }

    /// Shorthand for a fault with a structured cause.
    pub fn fault(cause: FaultCause) -> Self {
        Error::Fault(cause)
    }

    /// Shorthand for an unclassified fault carrying only a message.
    pub fn fault_msg(detail: impl Into<String>) -> Self {
        Error::Fault(FaultCause::new(FaultKind::Other, detail))
    }

    /// The structured fault cause, if this error is a fault.
    pub fn fault_cause(&self) -> Option<&FaultCause> {
        match self {
            Error::Fault(cause) => Some(cause),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Corrupt(m) => write!(f, "corrupt data: {m}"),
            Error::Varint(m) => write!(f, "varint error: {m}"),
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::OutOfMemory {
                context,
                requested,
                available,
            } => write!(
                f,
                "out of memory in {context}: requested {requested} B, {available} B available"
            ),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::InvalidState(m) => write!(f, "invalid state: {m}"),
            Error::Config(m) => write!(f, "bad configuration: {m}"),
            Error::Fault(cause) => write!(f, "fault: {cause}"),
            Error::JobAborted(m) => write!(f, "job aborted: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::OutOfMemory {
            context: "block manager".into(),
            requested: 1024,
            available: 512,
        };
        let s = e.to_string();
        assert!(s.contains("block manager"));
        assert!(s.contains("1024"));
        assert!(s.contains("512"));
        assert!(e.is_oom());
    }

    #[test]
    fn non_oom_variants_report_not_oom() {
        assert!(!Error::corrupt("x").is_oom());
        assert!(!Error::NotFound("p".into()).is_oom());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::corrupt("a"), Error::Corrupt("a".into()));
        assert_ne!(Error::corrupt("a"), Error::corrupt("b"));
    }

    #[test]
    fn fault_causes_are_structured_and_matchable() {
        let e = Error::fault(
            FaultCause::new(FaultKind::InjectedError, "scheduled by plan")
                .task(2)
                .rank(1)
                .attempt(0),
        );
        let cause = e.fault_cause().expect("is a fault");
        assert_eq!(cause.kind, FaultKind::InjectedError);
        assert_eq!(cause.task, Some(2));
        assert_eq!(cause.rank, Some(1));
        assert_eq!(cause.attempt, Some(0));
        assert!(cause.is_injected());
        let s = e.to_string();
        assert!(s.contains("injected error"), "{s}");
        assert!(s.contains("task 2"), "{s}");
        assert!(Error::Config("x".into()).fault_cause().is_none());
    }

    #[test]
    fn unclassified_fault_shorthand() {
        let e = Error::fault_msg("something broke");
        assert_eq!(e.fault_cause().unwrap().kind, FaultKind::Other);
        assert!(!e.fault_cause().unwrap().is_injected());
        assert!(e.to_string().contains("something broke"));
    }
}
