//! Structured trace events: spans and instants, merged per job, exportable
//! as Chrome `trace_event` JSON (viewable in `chrome://tracing` / Perfetto)
//! and as a compact JSONL event log.
//!
//! Each worker rank records into its own thread-local buffer (no locks on
//! the recording path); buffers are merged when the rank finishes. In the
//! Chrome export the *attempt* number maps to the process lane (`pid`) and
//! the *rank* to the thread lane (`tid`), so a supervised job's retries
//! appear as separate process rows.

use std::fmt::Write as _;

/// What a span or instant event marks. The variants mirror the phases the
/// paper attributes time to (read/compute, send, receive, sort, spill,
/// A-compute) plus the recovery machinery's lifecycle events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole job attempt (job-level lane).
    Attempt,
    /// One O task: split read + user compute (sends overlap it).
    OTask,
    /// One flushed frame shipped to a peer partition.
    Send,
    /// An A partition ingesting frames until all EOFs arrive.
    Recv,
    /// Decode + sort/group of the A store.
    Sort,
    /// One A-store spill to disk.
    Spill,
    /// The A-side user compute over grouped records.
    ACompute,
    /// Instant: an O task replayed from checkpoint instead of re-running.
    Recovered,
    /// Instant: a fault observed by a rank or the supervisor.
    Fault,
    /// Instant: the supervisor scheduling a retry after a failed attempt.
    Retry,
}

impl SpanKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Attempt => "attempt",
            SpanKind::OTask => "o_task",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Sort => "sort",
            SpanKind::Spill => "spill",
            SpanKind::ACompute => "a_compute",
            SpanKind::Recovered => "recovered",
            SpanKind::Fault => "fault",
            SpanKind::Retry => "retry",
        }
    }

    /// Parses a [`name`](Self::name) back to the kind — the telemetry
    /// wire protocol ships spans by name.
    pub fn parse(name: &str) -> Option<SpanKind> {
        const ALL: [SpanKind; 10] = [
            SpanKind::Attempt,
            SpanKind::OTask,
            SpanKind::Send,
            SpanKind::Recv,
            SpanKind::Sort,
            SpanKind::Spill,
            SpanKind::ACompute,
            SpanKind::Recovered,
            SpanKind::Fault,
            SpanKind::Retry,
        ];
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Attempt => "job",
            SpanKind::OTask | SpanKind::Send => "o",
            SpanKind::Recv | SpanKind::Sort | SpanKind::Spill | SpanKind::ACompute => "a",
            SpanKind::Recovered | SpanKind::Fault | SpanKind::Retry => "recovery",
        }
    }
}

/// The pseudo-rank used for job-level events (attempts, retries):
/// they belong to the supervisor, not to any worker rank.
pub const JOB_LANE: u32 = u32::MAX;

/// One recorded event. `dur_us == 0` with `instant == true` marks an
/// instant event (`ph: "i"` in the Chrome export); otherwise the event is
/// a complete span (`ph: "X"`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// What the event marks.
    pub kind: SpanKind,
    /// Start timestamp, µs since the observer's epoch.
    pub ts_us: u64,
    /// Span duration in µs (0 for instants).
    pub dur_us: u64,
    /// True for point events.
    pub instant: bool,
    /// Worker rank, or [`JOB_LANE`] for job-level events.
    pub rank: u32,
    /// Job attempt the event belongs to.
    pub attempt: u32,
    /// O task index, when the event is task-scoped.
    pub task: Option<u64>,
    /// Extra key/value detail (peer rank, byte counts, fault cause…).
    pub args: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// End timestamp (µs).
    pub fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }
}

/// Wall-time totals per phase, in microseconds, derived from the span log.
///
/// `send` is recorded *inside* O tasks (pipelined flushes overlap the
/// producing compute — the overlap is DataMPI's headline mechanism), so
/// `o_task + recv + sort + a_compute` covers a rank's timeline while
/// `send` and `spill` measure work nested within it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// O task execution (split read + user compute), µs.
    pub o_task_us: u64,
    /// Frame shipping, µs (overlaps `o_task_us` when pipelined).
    pub send_us: u64,
    /// A-side ingest until all EOFs, µs.
    pub recv_us: u64,
    /// A-store decode + sort/group, µs.
    pub sort_us: u64,
    /// A-store spill handling, µs (nested in `recv_us`).
    pub spill_us: u64,
    /// A-side user compute, µs.
    pub a_compute_us: u64,
}

impl PhaseTotals {
    /// Adds every phase of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTotals) {
        self.o_task_us += other.o_task_us;
        self.send_us += other.send_us;
        self.recv_us += other.recv_us;
        self.sort_us += other.sort_us;
        self.spill_us += other.spill_us;
        self.a_compute_us += other.a_compute_us;
    }

    /// Accumulates one span into the matching phase bucket.
    pub fn add_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            SpanKind::OTask => self.o_task_us += ev.dur_us,
            SpanKind::Send => self.send_us += ev.dur_us,
            SpanKind::Recv => self.recv_us += ev.dur_us,
            SpanKind::Sort => self.sort_us += ev.dur_us,
            SpanKind::Spill => self.spill_us += ev.dur_us,
            SpanKind::ACompute => self.a_compute_us += ev.dur_us,
            _ => {}
        }
    }

    /// `(label, µs)` rows in display order.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("O tasks", self.o_task_us),
            ("send", self.send_us),
            ("recv", self.recv_us),
            ("sort", self.sort_us),
            ("spill", self.spill_us),
            ("A compute", self.a_compute_us),
        ]
    }
}

/// The merged event log of a job (or a supervised run's every attempt).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from merged events, sorting by start time.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.end_us())));
        Trace { events }
    }

    /// The events in start order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distinct attempts observed, ascending.
    pub fn attempts(&self) -> Vec<u32> {
        let mut a: Vec<u32> = self.events.iter().map(|e| e.attempt).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Per-phase wall-time totals over the whole trace.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for e in &self.events {
            t.add_event(e);
        }
        t
    }

    /// Renders the Chrome `trace_event` JSON object
    /// (`{"traceEvents": [...]}`) — load it in `chrome://tracing` or
    /// Perfetto. One **process row per rank** (`pid` = rank, `tid` =
    /// attempt), with `process_name` metadata so Perfetto labels each
    /// row; job-level events sit in the `coordinator` process. The same
    /// layout serves an in-proc trace and one merged from N worker
    /// processes on the coordinator's offset-corrected timeline.
    /// Timestamps are µs, as the format requires.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut ranks: Vec<u32> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut first = true;
        for rank in &ranks {
            if !first {
                out.push(',');
            }
            first = false;
            let label = if *rank == JOB_LANE {
                "coordinator".to_string()
            } else {
                format!("rank {rank}")
            };
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ph = if e.instant { "i" } else { "X" };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
                e.kind.name(),
                e.kind.category(),
                ph,
                e.ts_us
            );
            if !e.instant {
                let _ = write!(out, "\"dur\":{},", e.dur_us);
            } else {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(out, "\"pid\":{},\"tid\":{},\"args\":{{", e.rank, e.attempt);
            let mut first_arg = true;
            if let Some(task) = e.task {
                let _ = write!(out, "\"task\":{task}");
                first_arg = false;
            }
            for (k, v) in &e.args {
                if !first_arg {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", k, json_escape(v));
                first_arg = false;
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, ts: u64, dur: u64, rank: u32) -> TraceEvent {
        TraceEvent {
            kind,
            ts_us: ts,
            dur_us: dur,
            instant: false,
            rank,
            attempt: 0,
            task: Some(3),
            args: vec![],
        }
    }

    #[test]
    fn trace_sorts_and_totals() {
        let t = Trace::new(vec![
            span(SpanKind::Recv, 50, 20, 0),
            span(SpanKind::OTask, 0, 40, 0),
            span(SpanKind::Sort, 70, 5, 0),
        ]);
        assert_eq!(t.events()[0].kind, SpanKind::OTask);
        let p = t.phase_totals();
        assert_eq!(p.o_task_us, 40);
        assert_eq!(p.recv_us, 20);
        assert_eq!(p.sort_us, 5);
        assert_eq!(p.rows()[0], ("O tasks", 40));
        assert_eq!(t.attempts(), vec![0]);
        assert_eq!(t.of_kind(SpanKind::Recv).count(), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let mut ev = span(SpanKind::Send, 10, 5, 2);
        ev.args.push(("peer", "1".into()));
        let json = Trace::new(vec![ev]).to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":5"));
        assert!(json.contains("\"pid\":2,\"tid\":0"));
        assert!(json.contains("\"task\":3"));
        assert!(json.contains("\"peer\":\"1\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn instants_use_instant_phase() {
        let ev = TraceEvent {
            kind: SpanKind::Retry,
            ts_us: 7,
            dur_us: 0,
            instant: true,
            rank: JOB_LANE,
            attempt: 1,
            task: None,
            args: vec![("cause", "injected \"quote\"".into())],
        };
        let json = Trace::new(vec![ev]).to_chrome_json();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("injected \\\"quote\\\""));
        assert!(json.contains("\"name\":\"coordinator\""));
    }

    #[test]
    fn span_kind_names_round_trip() {
        for name in [
            "attempt",
            "o_task",
            "send",
            "recv",
            "sort",
            "spill",
            "a_compute",
            "recovered",
            "fault",
            "retry",
        ] {
            assert_eq!(SpanKind::parse(name).map(SpanKind::name), Some(name));
        }
        assert!(SpanKind::parse("bogus").is_none());
    }

    #[test]
    fn by_rank_export_puts_each_rank_in_its_own_process() {
        let t = Trace::new(vec![span(SpanKind::OTask, 0, 10, 1), {
            let mut e = span(SpanKind::Recv, 5, 10, 2);
            e.attempt = 1;
            e
        }]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"name\":\"rank 2\""));
        // pid carries the rank, tid the attempt.
        assert!(json.contains("\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"pid\":2,\"tid\":1"));
    }

    #[test]
    fn escaping_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn phase_totals_merge_adds() {
        let mut a = PhaseTotals {
            o_task_us: 1,
            send_us: 2,
            recv_us: 3,
            sort_us: 4,
            spill_us: 5,
            a_compute_us: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.o_task_us, 2);
        assert_eq!(a.a_compute_us, 12);
    }
}
