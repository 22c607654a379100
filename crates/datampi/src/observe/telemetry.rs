//! The distributed telemetry plane: how per-rank observations reach the
//! coordinator.
//!
//! A multi-process job (a `dmpid` or `dmpirun` session) runs every rank
//! in its own process, so the in-proc [`Observer`]'s shared registry and
//! span log do not exist job-wide. This module closes that gap in three
//! pieces:
//!
//! * **Clock sync** ([`ClockSync`]) — when a worker joins a session it
//!   runs a one-round offset exchange with the coordinator (send local
//!   time, read coordinator time, midpoint-correct by half the RTT).
//!   Every span timestamp the worker ships is pre-corrected onto the
//!   coordinator's timeline, so a merged trace from N processes lines up
//!   on one time axis.
//! * **Telemetry frames** ([`TelemetryFrame`]) — once per traced job, at
//!   its end and whatever its outcome, a worker snapshots its registry
//!   (cumulative counters), its histogram channels, its per-peer byte
//!   rows, and drains its sealed spans, then ships one `jobtlm <job> tlm
//!   …` line over its control stream, right before the job's `jobdone`
//!   or `jobfail`. The `tlm …` part is a line of the one control-plane
//!   grammar ([`crate::service::protocol`]): `key=value` fields, the
//!   counters in [`Counter::ALL`] order, percent-escaping inside span
//!   args.
//! * **Aggregation** ([`TelemetryAggregator`]) — the coordinator absorbs
//!   frames from all ranks: latest-wins per rank for cumulative state,
//!   bucket-addition for histograms, append for spans. From it the
//!   coordinator renders each job's merged Chrome trace and its
//!   `job-report.json` (schema documented in DESIGN.md §16).

use std::fmt::Write as _;

use super::histogram::{HistKind, HistogramSnapshot};
use super::metrics::{Counter, MetricsSnapshot};
use super::trace::{json_escape, SpanKind, Trace, TraceEvent};
use super::Observer;
use crate::service::protocol::{esc, unesc, JobSpec, Line, LineWriter};

/// Result of the join-time clock exchange.
///
/// The worker records `t0` (its clock) just before sending its `join`
/// line, the coordinator stamps `coord_now` when it answers, and
/// the worker records `t1` on receipt. Assuming the reply sits at the
/// midpoint of the round trip, the worker's clock is behind the
/// coordinator's by `offset_us = coord_now - (t0 + t1) / 2`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockSync {
    /// Microseconds to add to a local timestamp to land on the
    /// coordinator's timeline (may be negative).
    pub offset_us: i64,
    /// The measured join round trip, µs — the error bound on the
    /// offset.
    pub rtt_us: u64,
}

impl ClockSync {
    /// Computes the sync from one exchange (`t0`/`t1` local µs,
    /// `coord_now` coordinator µs).
    pub fn from_exchange(t0: u64, coord_now: u64, t1: u64) -> ClockSync {
        let midpoint = (t0 / 2) + (t1 / 2) + (t0 % 2 + t1 % 2) / 2;
        ClockSync {
            offset_us: coord_now as i64 - midpoint as i64,
            rtt_us: t1.saturating_sub(t0),
        }
    }

    /// Maps a local timestamp onto the coordinator's timeline.
    pub fn apply(&self, local_ts_us: u64) -> u64 {
        (local_ts_us as i64).saturating_add(self.offset_us).max(0) as u64
    }
}

/// Span arg keys survive the wire only when interned back to the static
/// strings [`TraceEvent`] requires; unknown keys are dropped rather than
/// leaked.
fn intern_arg_key(key: &str) -> Option<&'static str> {
    const KNOWN: [&str; 14] = [
        "bytes",
        "cause",
        "peer",
        "records",
        "frames",
        "groups",
        "splits",
        "ranks",
        "next_attempt",
        "send",
        "recv",
        "sort",
        "spill",
        "crc",
    ];
    KNOWN.iter().find(|k| **k == key).copied()
}

fn encode_span(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "{},{},{},{},{},{},{}",
        e.kind.name(),
        e.ts_us,
        e.dur_us,
        if e.instant { 1 } else { 0 },
        e.rank,
        e.attempt,
        e.task.map_or_else(|| "-".to_string(), |t| t.to_string()),
    );
    for (k, v) in &e.args {
        let _ = write!(out, ",{}:{}", k, esc(v));
    }
}

fn parse_span(s: &str) -> Option<TraceEvent> {
    let mut it = s.split(',');
    let kind = SpanKind::parse(it.next()?)?;
    let ts_us = it.next()?.parse().ok()?;
    let dur_us = it.next()?.parse().ok()?;
    let instant = it.next()? == "1";
    let rank = it.next()?.parse().ok()?;
    let attempt = it.next()?.parse().ok()?;
    let task = match it.next()? {
        "-" => None,
        t => Some(t.parse().ok()?),
    };
    let mut args = Vec::new();
    for pair in it {
        let (k, v) = pair.split_once(':')?;
        if let Some(key) = intern_arg_key(k) {
            args.push((key, unesc(v)?));
        }
    }
    Some(TraceEvent {
        kind,
        ts_us,
        dur_us,
        instant,
        rank,
        attempt,
        task,
        args,
    })
}

/// One shipment from a rank to the coordinator: cumulative counters,
/// histogram buckets, per-peer byte rows, and the spans sealed since the
/// previous frame (timestamps already offset-corrected).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryFrame {
    /// Reporting rank.
    pub rank: u32,
    /// Monotone per-rank sequence number; the aggregator drops stale
    /// reordered frames.
    pub seq: u64,
    /// True for the end-of-job frame (ships ahead of the `done` line).
    pub is_final: bool,
    /// The rank's clock offset onto the coordinator timeline, µs.
    pub offset_us: i64,
    /// The offset's error bound (join RTT), µs.
    pub rtt_us: u64,
    /// Cumulative registry counters as of this frame.
    pub counters: MetricsSnapshot,
    /// Non-empty histogram channels, cumulative.
    pub histograms: Vec<(HistKind, HistogramSnapshot)>,
    /// `sent[rank][peer]` payload bytes (this rank's row).
    pub sent_row: Vec<u64>,
    /// `recv[rank][peer]` payload bytes (this rank's row).
    pub recv_row: Vec<u64>,
    /// Spans sealed since the last frame, offset-corrected.
    pub spans: Vec<TraceEvent>,
}

impl TelemetryFrame {
    /// Collects a frame from a live observer: snapshots counters and
    /// histograms, copies this rank's matrix rows, drains the span log,
    /// and corrects every drained timestamp with `sync`.
    pub fn collect(
        observer: &Observer,
        rank: u32,
        seq: u64,
        is_final: bool,
        sync: ClockSync,
    ) -> TelemetryFrame {
        let registry = observer.registry();
        let rank_ix = rank as usize;
        let mut spans = observer.take_events();
        for e in &mut spans {
            e.ts_us = sync.apply(e.ts_us);
        }
        TelemetryFrame {
            rank,
            seq,
            is_final,
            offset_us: sync.offset_us,
            rtt_us: sync.rtt_us,
            counters: registry.snapshot(),
            histograms: registry
                .histograms()
                .snapshot_all()
                .into_iter()
                .filter(|(_, h)| !h.is_empty())
                .collect(),
            sent_row: registry
                .sent_matrix()
                .get(rank_ix)
                .cloned()
                .unwrap_or_default(),
            recv_row: registry
                .recv_matrix()
                .get(rank_ix)
                .cloned()
                .unwrap_or_default(),
            spans,
        }
    }

    /// The one-line wire form (`tlm …`, no trailing newline).
    pub fn wire_line(&self) -> String {
        let mut line = LineWriter::new("tlm")
            .field("rank", self.rank)
            .field("seq", self.seq)
            .field("final", self.is_final as u8)
            .field("off", self.offset_us)
            .field("rtt", self.rtt_us);
        let out = line.open("counters");
        for (i, (counter, value)) in self.counters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}:{value}", counter.name());
        }
        for (name, row) in [("sent", &self.sent_row), ("recv", &self.recv_row)] {
            if !row.is_empty() {
                let out = line.open(name);
                for (i, v) in row.iter().enumerate() {
                    let sep = if i > 0 { ":" } else { "" };
                    let _ = write!(out, "{sep}{v}");
                }
            }
        }
        if !self.histograms.is_empty() {
            let out = line.open("hist");
            for (i, (kind, snap)) in self.histograms.iter().enumerate() {
                let sep = if i > 0 { "|" } else { "" };
                let _ = write!(out, "{sep}{}~{}", kind.name(), snap.encode());
            }
        }
        if !self.spans.is_empty() {
            let out = line.open("spans");
            for (i, e) in self.spans.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                encode_span(out, e);
            }
        }
        line.finish()
    }

    /// Parses the fields behind a `tlm` token — the leading verb of a
    /// bare frame, or the token after the job id of a `jobtlm` line.
    pub(crate) fn parse_fields(verb: &str, line: Line<'_>) -> Option<TelemetryFrame> {
        if verb != "tlm" {
            return None;
        }
        let mut frame = TelemetryFrame::default();
        for field in line.fields() {
            let (key, value) = field?;
            match key {
                "rank" => frame.rank = value.num()?,
                "seq" => frame.seq = value.num()?,
                "final" => frame.is_final = value.flag(),
                "off" => frame.offset_us = value.num()?,
                "rtt" => frame.rtt_us = value.num()?,
                "counters" => {
                    for pair in value.0.split(',') {
                        let (name, v) = pair.split_once(':')?;
                        let v = v.parse().ok()?;
                        // A counter this build does not know is a newer
                        // peer's: skipped, like an unknown field.
                        if let Some(counter) = Counter::parse(name) {
                            frame.counters[counter] = v;
                        }
                    }
                }
                "sent" | "recv" => {
                    let row: Option<Vec<u64>> =
                        value.0.split(':').map(|v| v.parse().ok()).collect();
                    if key == "sent" {
                        frame.sent_row = row?;
                    } else {
                        frame.recv_row = row?;
                    }
                }
                "hist" => {
                    for entry in value.0.split('|') {
                        let (name, enc) = entry.split_once('~')?;
                        frame
                            .histograms
                            .push((HistKind::parse(name)?, HistogramSnapshot::parse(enc)?));
                    }
                }
                "spans" => {
                    for enc in value.0.split(';') {
                        frame.spans.push(parse_span(enc)?);
                    }
                }
                _ => {} // forward compatibility: ignore unknown fields
            }
        }
        Some(frame)
    }
}

/// What the coordinator knows about one rank.
#[derive(Clone, Debug, Default)]
pub struct RankTelemetry {
    /// Latest cumulative counters (None before the first frame).
    pub counters: Option<MetricsSnapshot>,
    /// Latest cumulative histogram snapshots.
    pub histograms: Vec<(HistKind, HistogramSnapshot)>,
    /// Latest `sent[rank][*]` row.
    pub sent_row: Vec<u64>,
    /// Latest `recv[rank][*]` row.
    pub recv_row: Vec<u64>,
    /// The rank's clock offset, µs.
    pub offset_us: i64,
    /// The offset's error bound, µs.
    pub rtt_us: u64,
    /// Highest sequence number absorbed.
    pub last_seq: u64,
    /// Frames absorbed.
    pub frames: u64,
    /// True once the rank's final frame arrived.
    pub final_seen: bool,
}

/// Coordinator-side aggregation: absorbs [`TelemetryFrame`]s from every
/// rank and answers for the merged trace and the job report.
#[derive(Debug)]
pub struct TelemetryAggregator {
    per_rank: Vec<RankTelemetry>,
    spans: Vec<TraceEvent>,
}

impl TelemetryAggregator {
    /// An aggregator for a `ranks`-wide job.
    pub fn new(ranks: usize) -> TelemetryAggregator {
        TelemetryAggregator {
            per_rank: vec![RankTelemetry::default(); ranks],
            spans: Vec::new(),
        }
    }

    /// Absorbs one frame. Spans always append (they are deltas);
    /// cumulative state is latest-wins, guarded by the sequence number
    /// so a reordered stale frame cannot roll a rank backwards.
    pub fn absorb(&mut self, frame: TelemetryFrame) {
        let Some(slot) = self.per_rank.get_mut(frame.rank as usize) else {
            return;
        };
        self.spans.extend(frame.spans);
        if slot.counters.is_some() && frame.seq < slot.last_seq {
            return; // stale cumulative state
        }
        slot.last_seq = frame.seq;
        slot.frames += 1;
        slot.counters = Some(frame.counters);
        slot.histograms = frame.histograms;
        slot.sent_row = frame.sent_row;
        slot.recv_row = frame.recv_row;
        slot.offset_us = frame.offset_us;
        slot.rtt_us = frame.rtt_us;
        slot.final_seen |= frame.is_final;
    }

    /// Records a coordinator-side event (attempt span, rank death) into
    /// the merged timeline.
    pub fn record(&mut self, event: TraceEvent) {
        self.spans.push(event);
    }

    /// Ranks whose final frame arrived.
    pub fn finals_seen(&self) -> usize {
        self.per_rank.iter().filter(|r| r.final_seen).count()
    }

    /// Merges every rank's latest counters: flows add, gauges take the
    /// maximum ([`Counter::is_gauge`]). The aggregate's
    /// wire-byte totals therefore equal the sum of the per-rank totals
    /// by construction, which the job report's schema promises.
    pub fn aggregate_counters(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for counters in self.per_rank.iter().filter_map(|r| r.counters.as_ref()) {
            for (counter, value) in counters.iter() {
                total[counter] = if counter.is_gauge() {
                    total[counter].max(value)
                } else {
                    total[counter] + value
                };
            }
        }
        total
    }

    /// Folds every rank's histogram channels by bucket addition.
    pub fn merged_histograms(&self) -> Vec<(HistKind, HistogramSnapshot)> {
        let mut merged: Vec<(HistKind, HistogramSnapshot)> = HistKind::ALL
            .into_iter()
            .map(|k| (k, HistogramSnapshot::default()))
            .collect();
        for rank in &self.per_rank {
            for (kind, snap) in &rank.histograms {
                if let Some((_, m)) = merged.iter_mut().find(|(k, _)| k == kind) {
                    m.merge(snap);
                }
            }
        }
        merged.retain(|(_, m)| !m.is_empty());
        merged
    }

    /// The merged cross-rank trace (already offset-corrected).
    pub fn trace(&self) -> Trace {
        Trace::new(self.spans.clone())
    }

    /// The full `sent[from][to]` matrix assembled from per-rank rows.
    pub fn sent_matrix(&self) -> Vec<Vec<u64>> {
        self.per_rank.iter().map(|r| r.sent_row.clone()).collect()
    }

    /// The full `recv[at][from]` matrix assembled from per-rank rows.
    pub fn recv_matrix(&self) -> Vec<Vec<u64>> {
        self.per_rank.iter().map(|r| r.recv_row.clone()).collect()
    }

    /// Renders the report of job `spec` under the one meta key set every
    /// job report carries, whichever backend ran it: `job tenant workload
    /// backend tasks seed elapsed_us status finals_seen`.
    pub fn job_report(&self, spec: &JobSpec, backend: &str, elapsed_us: u64, ok: bool) -> String {
        let meta = [
            ("job", spec.id.to_string()),
            ("tenant", format!("{:?}", spec.tenant)),
            ("workload", format!("{:?}", spec.workload)),
            ("backend", format!("{backend:?}")),
            ("tasks", spec.tasks.to_string()),
            ("seed", spec.seed.to_string()),
            ("elapsed_us", elapsed_us.to_string()),
            ("status", format!("{:?}", if ok { "ok" } else { "failed" })),
            ("finals_seen", self.finals_seen().to_string()),
        ];
        self.report_json(&meta)
    }

    /// Renders `job-report.json`. `meta` rows are caller-supplied
    /// `(key, rendered-JSON-value)` pairs prepended verbatim (workload
    /// name, seed, elapsed…); schema in DESIGN.md §16.
    pub fn report_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"dmpi-job-report/v1\"");
        for (k, v) in meta {
            let _ = write!(out, ",\n  \"{k}\": {v}");
        }
        let _ = write!(out, ",\n  \"ranks\": {}", self.per_rank.len());

        out.push_str(",\n  \"per_rank\": [");
        for (rank, t) in self.per_rank.iter().enumerate() {
            if rank > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rank\": {rank}, \"clock_offset_us\": {}, \"clock_rtt_us\": {}, \
                 \"telemetry_frames\": {}, \"final_seen\": {}",
                t.offset_us, t.rtt_us, t.frames, t.final_seen
            );
            out.push_str(", \"counters\": ");
            push_counters_json(&mut out, &t.counters.clone().unwrap_or_default());
            out.push_str(", \"sent_bytes_to\": ");
            push_row_json(&mut out, &t.sent_row);
            out.push_str(", \"recv_bytes_from\": ");
            push_row_json(&mut out, &t.recv_row);
            out.push_str(", \"histograms\": ");
            push_histograms_json(&mut out, &t.histograms);
            out.push('}');
        }
        out.push_str("\n  ]");

        out.push_str(",\n  \"aggregate\": {\"counters\": ");
        push_counters_json(&mut out, &self.aggregate_counters());
        out.push_str(", \"histograms\": ");
        push_histograms_json(&mut out, &self.merged_histograms());
        out.push('}');

        out.push_str(",\n  \"peer_matrix\": {\"sent\": ");
        push_matrix_json(&mut out, &self.sent_matrix());
        out.push_str(", \"recv\": ");
        push_matrix_json(&mut out, &self.recv_matrix());
        out.push('}');

        // The fault/recovery timeline: every fault, retry and recovery
        // event, in time order.
        out.push_str(",\n  \"timeline\": [");
        let mut first = true;
        let mut timeline: Vec<&TraceEvent> = self
            .spans
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    SpanKind::Fault | SpanKind::Retry | SpanKind::Recovered
                )
            })
            .collect();
        timeline.sort_by_key(|e| e.ts_us);
        for e in timeline {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"kind\": \"{}\", \"ts_us\": {}, \"dur_us\": {}, \"rank\": {}",
                e.kind.name(),
                e.ts_us,
                e.dur_us,
                e.rank
            );
            for (k, v) in &e.args {
                let _ = write!(out, ", \"{}\": \"{}\"", k, json_escape(v));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Appends a JSON list or object: `brackets`' two characters around the
/// items, each rendered by `each`, `, ` between them.
fn push_list<T>(
    out: &mut String,
    brackets: &str,
    items: impl IntoIterator<Item = T>,
    each: impl Fn(&mut String, T),
) {
    out.push_str(&brackets[..1]);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        each(out, item);
    }
    out.push_str(&brackets[1..]);
}

fn push_counters_json(out: &mut String, c: &MetricsSnapshot) {
    push_list(out, "{}", c.iter(), |out, (counter, value)| {
        let _ = write!(out, "\"{}\": {value}", counter.name());
    });
}

fn push_row_json(out: &mut String, row: &[u64]) {
    push_list(out, "[]", row, |out, v| {
        let _ = write!(out, "{v}");
    });
}

fn push_matrix_json(out: &mut String, matrix: &[Vec<u64>]) {
    push_list(out, "[]", matrix, |out, row| push_row_json(out, row));
}

fn push_histograms_json(out: &mut String, hists: &[(HistKind, HistogramSnapshot)]) {
    push_list(out, "{}", hists, |out, (kind, snap)| {
        let _ = write!(out, "\"{}\": {}", kind.name(), snap.to_json());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::clock::ManualClock;
    use crate::observe::{Clock, LogHistogram};

    /// Parses a bare `tlm` frame line the way a coordinator parses the
    /// token after a `jobtlm` line's job id.
    fn parse(line: &str) -> Option<TelemetryFrame> {
        let line = Line::parse(line)?;
        TelemetryFrame::parse_fields(line.verb(), line)
    }

    #[test]
    fn clock_sync_midpoint_and_application() {
        // Worker clock 1000µs behind the coordinator, 40µs RTT.
        let sync = ClockSync::from_exchange(500, 1520, 540);
        assert_eq!(sync.offset_us, 1000);
        assert_eq!(sync.rtt_us, 40);
        assert_eq!(sync.apply(500), 1500);
        // Negative offsets clamp at zero rather than wrapping.
        let back = ClockSync {
            offset_us: -100,
            rtt_us: 0,
        };
        assert_eq!(back.apply(40), 0);
        assert_eq!(back.apply(150), 50);
    }

    fn sample_frame(rank: u32, seq: u64) -> TelemetryFrame {
        let obs = Observer::with_clock(Clock::Manual(ManualClock::new()));
        obs.begin_job(3);
        obs.registry().add(Counter::RecordsOut, 10 + rank as u64);
        obs.registry().add(Counter::RecordsIn, 7);
        obs.registry().add_frame_sent(rank as usize, 1, 100);
        obs.registry().add_wire_stats(&crate::transport::WireStats {
            bytes_sent: 1000 + rank as u64,
            bytes_received: 900,
            ..Default::default()
        });
        obs.registry()
            .histograms()
            .record(HistKind::RecvLatency, 42);
        obs.registry()
            .histograms()
            .record(HistKind::FramePayload, 4096);
        let t = obs.rank_tracer(rank, 0);
        let start = t.start();
        t.span(
            SpanKind::OTask,
            start,
            vec![("bytes", "12 34;=%".into()), ("peer", "1".into())],
        );
        t.instant(SpanKind::Fault, vec![("cause", "test cause".into())]);
        obs.absorb(&t);
        TelemetryFrame::collect(
            &obs,
            rank,
            seq,
            seq == 1,
            ClockSync {
                offset_us: 500,
                rtt_us: 10,
            },
        )
    }

    /// A frame with every counter set to a distinct value, two histogram
    /// channels, both matrix rows and two spans (one arg needs escaping).
    fn golden_frame(rank: u32) -> TelemetryFrame {
        let mut counters = MetricsSnapshot::default();
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            counters[counter] = 1000 * (rank as u64 + 1) + 7 * i as u64;
        }
        let send = LogHistogram::new();
        for v in [0, 3, 40, 41, 5000] {
            send.record(v + rank as u64);
        }
        let payload = LogHistogram::new();
        payload.record(4096);
        payload.record(65536);
        TelemetryFrame {
            rank,
            seq: 4 + rank as u64,
            is_final: true,
            offset_us: -250 + rank as i64,
            rtt_us: 31,
            counters,
            histograms: vec![
                (HistKind::SendLatency, send.snapshot()),
                (HistKind::FramePayload, payload.snapshot()),
            ],
            sent_row: vec![0, 111 + rank as u64],
            recv_row: vec![222, 0],
            spans: vec![
                TraceEvent {
                    kind: SpanKind::OTask,
                    ts_us: 1500,
                    dur_us: 250,
                    instant: false,
                    rank,
                    attempt: 0,
                    task: Some(3),
                    args: vec![("bytes", "12 34;=%".into()), ("peer", "1".into())],
                },
                TraceEvent {
                    kind: SpanKind::Fault,
                    ts_us: 1800,
                    dur_us: 0,
                    instant: true,
                    rank,
                    attempt: 1,
                    task: None,
                    args: vec![("cause", "rank 1: died\nmid-job".into())],
                },
            ],
        }
    }

    /// The vocabulary is pinned: these strings were rendered from the
    /// same frames by the commit before the counters became a table
    /// (when a name list and 29 named fields spelled them out), so a
    /// renamed, reordered or dropped counter — or a change to the `tlm`
    /// grammar or the `dmpi-job-report/v1` layout — fails here.
    #[test]
    fn tlm_line_and_job_report_match_the_golden_bytes() {
        let frame = golden_frame(1);
        let line = frame.wire_line();
        assert_eq!(
            line,
            include_str!("../../tests/golden/tlm_line.txt").trim_end()
        );
        assert_eq!(parse(&line), Some(frame));

        let mut agg = TelemetryAggregator::new(2);
        agg.absorb(golden_frame(0));
        agg.absorb(golden_frame(1));
        let json = agg.report_json(&[("workload", "\"wordcount\"".into())]);
        assert_eq!(json, include_str!("../../tests/golden/job_report.json"));
    }

    #[test]
    fn frames_round_trip_the_wire() {
        let frame = sample_frame(2, 1);
        let line = frame.wire_line();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).expect("parse own encoding");
        assert_eq!(parsed, frame);
        assert!(parsed.is_final);
        assert_eq!(parsed.counters[Counter::RecordsOut], 12);
        assert_eq!(parsed.sent_row, vec![0, 100, 0]);
        assert_eq!(parsed.spans.len(), 2);
        assert_eq!(parsed.spans[0].args[0].1, "12 34;=%");
        // Offset correction applied at collection: the manual clock was
        // at 0, the offset 500.
        assert_eq!(parsed.spans[0].ts_us, 500);
        assert!(parse("done rank=0 crc=1").is_none());
        assert!(parse("tlm rank=x").is_none());
    }

    #[test]
    fn collect_drains_the_span_log() {
        let obs = Observer::new();
        let t = obs.job_tracer(0);
        t.instant(SpanKind::Retry, vec![]);
        obs.absorb(&t);
        let f = TelemetryFrame::collect(&obs, 0, 0, false, ClockSync::default());
        assert_eq!(f.spans.len(), 1);
        let f2 = TelemetryFrame::collect(&obs, 0, 1, false, ClockSync::default());
        assert!(f2.spans.is_empty(), "spans ship exactly once");
    }

    #[test]
    fn aggregator_sums_ranks_and_keeps_wire_identity() {
        let mut agg = TelemetryAggregator::new(3);
        for rank in 0..3u32 {
            agg.absorb(sample_frame(rank, 0));
        }
        let total = agg.aggregate_counters();
        let per_rank_wire: u64 = agg
            .per_rank
            .iter()
            .map(|r| r.counters.as_ref().map_or(0, |c| c[Counter::WireBytesSent]))
            .sum();
        assert_eq!(total[Counter::WireBytesSent], per_rank_wire);
        assert_eq!(total[Counter::WireBytesSent], 1000 + 1001 + 1002);
        assert_eq!(total[Counter::RecordsOut], 10 + 11 + 12);
        let merged = agg.merged_histograms();
        let recv = merged
            .iter()
            .find(|(k, _)| *k == HistKind::RecvLatency)
            .unwrap();
        assert_eq!(recv.1.count, 3, "one sample per rank, bucket-added");
        assert_eq!(agg.trace().len(), 6);
    }

    #[test]
    fn aggregator_ignores_stale_cumulative_state() {
        let mut agg = TelemetryAggregator::new(1);
        let mut newer = sample_frame(0, 5);
        newer.counters[Counter::RecordsOut] = 100;
        agg.absorb(newer);
        let mut stale = sample_frame(0, 2);
        stale.counters[Counter::RecordsOut] = 7;
        stale.spans.clear();
        agg.absorb(stale);
        assert_eq!(
            agg.per_rank[0].counters.as_ref().unwrap()[Counter::RecordsOut],
            100,
            "stale frame must not roll the rank back"
        );
    }

    #[test]
    fn report_json_holds_the_wire_byte_identity() {
        let mut agg = TelemetryAggregator::new(2);
        agg.absorb(sample_frame(0, 0));
        agg.absorb(sample_frame(1, 0));
        let json = agg.report_json(&[("workload", "\"wordcount\"".into())]);
        assert!(json.contains("\"schema\": \"dmpi-job-report/v1\""));
        assert!(json.contains("\"workload\": \"wordcount\""));
        // Extract every per-rank wire_bytes_sent and the aggregate one.
        let values: Vec<u64> = json
            .match_indices("\"wire_bytes_sent\": ")
            .map(|(i, pat)| {
                json[i + pat.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(values.len(), 3, "two ranks + aggregate");
        assert_eq!(values[0] + values[1], values[2]);
        assert!(json.contains("\"timeline\""));
        assert!(json.contains("\"kind\": \"fault\""));
    }

    /// The cross-rank alignment property, ManualClock-driven: three
    /// workers with skewed clocks each record a nested span pair plus a
    /// barrier instant at the same *true* time; after each worker's
    /// ClockSync correction the merged trace must be well-nested per
    /// rank and the barrier instants must coincide exactly (RTT 0 here,
    /// so the midpoint estimate is exact).
    #[test]
    fn merged_trace_is_well_nested_and_offset_aligned() {
        let skews: [i64; 3] = [0, 250_000, -40_000];
        let barrier_true_us = 600_000u64;
        let mut agg = TelemetryAggregator::new(3);
        for (rank, skew) in skews.iter().enumerate() {
            let clock = ManualClock::new();
            let obs = Observer::with_clock(Clock::Manual(clock.clone()));
            let local = |true_us: u64| (true_us as i64 + skew).max(0) as u64;
            // Outer Recv span 100ms..900ms true time; inner Sort span
            // 300ms..500ms, strictly nested.
            let t = obs.rank_tracer(rank as u32, 0);
            clock.set_micros(local(100_000));
            let outer = t.start();
            clock.set_micros(local(300_000));
            let inner = t.start();
            clock.set_micros(local(500_000));
            t.span(SpanKind::Sort, inner, vec![]);
            clock.set_micros(local(barrier_true_us));
            t.instant(SpanKind::Fault, vec![("cause", "barrier".into())]);
            clock.set_micros(local(900_000));
            t.span(SpanKind::Recv, outer, vec![]);
            obs.absorb(&t);
            // A zero-RTT exchange at true time 50ms (late enough that no
            // worker clock has gone negative): t0 == t1, the coordinator
            // reads true time.
            let sync = ClockSync::from_exchange(local(50_000), 50_000, local(50_000));
            assert_eq!(sync.offset_us, -skew, "rank {rank}");
            agg.absorb(TelemetryFrame::collect(&obs, rank as u32, 0, true, sync));
        }
        let trace = agg.trace();
        // Alignment: every barrier instant lands on the same corrected
        // timestamp.
        let barriers: Vec<u64> = trace.of_kind(SpanKind::Fault).map(|e| e.ts_us).collect();
        assert_eq!(barriers.len(), 3);
        assert!(
            barriers.iter().all(|b| *b == barrier_true_us),
            "barrier instants must coincide after correction: {barriers:?}"
        );
        // Well-nestedness per rank: any two spans are disjoint or one
        // contains the other.
        for rank in 0..3u32 {
            let spans: Vec<_> = trace
                .events()
                .iter()
                .filter(|e| e.rank == rank && !e.instant)
                .collect();
            assert_eq!(spans.len(), 2);
            for a in &spans {
                for b in &spans {
                    let disjoint = a.end_us() <= b.ts_us || b.end_us() <= a.ts_us;
                    let a_in_b = a.ts_us >= b.ts_us && a.end_us() <= b.end_us();
                    let b_in_a = b.ts_us >= a.ts_us && b.end_us() <= a.end_us();
                    assert!(
                        disjoint || a_in_b || b_in_a,
                        "rank {rank}: spans must be well-nested"
                    );
                }
            }
            // And the corrected absolute positions match the true
            // timeline regardless of the rank's skew.
            assert_eq!(spans.iter().map(|e| e.ts_us).min(), Some(100_000));
        }
        // The Chrome export puts every rank in its own process row.
        let chrome = trace.to_chrome_json();
        for rank in 0..3 {
            assert!(chrome.contains(&format!("\"name\":\"rank {rank}\"")));
        }
    }
}
