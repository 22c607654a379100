//! Service wire protocol: the job verbs layered on the line-oriented
//! rendezvous protocol.
//!
//! Everything on a service control stream is one line of text: a verb
//! token, then space-separated positional or `key=value` fields, with
//! percent-escaping for free-form values (tenant names, paths, error
//! messages). The verb families:
//!
//! * **worker ↔ coordinator** — `join <port> <t0>` (a resident worker
//!   announcing its data port), answered by `clock <T>`, `rank <r>
//!   <ranks>` and the usual `peers v<N> …` table broadcast; then any
//!   number of `job <id> …` dispatches answered per rank by
//!   `jobdone <id> rank=… …` / `jobfail <id> rank=… err=…`, with
//!   `jobtlm <id> tlm …` telemetry interleaved; finally `drain` /
//!   `bye rank=<r>` for graceful deregistration.
//! * **client ↔ coordinator** — `submit tenant=… workload=… …`,
//!   answered by `accepted job=<id>` or `rejected reason=…` and later
//!   a terminal `jobdone job=<id> …` / `jobfail job=<id> err=…`; plus
//!   one-line `status` and `drain` queries.
//!
//! **Forward compatibility** is a protocol rule, not an accident: every
//! reader skips lines whose leading verb it does not recognize
//! ([`read_known_line`]), exactly as `TelemetryFrame::parse` ignores
//! unknown fields. An old worker pointed at a new coordinator (or the
//! reverse) sees future verbs as noise rather than errors, which is what
//! lets `job …` verbs ride on the same streams the one-shot launcher
//! already uses.

use std::fmt::Write as _;
use std::io::{self, BufRead};

/// Percent-escapes a free-form value so it contains no whitespace and
/// none of the separators of any line protocol here (`= % ,` on service
/// lines, `; :` as well inside `tlm` span arguments).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b',' | b';' | b':' | b'=' | b'%' | 0x00..=0x20 | 0x7f => {
                let _ = write!(out, "%{b:02x}");
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// Reverses [`esc`]. Returns `None` on malformed escapes.
pub fn unesc(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Reads the next line whose leading verb `accept` recognizes, skipping
/// unknown-verb lines (and blank lines) for forward compatibility —
/// older peers must tolerate verbs introduced after they shipped.
/// Returns `Ok(0)` at end of stream, otherwise the byte length of the
/// accepted line (stored in `line`, trailing newline included).
pub fn read_known_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    accept: impl Fn(&str) -> bool,
) -> io::Result<usize> {
    loop {
        line.clear();
        let n = reader.read_line(line)?;
        if n == 0 {
            return Ok(0);
        }
        match line.split_whitespace().next() {
            Some(verb) if accept(verb) => return Ok(n),
            _ => continue, // unknown or blank: a future peer's verb
        }
    }
}

/// One job as the coordinator dispatches it to every resident rank.
///
/// The submission form (`submit …`) carries the same fields without the
/// id — the coordinator assigns ids in admission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Coordinator-assigned job id (tags this job's frames on the mesh).
    pub id: u64,
    /// Submitting tenant (the fair-share admission principal).
    pub tenant: String,
    /// Catalogue workload name (resolved by the worker's
    /// [`JobResolver`](crate::service::JobResolver)).
    pub workload: String,
    /// O tasks in the job.
    pub tasks: usize,
    /// Minimum split size, bytes.
    pub bytes_per_task: usize,
    /// Input-generation seed.
    pub seed: u64,
    /// Worker threads per O task.
    pub o_parallelism: usize,
    /// When set, each rank writes its partition to `<out>/part-NNNNN`.
    pub out: Option<String>,
    /// When set, workers seal this job's spill runs to block-indexed
    /// files under `<spill_dir>/job-<id>/`, cleaned up when the job
    /// finishes (success or failure).
    pub spill_dir: Option<String>,
    /// LZ4-compress spill-run blocks.
    pub spill_compress: bool,
}

impl JobSpec {
    fn fields(&self) -> String {
        let mut s = format!(
            "tenant={} workload={} tasks={} bytes={} seed={} par={}",
            esc(&self.tenant),
            esc(&self.workload),
            self.tasks,
            self.bytes_per_task,
            self.seed,
            self.o_parallelism,
        );
        if let Some(out) = &self.out {
            let _ = write!(s, " out={}", esc(out));
        }
        if let Some(dir) = &self.spill_dir {
            let _ = write!(s, " spilldir={}", esc(dir));
        }
        if self.spill_compress {
            s.push_str(" spillcomp=1");
        }
        s
    }

    /// The dispatch form: `job <id> tenant=… workload=… …`.
    pub fn wire_line(&self) -> String {
        format!("job {} {}", self.id, self.fields())
    }

    /// The submission form: `submit tenant=… workload=… …` (no id).
    pub fn submit_line(&self) -> String {
        format!("submit {}", self.fields())
    }

    fn parse_fields(mut spec: JobSpec, it: std::str::SplitWhitespace) -> Option<JobSpec> {
        for field in it {
            let (key, value) = field.split_once('=')?;
            match key {
                "tenant" => spec.tenant = unesc(value)?,
                "workload" => spec.workload = unesc(value)?,
                "tasks" => spec.tasks = value.parse().ok()?,
                "bytes" => spec.bytes_per_task = value.parse().ok()?,
                "seed" => spec.seed = value.parse().ok()?,
                "par" => spec.o_parallelism = value.parse().ok()?,
                "out" => spec.out = Some(unesc(value)?),
                "spilldir" => spec.spill_dir = Some(unesc(value)?),
                "spillcomp" => spec.spill_compress = value == "1",
                _ => {} // forward compatibility: ignore unknown fields
            }
        }
        if spec.tenant.is_empty() || spec.workload.is_empty() || spec.tasks == 0 {
            return None;
        }
        Some(spec)
    }

    fn empty() -> JobSpec {
        JobSpec {
            id: 0,
            tenant: String::new(),
            workload: String::new(),
            tasks: 0,
            bytes_per_task: 4096,
            seed: 42,
            o_parallelism: 1,
            out: None,
            spill_dir: None,
            spill_compress: false,
        }
    }

    /// Parses a `job <id> …` dispatch line.
    pub fn parse_job(line: &str) -> Option<JobSpec> {
        let mut it = line.split_whitespace();
        if it.next()? != "job" {
            return None;
        }
        let mut spec = JobSpec::empty();
        spec.id = it.next()?.parse().ok()?;
        Self::parse_fields(spec, it)
    }

    /// Parses a `submit …` line (id left at 0 for the coordinator to
    /// assign).
    pub fn parse_submit(line: &str) -> Option<JobSpec> {
        let mut it = line.split_whitespace();
        if it.next()? != "submit" {
            return None;
        }
        Self::parse_fields(JobSpec::empty(), it)
    }
}

/// One rank's completion report for one job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerDone {
    /// The finished job.
    pub job: u64,
    /// Reporting rank.
    pub rank: usize,
    /// CRC-32C of the rank's framed partition bytes (the byte-identity
    /// fingerprint `dmpirun --verify-inproc` also uses).
    pub crc: u32,
    /// Wall time this rank spent on the job, µs.
    pub elapsed_us: u64,
    /// Records in the rank's A partition.
    pub out_records: u64,
    /// Framed partition bytes.
    pub out_bytes: u64,
    /// Records the rank's O tasks emitted.
    pub records_emitted: u64,
    /// Key groups reduced.
    pub groups: u64,
    /// Estimated encoded bytes this job sent on the shared mesh.
    pub wire_sent: u64,
    /// Estimated encoded bytes this job received on the shared mesh.
    pub wire_recv: u64,
}

impl WorkerDone {
    /// The wire form: `jobdone <id> rank=… crc=… …`.
    pub fn wire_line(&self) -> String {
        format!(
            "jobdone {} rank={} crc={} elapsed_us={} out_records={} out_bytes={} \
             records_emitted={} groups={} wire_sent={} wire_recv={}",
            self.job,
            self.rank,
            self.crc,
            self.elapsed_us,
            self.out_records,
            self.out_bytes,
            self.records_emitted,
            self.groups,
            self.wire_sent,
            self.wire_recv,
        )
    }

    /// Parses a [`wire_line`](Self::wire_line).
    pub fn parse(line: &str) -> Option<WorkerDone> {
        let mut it = line.split_whitespace();
        if it.next()? != "jobdone" {
            return None;
        }
        let mut done = WorkerDone {
            job: it.next()?.parse().ok()?,
            ..WorkerDone::default()
        };
        for field in it {
            let (key, value) = field.split_once('=')?;
            match key {
                "rank" => done.rank = value.parse().ok()?,
                "crc" => done.crc = value.parse().ok()?,
                "elapsed_us" => done.elapsed_us = value.parse().ok()?,
                "out_records" => done.out_records = value.parse().ok()?,
                "out_bytes" => done.out_bytes = value.parse().ok()?,
                "records_emitted" => done.records_emitted = value.parse().ok()?,
                "groups" => done.groups = value.parse().ok()?,
                "wire_sent" => done.wire_sent = value.parse().ok()?,
                "wire_recv" => done.wire_recv = value.parse().ok()?,
                _ => {}
            }
        }
        Some(done)
    }
}

/// Parses a worker's `jobfail <id> rank=<r> err=<esc>` line.
pub fn parse_jobfail(line: &str) -> Option<(u64, usize, String)> {
    let mut it = line.split_whitespace();
    if it.next()? != "jobfail" {
        return None;
    }
    let job = it.next()?.parse().ok()?;
    let mut rank = None;
    let mut err = None;
    for field in it {
        let (key, value) = field.split_once('=')?;
        match key {
            "rank" => rank = Some(value.parse().ok()?),
            "err" => err = Some(unesc(value)?),
            _ => {}
        }
    }
    Some((job, rank?, err?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "with space", "a,b;c:d=e%f", "tab\tnl\n", ""] {
            let escaped = esc(s);
            assert!(!escaped.contains([' ', '\t', '\n', ',', ';', ':', '=']));
            assert_eq!(unesc(&escaped).as_deref(), Some(s));
        }
        assert!(unesc("%zz").is_none());
    }

    #[test]
    fn job_spec_round_trips_both_forms() {
        let spec = JobSpec {
            id: 9,
            tenant: "team a".into(),
            workload: "wordcount".into(),
            tasks: 4,
            bytes_per_task: 2048,
            seed: 7,
            o_parallelism: 2,
            out: Some("/tmp/out dir".into()),
            spill_dir: Some("/tmp/spill root".into()),
            spill_compress: true,
        };
        assert_eq!(JobSpec::parse_job(&spec.wire_line()).unwrap(), spec);
        let submitted = JobSpec::parse_submit(&spec.submit_line()).unwrap();
        assert_eq!(submitted.id, 0, "submit carries no id");
        assert_eq!(submitted.tenant, spec.tenant);
        assert_eq!(submitted.out, spec.out);
        assert_eq!(submitted.spill_dir, spec.spill_dir);
        assert!(submitted.spill_compress);
        assert!(JobSpec::parse_job("job x tenant=a workload=w tasks=1").is_none());
        assert!(
            JobSpec::parse_job("job 1 tenant=a workload=w tasks=0").is_none(),
            "zero tasks rejected"
        );
        // Unknown fields are skipped, not fatal (forward compatibility).
        assert!(JobSpec::parse_job("job 1 tenant=a workload=w tasks=1 priority=9").is_some());
    }

    #[test]
    fn worker_done_and_jobfail_round_trip() {
        let done = WorkerDone {
            job: 3,
            rank: 1,
            crc: 0xDEAD,
            elapsed_us: 12345,
            out_records: 10,
            out_bytes: 200,
            records_emitted: 40,
            groups: 9,
            wire_sent: 840,
            wire_recv: 630,
        };
        assert_eq!(WorkerDone::parse(&done.wire_line()).unwrap(), done);
        let line = format!("jobfail 7 rank=2 err={}", esc("mesh tore: rank 1 died"));
        assert_eq!(
            parse_jobfail(&line),
            Some((7, 2, "mesh tore: rank 1 died".to_string()))
        );
        assert!(parse_jobfail("jobfail 7 rank=2").is_none());
    }

    #[test]
    fn read_known_line_skips_unknown_verbs() {
        let text = "future-verb a b c\n\nwobble 1\njob 1 tenant=a workload=w tasks=2\n";
        let mut reader = Cursor::new(text);
        let mut line = String::new();
        let n = read_known_line(&mut reader, &mut line, |v| v == "job").unwrap();
        assert!(n > 0);
        assert!(line.starts_with("job 1"));
        // Stream end after the accepted line.
        assert_eq!(
            read_known_line(&mut reader, &mut line, |v| v == "job").unwrap(),
            0
        );
    }
}
