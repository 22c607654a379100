//! The control-plane line codec and the verbs that ride on it.
//!
//! Everything on a service control stream — `dmpid`'s or a `dmpirun`
//! launch's — is one line of text in one grammar, `verb positional…
//! key=value…`, read through [`Line`] and written through
//! [`LineWriter`], with free-form values (tenant names, paths, error
//! messages) percent-escaped. DESIGN.md §6 has the verb table; the
//! families are:
//!
//! * **join** — `join <port> <t0>`, answered by `clock <T>`, the seat
//!   `rank <r> <ranks> tlm=<0|1>`, and the `peers v0 …` table broadcast;
//! * **coordinator → worker** — `job <id> …` dispatches ([`JobSpec`]),
//!   finally `drain`;
//! * **worker → coordinator** ([`WorkerEvent`]) — per job an optional
//!   final `jobtlm <id> tlm …` frame, then `jobdone <id> rank=… …` or
//!   `jobfail <id> rank=… err=…`; finally `bye rank=<r>`;
//! * **client ↔ coordinator** — `submit tenant=… workload=… …`,
//!   answered by `accepted job=<id>` or `rejected reason=…` and, once
//!   every rank has reported or left, one terminal `jobdone job=<id> …`
//!   (the ranks' counters summed) or `jobfail job=<id> err=…` (every
//!   failed rank's reason); plus one-line `status` and `drain` queries,
//!   all sent through the client calls of [`super::client`].
//!
//! **Forward compatibility** is a protocol rule, not an accident: every
//! reader skips lines whose leading verb it does not recognize
//! ([`read_known_line`]) and every parser ignores fields it does not
//! know, so an old worker pointed at a new coordinator (or the reverse)
//! sees future verbs as noise rather than errors. Malformed input — a
//! token without `=` among the fields, a bad number, a bad escape —
//! makes a parser return `None`; nothing here panics on input.

use std::fmt::{Display, Write as _};
use std::io::{self, BufRead, Read, Write};
use std::str::FromStr;

use crate::observe::TelemetryFrame;

/// Longest control line a reader accepts, newline included: room for a
/// final `tlm` frame of a few hundred thousand spans, and the bound on
/// what a peer that never sends `\n` can make a reader buffer.
pub const MAX_LINE_BYTES: usize = 16 << 20;

fn esc_into(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            // Bytes of a multi-byte character are escaped one by one:
            // pushed as `char`s they would each become a character.
            b',' | b';' | b':' | b'=' | b'%' | 0x00..=0x20 | 0x7f..=0xff => {
                let _ = write!(out, "%{b:02x}");
            }
            _ => out.push(b as char),
        }
    }
}

/// Percent-escapes a free-form value so it contains no whitespace and
/// none of the separators of any line protocol here (`= % ,` on service
/// lines, `; :` as well inside `tlm` span arguments).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
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

/// A borrowed view of one control line: a cursor that hands out the
/// positional tokens in order and then the `key=value` fields,
/// allocating nothing per token.
#[derive(Clone, Debug)]
pub struct Line<'a> {
    verb: &'a str,
    tokens: std::str::SplitWhitespace<'a>,
}

impl<'a> Line<'a> {
    /// Splits the verb off `line`. `None` for a blank line.
    pub fn parse(line: &'a str) -> Option<Line<'a>> {
        let mut tokens = line.split_whitespace();
        let verb = tokens.next()?;
        Some(Line { verb, tokens })
    }

    /// [`parse`](Self::parse), but `None` unless the verb is `verb`.
    pub fn of(line: &'a str, verb: &str) -> Option<Line<'a>> {
        Line::parse(line).filter(|l| l.verb == verb)
    }

    /// The leading verb.
    pub fn verb(&self) -> &'a str {
        self.verb
    }

    /// The next positional token, as written.
    pub fn word(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }

    /// The next positional token, typed; `None` if missing or malformed.
    pub fn pos<T: FromStr>(&mut self) -> Option<T> {
        self.word()?.parse().ok()
    }

    /// The remaining tokens as `key=value` fields. A token without `=`
    /// yields `None`: the line is malformed and its parser gives up.
    pub fn fields(self) -> impl Iterator<Item = Option<(&'a str, Value<'a>)>> {
        self.tokens
            .map(|t| t.split_once('=').map(|(k, v)| (k, Value(v))))
    }

    /// The first remaining field named `key`.
    pub fn get(self, key: &str) -> Option<Value<'a>> {
        let mut fields = self.fields().flatten();
        fields.find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One field's value as written (`.0`), with the typed getters.
#[derive(Clone, Copy, Debug)]
pub struct Value<'a>(pub &'a str);

impl Value<'_> {
    /// The value as a number (or anything else `FromStr`).
    pub fn num<T: FromStr>(self) -> Option<T> {
        self.0.parse().ok()
    }

    /// The value as free-form text, un-escaped.
    pub fn text(self) -> Option<String> {
        unesc(self.0)
    }

    /// The value as a `0`/`1` flag.
    pub fn flag(self) -> bool {
        self.0 == "1"
    }
}

/// Builds one control line (no trailing newline) for [`Line`] to read.
#[derive(Debug)]
pub struct LineWriter(String);

impl LineWriter {
    /// Starts a line with its verb.
    pub fn new(verb: &str) -> LineWriter {
        LineWriter(verb.to_string())
    }

    /// Appends a positional token.
    pub fn pos(mut self, value: impl Display) -> LineWriter {
        let _ = write!(self.0, " {value}");
        self
    }

    /// Appends `key=value`; the value must need no escaping (a number).
    pub fn field(mut self, key: &str, value: impl Display) -> LineWriter {
        let _ = write!(self.0, " {key}={value}");
        self
    }

    /// Appends `key=value` with the free-form `value` escaped.
    pub fn text(mut self, key: &str, value: &str) -> LineWriter {
        esc_into(self.open(key), value);
        self
    }

    /// Appends `key=` and returns the buffer, for a value with an
    /// encoding of its own (the `tlm` frame's lists).
    pub fn open(&mut self, key: &str) -> &mut String {
        let _ = write!(self.0, " {key}=");
        &mut self.0
    }

    /// The finished line.
    pub fn finish(self) -> String {
        self.0
    }

    /// Writes the finished line and its newline to `w` in one write, so
    /// the reader wakes once per line, not once per piece of it.
    pub(crate) fn send<W: Write + ?Sized>(self, w: &mut W) -> io::Result<()> {
        w.write_all((self.0 + "\n").as_bytes())
    }
}

/// Reads the next line whose leading verb `accept` recognizes, skipping
/// unknown-verb lines (and blank lines) for forward compatibility —
/// older peers must tolerate verbs introduced after they shipped.
/// Returns `Ok(0)` at end of stream, otherwise the byte length of the
/// accepted line (stored in `line`, trailing newline included). A line
/// longer than [`MAX_LINE_BYTES`] is an `InvalidData` error, raised
/// before more than that many bytes of it were read.
pub fn read_known_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    accept: impl Fn(&str) -> bool,
) -> io::Result<usize> {
    loop {
        line.clear();
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64);
        let n = capped.read_line(line)?;
        if n == MAX_LINE_BYTES && !line.ends_with('\n') {
            let detail = format!("control line exceeds {MAX_LINE_BYTES} bytes");
            return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
        }
        if n == 0 || Line::parse(line).is_some_and(|l| accept(l.verb())) {
            return Ok(n);
        }
        // Unknown or blank: a future peer's verb.
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
    /// Unread, kept for `benchmark/src/service.rs`'s struct literal (ROADMAP item 1 unpins it).
    pub o_parallelism: usize,
    /// When set, each rank writes its partition to `<out>/part-NNNNN`.
    pub out: Option<String>,
    /// When set, workers seal this job's spill runs to block-indexed
    /// files under `<spill_dir>/job-<id>/`, cleaned up when the job
    /// finishes (success or failure). Without one, nothing seals.
    pub spill_dir: Option<String>,
    /// LZ4-compress spill-run blocks.
    pub spill_compress: bool,
}

impl JobSpec {
    fn write_fields(&self, line: LineWriter) -> String {
        let mut line = line
            .text("tenant", &self.tenant)
            .text("workload", &self.workload)
            .field("tasks", self.tasks)
            .field("bytes", self.bytes_per_task)
            .field("seed", self.seed);
        if let Some(out) = &self.out {
            line = line.text("out", out);
        }
        if let Some(dir) = &self.spill_dir {
            line = line.text("spilldir", dir);
        }
        if self.spill_compress {
            line = line.field("spillcomp", 1);
        }
        line.finish()
    }

    /// The dispatch form: `job <id> tenant=… workload=… …`.
    pub fn wire_line(&self) -> String {
        self.write_fields(LineWriter::new("job").pos(self.id))
    }

    /// The submission form: `submit tenant=… workload=… …` (no id).
    pub fn submit_line(&self) -> String {
        self.write_fields(LineWriter::new("submit"))
    }

    fn parse_fields(id: u64, line: Line<'_>) -> Option<JobSpec> {
        let mut spec = JobSpec {
            id,
            tenant: String::new(),
            workload: String::new(),
            tasks: 0,
            bytes_per_task: 4096,
            seed: 42,
            o_parallelism: 1,
            out: None,
            spill_dir: None,
            spill_compress: false,
        };
        for field in line.fields() {
            let (key, value) = field?;
            match key {
                "tenant" => spec.tenant = value.text()?,
                "workload" => spec.workload = value.text()?,
                "tasks" => spec.tasks = value.num()?,
                "bytes" => spec.bytes_per_task = value.num()?,
                "seed" => spec.seed = value.num()?,
                "out" => spec.out = Some(value.text()?),
                "spilldir" => spec.spill_dir = Some(value.text()?),
                "spillcomp" => spec.spill_compress = value.flag(),
                _ => {} // forward compatibility: ignore unknown fields
            }
        }
        if spec.tenant.is_empty() || spec.workload.is_empty() || spec.tasks == 0 {
            return None;
        }
        Some(spec)
    }

    /// Parses a `job <id> …` dispatch line.
    pub fn parse_job(line: &str) -> Option<JobSpec> {
        let mut line = Line::of(line, "job")?;
        Self::parse_fields(line.pos()?, line)
    }

    /// Parses a `submit …` line (id left at 0 for the coordinator to
    /// assign).
    pub fn parse_submit(line: &str) -> Option<JobSpec> {
        Self::parse_fields(0, Line::of(line, "submit")?)
    }
}

/// Declares [`WorkerDone`]: every field after the job id rides on the
/// `jobdone` line as `name=value` under its own name, so the struct, the
/// writer and the parser are one list.
macro_rules! worker_done {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// One rank's completion report for one job.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct WorkerDone {
            /// The finished job.
            pub job: u64,
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl WorkerDone {
            /// The wire form: `jobdone <id> rank=… crc=… …`.
            pub fn wire_line(&self) -> String {
                let line = LineWriter::new("jobdone").pos(self.job);
                $(let line = line.field(stringify!($field), self.$field);)*
                line.finish()
            }

            fn parse_fields(mut line: Line<'_>) -> Option<WorkerDone> {
                let mut done = WorkerDone {
                    job: line.pos()?,
                    ..WorkerDone::default()
                };
                for field in line.fields() {
                    let (key, value) = field?;
                    match key {
                        $(stringify!($field) => done.$field = value.num()?,)*
                        _ => {} // forward compatibility
                    }
                }
                Some(done)
            }
        }
    };
}

worker_done! {
    /// Reporting rank.
    rank: usize,
    /// CRC-32C of the rank's framed partition bytes (the byte-identity
    /// fingerprint `dmpirun --verify-inproc` also uses).
    crc: u32,
    /// Wall time this rank spent on the job, µs.
    elapsed_us: u64,
    /// Records in the rank's A partition.
    out_records: u64,
    /// Framed partition bytes.
    out_bytes: u64,
    /// Records the rank's O tasks emitted.
    records_emitted: u64,
    /// Key groups reduced.
    groups: u64,
    /// Encoded bytes this job sent: estimated per job on a shared mesh,
    /// socket-exact for a one-shot job.
    wire_sent: u64,
    /// Encoded bytes this job received (likewise).
    wire_recv: u64,
    /// O tasks this rank ran.
    o_tasks_run: u64,
    /// Payload bytes the rank's O tasks emitted.
    bytes_emitted: u64,
    /// Data frames the rank shipped.
    frames: u64,
}

impl WorkerDone {
    /// Parses a [`wire_line`](Self::wire_line).
    pub fn parse(line: &str) -> Option<WorkerDone> {
        Self::parse_fields(Line::of(line, "jobdone")?)
    }
}

/// What a worker tells its coordinator over its control stream.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // the fields are named for what they are
pub enum WorkerEvent {
    /// `jobdone <id> rank=… …`: the rank finished the job.
    Done(WorkerDone),
    /// `jobfail <id> rank=<r> err=<escaped>`: the job failed on the rank
    /// with `err`, as the rank's `Error` displays.
    Fail { job: u64, rank: usize, err: String },
    /// `jobtlm <id> tlm …`: a telemetry frame of the job.
    Tlm {
        job: u64,
        frame: Box<TelemetryFrame>,
    },
    /// `bye rank=<r>`: the rank deregisters after `drain`.
    Bye { rank: usize },
}

impl WorkerEvent {
    /// The one-line wire form (no trailing newline).
    pub fn wire_line(&self) -> String {
        match self {
            WorkerEvent::Done(done) => done.wire_line(),
            WorkerEvent::Fail { job, rank, err } => LineWriter::new("jobfail")
                .pos(job)
                .field("rank", rank)
                .text("err", err)
                .finish(),
            WorkerEvent::Tlm { job, frame } => LineWriter::new("jobtlm")
                .pos(job)
                .pos(frame.wire_line())
                .finish(),
            WorkerEvent::Bye { rank } => LineWriter::new("bye").field("rank", rank).finish(),
        }
    }

    /// Classifies one worker → coordinator line. `None` for another verb
    /// or a malformed line.
    pub fn parse(line: &str) -> Option<WorkerEvent> {
        let mut line = Line::parse(line)?;
        match line.verb() {
            "jobdone" => WorkerDone::parse_fields(line).map(WorkerEvent::Done),
            "jobfail" => {
                let job = line.pos()?;
                let (mut rank, mut err) = (None, None);
                for field in line.fields() {
                    match field? {
                        ("rank", value) => rank = Some(value.num()?),
                        ("err", value) => err = Some(value.text()?),
                        _ => {}
                    }
                }
                let (rank, err) = (rank?, err?);
                Some(WorkerEvent::Fail { job, rank, err })
            }
            "jobtlm" => {
                let job = line.pos()?;
                let frame = Box::new(TelemetryFrame::parse_fields(line.word()?, line)?);
                Some(WorkerEvent::Tlm { job, frame })
            }
            "bye" => line
                .get("rank")?
                .num()
                .map(|rank| WorkerEvent::Bye { rank }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn escaping_round_trips() {
        for s in [
            "plain",
            "with space",
            "a,b;c:d=e%f",
            "tab\tnl\n",
            "",
            "caf\u{e9} \u{4e16}",
        ] {
            let escaped = esc(s);
            assert!(!escaped.contains([' ', '\t', '\n', ',', ';', ':', '=']));
            assert!(escaped.is_ascii(), "{escaped}");
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
            o_parallelism: 1,
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
    fn an_old_clients_par_field_is_skipped() {
        // Clients from before chunk-parallel O was removed send `par=N`;
        // it is skipped like any unknown field.
        let line = "submit tenant=a workload=wordcount tasks=4 bytes=2048 seed=7";
        let spec = JobSpec::parse_submit(line).expect("a valid submit line");
        assert_eq!(JobSpec::parse_submit(&format!("{line} par=4")), Some(spec));
    }

    #[test]
    fn worker_events_round_trip() {
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
            o_tasks_run: 2,
            bytes_emitted: 480,
            frames: 4,
        };
        assert_eq!(WorkerDone::parse(&done.wire_line()).unwrap(), done);
        let frame = TelemetryFrame {
            rank: 1,
            seq: 2,
            is_final: true,
            sent_row: vec![0, 7],
            ..TelemetryFrame::default()
        };
        for event in [
            WorkerEvent::Done(done),
            WorkerEvent::Fail {
                job: 7,
                rank: 2,
                err: "mesh tore: rank 1 died\nwith 100% of a=b".into(),
            },
            WorkerEvent::Tlm {
                job: 4,
                frame: Box::new(frame),
            },
            WorkerEvent::Bye { rank: 1 },
        ] {
            let line = event.wire_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(WorkerEvent::parse(&line), Some(event), "{line}");
        }
        assert_eq!(
            WorkerEvent::Bye { rank: 1 }.wire_line(),
            "bye rank=1",
            "the deregistration line is unchanged"
        );
        // Every rejection: a missing field, a bad number, a bad escape, a
        // token without `=`, a missing job id, another family's verb.
        for bad in [
            "jobfail 7 rank=2",
            "jobfail 7 err=x",
            "jobfail 7 rank=x err=y",
            "jobfail 7 rank=2 err=%zz",
            "jobfail 7 rank=2 stray err=y",
            "jobfail rank=2 err=y",
            "jobdone x rank=1",
            "jobdone 3 rank=1 crc=notanumber",
            "jobtlm 4 rank=1",
            "jobtlm x tlm rank=1",
            "jobtlm 4 tlm rank=x",
            "bye",
            "done rank=0 crc=1",
            "",
        ] {
            assert_eq!(WorkerEvent::parse(bad), None, "{bad:?}");
        }
        // Unknown fields are ignored (forward compatibility).
        assert!(WorkerEvent::parse("jobfail 7 rank=2 err=y attempt=3").is_some());
    }

    #[test]
    fn line_hands_out_positionals_then_fields() {
        let mut line = Line::parse("  rank 3 4 tlm=1 note=a%20b\n").unwrap();
        assert_eq!(line.verb(), "rank");
        assert_eq!(line.pos::<usize>(), Some(3));
        assert_eq!(line.word(), Some("4"));
        let fields: Vec<_> = line.clone().fields().map(Option::unwrap).collect();
        assert_eq!(fields.len(), 2);
        assert!(fields[0].1.flag());
        assert_eq!(fields[1].1.text().as_deref(), Some("a b"));
        assert_eq!(fields[1].1 .0, "a%20b");
        assert_eq!(line.clone().get("tlm").and_then(|v| v.num::<u8>()), Some(1));
        assert!(line.get("absent").is_none());
        assert!(Line::parse(" \t\n").is_none(), "blank line");
        assert!(Line::of("rank 1", "join").is_none());
        let mut short = Line::parse("clock").unwrap();
        assert_eq!(short.pos::<u64>(), None, "missing positional");
        assert_eq!(Line::parse("clock x").unwrap().pos::<u64>(), None);
        // A token without `=` among the fields marks the line malformed.
        let malformed: Vec<_> = Line::parse("v a=1 b").unwrap().fields().collect();
        assert!(malformed[0].is_some() && malformed[1].is_none());
    }

    #[test]
    fn line_writer_output_reads_back() {
        let mut w = LineWriter::new("verb")
            .pos(7)
            .field("n", -3)
            .text("t", "a b=c");
        w.open("list").push_str("1:2");
        let text = w.finish();
        assert_eq!(text, "verb 7 n=-3 t=a%20b%3dc list=1:2");
        let mut line = Line::parse(&text).unwrap();
        assert_eq!(line.pos::<u32>(), Some(7));
        assert_eq!(line.clone().get("n").unwrap().num::<i64>(), Some(-3));
        assert_eq!(line.clone().get("t").unwrap().text().unwrap(), "a b=c");
        assert_eq!(line.get("list").unwrap().0, "1:2");
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

    /// A peer that streams bytes and never a newline.
    struct Endless {
        served: usize,
    }

    impl io::Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'x');
            self.served += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn a_line_over_the_cap_is_an_error_not_unbounded_memory() {
        let mut reader = io::BufReader::with_capacity(4096, Endless { served: 0 });
        let mut line = String::new();
        let err = read_known_line(&mut reader, &mut line, |_| true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(line.len() <= MAX_LINE_BYTES, "buffered {}", line.len());
        // At most the cap was consumed (what the BufReader prefetched
        // beyond it stays in its buffer, unread).
        let consumed = reader.get_ref().served - reader.buffer().len();
        assert_eq!(consumed, MAX_LINE_BYTES);

        // A line of exactly the cap, newline included, still reads.
        let mut exact = "y".repeat(MAX_LINE_BYTES - 1);
        exact.push('\n');
        let mut reader = Cursor::new(exact);
        let n = read_known_line(&mut reader, &mut line, |_| true).unwrap();
        assert_eq!(n, MAX_LINE_BYTES);
    }

    /// DESIGN.md prints the verb table; its rows must be the verbs this
    /// crate writes (`LineWriter::new` outside tests), one row each, so
    /// the document cannot drift.
    #[test]
    fn design_doc_lists_every_verb() {
        let mut written = std::collections::BTreeSet::new();
        let mut dirs = vec![std::path::PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/src"
        ))];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    let source = std::fs::read_to_string(&path).unwrap();
                    let live = source.split("#[cfg(test)]").next().unwrap_or_default();
                    for call in live.split("LineWriter::new(\"").skip(1) {
                        written.insert(call[..call.find('"').unwrap()].to_string());
                    }
                }
            }
        }
        let mut documented: Vec<String> = crate::design_table("| verb |")
            .into_iter()
            .map(|row| row[0].clone())
            .collect();
        documented.sort();
        assert_eq!(documented, written.into_iter().collect::<Vec<_>>());
    }
}
