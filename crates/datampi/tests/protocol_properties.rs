//! Property tests of the control-plane line codec
//! (`datampi::service::protocol`) and of every verb that rides on it,
//! the `tlm` frame included: whatever a writer produces parses back to
//! the value it was given; unknown fields and unknown verbs are passed
//! over; and no input — arbitrary bytes, a truncated line, a line with
//! one byte changed — makes a parser or the line reader panic. They
//! answer `None` or an error instead.

use std::io::{BufReader, Cursor};
use std::net::{Ipv4Addr, SocketAddr};

use proptest::prelude::*;

use datampi::distrib::RankTable;
use datampi::observe::{
    Counter, HistKind, LogHistogram, MetricsSnapshot, SpanKind, TelemetryFrame, TraceEvent,
};
use datampi::service::protocol::{
    read_known_line, JobSpec, Line, LineWriter, WorkerDone, WorkerEvent,
};

/// Free-form values: printable ASCII, plus one that holds every
/// separator of every line protocol, control characters and non-ASCII.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~]{0,24}",
        "[a-z]{1,8}",
        Just("tab\tnl\n 100% of a=b;c:d,e \u{e9}\u{4e16}".to_string()),
    ]
}

fn job_spec() -> impl Strategy<Value = JobSpec> {
    let numbers = prop::collection::vec(any::<u64>(), 4);
    let paths = prop::collection::vec(text(), 2);
    (numbers, "[ -~]{1,12}", "[ -~]{1,12}", paths, any::<u8>()).prop_map(
        |(n, tenant, workload, paths, flags)| JobSpec {
            id: n[0],
            tenant,
            workload,
            tasks: (n[1] % 1000) as usize + 1,
            bytes_per_task: n[2] as usize,
            seed: n[3],
            o_parallelism: 1,
            out: (flags & 1 == 1).then(|| paths[0].clone()),
            spill_dir: (flags & 2 == 2).then(|| paths[1].clone()),
            spill_compress: flags & 4 == 4,
        },
    )
}

fn worker_done() -> impl Strategy<Value = WorkerDone> {
    prop::collection::vec(any::<u64>(), 13).prop_map(|n| WorkerDone {
        job: n[0],
        rank: n[1] as usize,
        crc: n[2] as u32,
        elapsed_us: n[3],
        out_records: n[4],
        out_bytes: n[5],
        records_emitted: n[6],
        groups: n[7],
        wire_sent: n[8],
        wire_recv: n[9],
        o_tasks_run: n[10],
        bytes_emitted: n[11],
        frames: n[12],
    })
}

const SPAN_KINDS: [&str; 10] = [
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
];

/// Argument keys the telemetry wire interns back (others are dropped by
/// design, so they would not round-trip).
const ARG_KEYS: [&str; 4] = ["bytes", "cause", "peer", "next_attempt"];

fn span() -> impl Strategy<Value = TraceEvent> {
    let args = prop::collection::vec((0usize..ARG_KEYS.len(), text()), 0..3);
    let numbers = prop::collection::vec(any::<u64>(), 5);
    (0usize..SPAN_KINDS.len(), numbers, any::<u8>(), args).prop_map(|(kind, n, flags, args)| {
        TraceEvent {
            kind: SpanKind::parse(SPAN_KINDS[kind]).expect("a span kind name"),
            ts_us: n[0],
            dur_us: n[1],
            instant: flags & 1 == 1,
            rank: n[2] as u32,
            attempt: n[3] as u32,
            task: (flags & 2 == 2).then_some(n[4]),
            args: args.into_iter().map(|(k, v)| (ARG_KEYS[k], v)).collect(),
        }
    })
}

fn telemetry_frame() -> impl Strategy<Value = TelemetryFrame> {
    let numbers = prop::collection::vec(any::<u64>(), 5 + Counter::COUNT);
    let rows = prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 2);
    let samples = prop::collection::vec(prop::collection::vec(any::<u64>(), 0..6), 0..3);
    let spans = prop::collection::vec(span(), 0..4);
    (numbers, rows, samples, spans).prop_map(|(n, rows, samples, spans)| {
        let mut counters = MetricsSnapshot::default();
        for (counter, value) in Counter::ALL.into_iter().zip(&n[5..]) {
            counters[counter] = *value;
        }
        let histograms = HistKind::ALL
            .into_iter()
            .zip(samples)
            .map(|(kind, values)| {
                let hist = LogHistogram::new();
                values.into_iter().for_each(|v| hist.record(v));
                (kind, hist.snapshot())
            })
            .collect();
        TelemetryFrame {
            rank: n[0] as u32,
            seq: n[1],
            is_final: n[2] & 1 == 1,
            offset_us: n[3] as i64,
            rtt_us: n[4],
            counters,
            histograms,
            sent_row: rows[0].clone(),
            recv_row: rows[1].clone(),
            spans,
        }
    })
}

fn worker_event() -> impl Strategy<Value = WorkerEvent> {
    prop_oneof![
        worker_done().prop_map(WorkerEvent::Done),
        (any::<u64>(), any::<usize>(), text()).prop_map(|(job, rank, err)| WorkerEvent::Fail {
            job,
            rank,
            err
        }),
        (any::<u64>(), telemetry_frame()).prop_map(|(job, frame)| WorkerEvent::Tlm {
            job,
            frame: Box::new(frame),
        }),
        any::<usize>().prop_map(|rank| WorkerEvent::Bye { rank }),
    ]
}

fn rank_table() -> impl Strategy<Value = RankTable> {
    let peers = prop::collection::vec((any::<u32>(), any::<u16>()), 1..5);
    peers.prop_map(|peers| {
        let peers = peers
            .into_iter()
            .map(|(ip, port)| SocketAddr::from((Ipv4Addr::from(ip), port)))
            .collect();
        RankTable::new(peers)
    })
}

/// One valid line of every verb of the control plane, as its writer
/// renders it. The client-facing replies and the rendezvous scalars have
/// no type of their own: the coordinator writes them with [`LineWriter`]
/// exactly like this.
fn valid_line() -> impl Strategy<Value = String> {
    let scalars =
        (any::<u64>(), any::<u16>(), any::<usize>(), text()).prop_map(|(n, port, rank, reason)| {
            let seated = format!("{rank}/{}", rank.wrapping_add(1));
            vec![
                LineWriter::new("join").pos(port).pos(n),
                LineWriter::new("clock").pos(n),
                LineWriter::new("rank")
                    .pos(rank)
                    .pos(rank)
                    .field("tlm", n & 1),
                LineWriter::new("accepted").field("job", n),
                LineWriter::new("rejected").text("reason", &reason),
                LineWriter::new("drained").field("completed", n),
                LineWriter::new("jobfail")
                    .field("job", n)
                    .text("err", &reason),
                LineWriter::new("status")
                    .field("ranks", seated)
                    .field("queued", n)
                    .text("tenant", &reason),
                LineWriter::new("drain"),
                LineWriter::new("status"),
            ]
        });
    prop_oneof![
        job_spec().prop_map(|s| s.wire_line()),
        job_spec().prop_map(|s| s.submit_line()),
        worker_event().prop_map(|e| e.wire_line()),
        telemetry_frame().prop_map(|f| f.wire_line()),
        rank_table().prop_map(|t| t.wire_line()),
        (scalars, any::<prop::sample::Index>()).prop_map(|(mut lines, pick)| {
            let i = pick.index(lines.len());
            lines.swap_remove(i).finish()
        }),
    ]
}

/// Runs every parser of the control plane over `line`, and every getter
/// of the codec over its tokens. The results do not matter here: the
/// property is that all of them return.
fn parse_with_everything(line: &str) {
    let _ = JobSpec::parse_job(line);
    let _ = JobSpec::parse_submit(line);
    let _ = WorkerDone::parse(line);
    let _ = WorkerEvent::parse(line);
    let _ = TelemetryFrame::parse(line);
    let _ = RankTable::parse(line);
    let Some(mut cursor) = Line::parse(line) else {
        return;
    };
    let _ = cursor.clone().get("rank").map(|v| v.num::<usize>());
    let _ = (cursor.verb(), cursor.pos::<u64>(), cursor.word());
    for (_, value) in cursor.fields().flatten() {
        let _ = (
            value.num::<u64>(),
            value.num::<i64>(),
            value.text(),
            value.flag(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn job_specs_round_trip_both_forms(spec in job_spec()) {
        prop_assert_eq!(JobSpec::parse_job(&spec.wire_line()), Some(spec.clone()));
        let submitted = JobSpec { id: 0, ..spec.clone() };
        prop_assert_eq!(JobSpec::parse_submit(&spec.submit_line()), Some(submitted));
        // An unknown field is ignored, wherever a newer peer puts it.
        let extended = format!("{} priority=9", spec.wire_line());
        prop_assert_eq!(JobSpec::parse_job(&extended), Some(spec));
    }

    #[test]
    fn worker_events_round_trip(event in worker_event()) {
        let line = event.wire_line();
        prop_assert!(!line.contains('\n'), "one event, one line: {line:?}");
        prop_assert_eq!(WorkerEvent::parse(&line), Some(event.clone()));
        let extended = format!("{line} attempt=3");
        prop_assert_eq!(WorkerEvent::parse(&extended), Some(event));
    }

    #[test]
    fn telemetry_frames_round_trip(frame in telemetry_frame()) {
        let line = frame.wire_line();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(TelemetryFrame::parse(&line), Some(frame.clone()));
        let extended = format!("{line} stage=merge");
        prop_assert_eq!(TelemetryFrame::parse(&extended), Some(frame));
    }

    #[test]
    fn rank_tables_round_trip(table in rank_table(), version in any::<u64>()) {
        prop_assert_eq!(RankTable::parse(&table.wire_line()), Some(table.clone()));
        // Whatever version a peer numbers its table with, it reads.
        let numbered = table.wire_line().replacen("v0", &format!("v{version}"), 1);
        prop_assert_eq!(RankTable::parse(&numbered), Some(table));
    }

    /// The codec itself: what `LineWriter` writes, `Line` reads back,
    /// positionals first, then fields, the free-form one un-escaped.
    #[test]
    fn line_writer_and_line_agree(
        verb in "[a-z]{1,10}",
        words in prop::collection::vec(any::<u64>(), 0..4),
        number in any::<i64>(),
        free in text(),
    ) {
        let line = words.iter().fold(LineWriter::new(&verb), LineWriter::pos);
        let line = line.field("n", number).text("t", &free).finish();
        let mut cursor = Line::parse(&line).expect("a verb");
        prop_assert_eq!(cursor.verb(), verb.as_str());
        for word in &words {
            prop_assert_eq!(cursor.pos::<u64>(), Some(*word));
        }
        prop_assert_eq!(cursor.clone().get("n").and_then(|v| v.num::<i64>()), Some(number));
        prop_assert_eq!(cursor.clone().get("t").and_then(|v| v.text()), Some(free));
        prop_assert!(cursor.get("absent").is_none());
    }

    /// Hostile input, part one: a valid line of any verb, cut short
    /// anywhere or with any one byte replaced, goes through every parser
    /// without a panic.
    #[test]
    fn damaged_lines_never_panic_a_parser(
        line in valid_line(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        parse_with_everything(&line);
        // Writers escape everything outside printable ASCII, so any byte
        // offset is a character boundary.
        prop_assert!(line.is_ascii());
        parse_with_everything(&line[..cut.index(line.len() + 1)]);
        let mut flipped = line.into_bytes();
        if !flipped.is_empty() {
            let i = at.index(flipped.len());
            flipped[i] = byte;
        }
        parse_with_everything(std::str::from_utf8(&flipped).expect("still ASCII"));
    }

    /// Hostile input, part two: arbitrary bytes. The reader either hands
    /// over a line (which then goes through every parser) or reports an
    /// error — invalid UTF-8 is one — and the stream ends cleanly.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        newlines in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let mut bytes = noise;
        for at in newlines {
            if !bytes.is_empty() {
                let i = at.index(bytes.len());
                bytes[i] = b'\n';
            }
        }
        let mut reader = BufReader::new(Cursor::new(bytes));
        let mut line = String::new();
        loop {
            match read_known_line(&mut reader, &mut line, |_| true) {
                Ok(0) | Err(_) => break,
                Ok(_) => parse_with_everything(&line),
            }
        }
    }

    /// An unknown verb is skipped: whatever a newer peer interleaves, the
    /// reader's next line is the next one of a verb it knows.
    #[test]
    fn unknown_verbs_are_skipped_before_any_known_line(
        noise in prop::collection::vec("[a-z]{1,10}", 0..6),
        event in worker_event(),
    ) {
        let known = |v: &str| matches!(v, "jobdone" | "jobfail" | "jobtlm" | "bye");
        let mut text = String::new();
        for verb in noise.iter().filter(|v| !known(v)) {
            text.push_str(&format!("{verb} 7 future=field\n\n"));
        }
        text.push_str(&event.wire_line());
        text.push('\n');
        let mut reader = Cursor::new(text);
        let mut line = String::new();
        prop_assert!(read_known_line(&mut reader, &mut line, known).unwrap() > 0);
        prop_assert_eq!(WorkerEvent::parse(&line), Some(event));
        prop_assert_eq!(read_known_line(&mut reader, &mut line, known).unwrap(), 0);
    }
}
