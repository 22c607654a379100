//! Forward compatibility of the control-plane protocol: a reader built
//! at protocol version N must *skip* verbs introduced at version N+1, not
//! error on them. The property holds at three layers — the raw
//! [`read_known_line`] primitive, the worker's side of the `join`
//! handshake ([`Seat::join`]), and the coordinator's ([`serve`]) — so
//! either side of the wire can be upgraded first. Compiled into
//! `service`'s unit tests.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};

use proptest::prelude::*;

use super::protocol::read_known_line;
use super::{request, serve, AdmissionConfig, Seat, ServiceConfig};

/// A verb no current or past protocol version uses: anything
/// alphanumeric that is not in the known set. Blank and whitespace-only
/// lines must be skipped too (they are what a trailing newline after a
/// skipped verb looks like).
fn unknown_line() -> impl Strategy<Value = String> {
    prop_oneof![
        // future verb + arbitrary args, e.g. "lease 7 renew=true"
        ("[a-z]{1,12}", "[ -~]{0,40}").prop_map(|(verb, rest)| format!("{verb} {rest}")),
        // bare future verb
        "[a-z]{1,12}".prop_map(|v| v),
        // blank / whitespace-only line
        Just(String::new()),
        Just("   ".to_string()),
    ]
    .prop_filter("must not collide with a known verb", |line| {
        !matches!(
            line.split_whitespace().next(),
            Some("clock" | "peers" | "rank" | "target" | "join" | "submit" | "status" | "drain")
        )
    })
}

/// A coordinator clock far from any worker's, so a sync that never
/// happened (offset 0) cannot pass for one that did.
const COORD_NOW: u64 = 50_000_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The primitive: any amount of unknown-verb noise before a known
    /// line is invisible to the reader.
    #[test]
    fn read_known_line_skips_arbitrary_unknown_verbs(
        noise in prop::collection::vec(unknown_line(), 0..8),
        payload in "[ -~]{0,40}",
    ) {
        let mut text = String::new();
        for n in &noise {
            text.push_str(n);
            text.push('\n');
        }
        text.push_str(&format!("target {payload}\n"));
        let mut reader = BufReader::new(Cursor::new(text.into_bytes()));
        let mut line = String::new();
        let n = read_known_line(&mut reader, &mut line, |v| v == "target").unwrap();
        prop_assert!(n > 0);
        prop_assert!(line.starts_with("target"));
        prop_assert_eq!(line.trim_end(), format!("target {payload}").trim_end());
    }

    /// EOF before any known line surfaces as Ok(0), never an error —
    /// callers decide whether a missing line is fatal.
    #[test]
    fn read_known_line_reports_clean_eof_after_noise(
        noise in prop::collection::vec(unknown_line(), 0..8),
    ) {
        let mut text = String::new();
        for n in &noise {
            text.push_str(n);
            text.push('\n');
        }
        let mut reader = BufReader::new(Cursor::new(text.into_bytes()));
        let mut line = String::new();
        let n = read_known_line(&mut reader, &mut line, |v| v == "target").unwrap();
        prop_assert_eq!(n, 0);
    }

    /// The worker's side of `join`: a future coordinator may interleave
    /// unknown verbs before `clock`, the seat and `peers`; the worker
    /// must still come away with its seat, the rank table and the clock
    /// sync.
    #[test]
    fn worker_join_survives_future_coordinator_verbs(
        pre_clock in prop::collection::vec(unknown_line(), 0..4),
        pre_seat in prop::collection::vec(unknown_line(), 0..4),
        pre_table in prop::collection::vec(unknown_line(), 0..4),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_coordinator = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("join "), "join line: {line:?}");
            let mut w = stream;
            for (noise, line) in [
                (&pre_clock, format!("clock {COORD_NOW}")),
                (&pre_seat, "rank 1 2 tlm=1".to_string()),
                (&pre_table, "peers v7 127.0.0.1:9001 127.0.0.1:9002".to_string()),
            ] {
                for n in noise {
                    writeln!(w, "{n}").unwrap();
                }
                writeln!(w, "{line}").unwrap();
            }
        });
        let seat = Seat::join(addr).unwrap();
        fake_coordinator.join().unwrap();
        prop_assert_eq!(seat.rank, 1);
        prop_assert_eq!(seat.table.ranks(), 2);
        // The clock handshake happened: the worker's clock, started at
        // join, maps onto the coordinator's within the round trip.
        let sync = seat.sync.expect("tlm=1 asks for traced jobs");
        let lag = COORD_NOW as i64 - sync.offset_us;
        prop_assert!((0..10_000_000).contains(&lag), "offset {}", sync.offset_us);
    }

    /// The coordinator's side of `join`: a future worker may send
    /// unknown verbs before its `join`; the coordinator must still answer
    /// the clock leg, seat it and broadcast the table.
    #[test]
    fn coordinator_join_survives_future_worker_verbs(
        noise in prop::collection::vec(unknown_line(), 0..4),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServiceConfig {
            ranks: 1,
            admission: AdmissionConfig::default(),
            report_dir: None,
        };
        let coordinator = std::thread::spawn(move || serve(listener, config));
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        for n in &noise {
            writeln!(w, "{n}").unwrap();
        }
        writeln!(w, "join 9001 1000").unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line);
        }
        prop_assert!(replies[0].starts_with("clock "), "clock leg first: {:?}", replies);
        prop_assert_eq!(replies[1].as_str(), "rank 0 1 tlm=0\n");
        prop_assert_eq!(replies[2].as_str(), "peers v0 127.0.0.1:9001\n");
        // Leave as a drained worker does, so the session ends.
        let drain = std::thread::spawn(move || request(addr, "drain", "drained"));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        prop_assert_eq!(line.as_str(), "drain\n");
        writeln!(w, "bye rank=0").unwrap();
        prop_assert!(drain.join().unwrap().is_ok());
        prop_assert!(coordinator.join().unwrap().is_ok());
    }
}
