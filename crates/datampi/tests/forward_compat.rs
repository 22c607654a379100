//! Forward compatibility of the rendezvous/service wire protocol: a
//! reader built at protocol version N must *skip* verbs introduced at
//! version N+1, not error on them. The property holds at three layers —
//! the raw [`read_known_line`] primitive, the worker's registration
//! reader ([`register_with_coordinator`]), and the coordinator's
//! registration reader ([`coordinate_rank_table`]) — so either side of
//! the wire can be upgraded first.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};

use proptest::prelude::*;

use datampi::distrib::{coordinate_rank_table, register_with_coordinator};
use datampi::service::protocol::read_known_line;

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
            Some("clock") | Some("peers") | Some("rank") | Some("target")
        )
    })
}

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

    /// The worker's registration reader: a future coordinator may
    /// interleave unknown verbs around `clock` and `peers`; the worker
    /// must still come away with the right clock sync and rank table.
    #[test]
    fn worker_registration_survives_future_coordinator_verbs(
        pre_clock in prop::collection::vec(unknown_line(), 0..4),
        pre_table in prop::collection::vec(unknown_line(), 0..4),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_coordinator = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("rank 0 "), "registration line: {line:?}");
            let mut w = stream;
            for n in &pre_clock {
                writeln!(w, "{n}").unwrap();
            }
            writeln!(w, "clock 123456").unwrap();
            for n in &pre_table {
                writeln!(w, "{n}").unwrap();
            }
            writeln!(w, "peers v7 127.0.0.1:9001 127.0.0.1:9002").unwrap();
        });
        let (_stream, table, sync) =
            register_with_coordinator(addr, 0, 9001, &|| 1000).unwrap();
        fake_coordinator.join().unwrap();
        prop_assert_eq!(table.ranks(), 2);
        prop_assert_eq!(table.version, 7);
        // clock handshake happened: sync maps local 1000 onto coord 123456
        prop_assert_eq!(sync.apply(1000), 123456);
    }

    /// The coordinator's registration reader: a future worker may send
    /// unknown verbs before its `rank …` registration; the coordinator
    /// must still assemble and broadcast the full table.
    #[test]
    fn coordinator_registration_survives_future_worker_verbs(
        noise in prop::collection::vec(unknown_line(), 0..4),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_worker = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            for n in &noise {
                writeln!(w, "{n}").unwrap();
            }
            writeln!(w, "rank 0 9001 1000").unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "clock 5000\n", "clock reply precedes the table");
            line.clear();
            reader.read_line(&mut line).unwrap();
            line
        });
        let streams = coordinate_rank_table(&listener, 1, 0, &|| 5000).unwrap();
        assert_eq!(streams.len(), 1);
        let table_line = fake_worker.join().unwrap();
        prop_assert!(
            table_line.starts_with("peers v0 "),
            "broadcast line: {}",
            table_line
        );
        prop_assert!(table_line.contains("9001"));
    }
}
