//! Integration tests of the pluggable transport layer: the TCP backend
//! must carry frames intact, in per-sender order, with structured fault
//! reporting — and the runtime on top of it must produce byte-identical
//! results to the in-proc backend, including under supervised recovery.

use bytes::Bytes;

use datampi::comm::Frame;
use datampi::transport::{Backend, TcpOptions, TcpTransport, Transport};
use datampi::{run_job, supervise_job, Counter, FaultPlan, JobConfig, Observer, RetryPolicy};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::FaultKind;

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(w, &1u64.to_bytes());
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

fn corpus(tasks: usize) -> Vec<Bytes> {
    (0..tasks)
        .map(|i| Bytes::from(format!("w{} w{} w{} shared", i, (i * 7) % 5, (i * 3) % 11)))
        .collect()
}

/// A raw loopback mesh delivers every sender's frames in send order
/// (TCP is ordered per connection) and one EOF per sender ends the
/// stream cleanly.
#[test]
fn per_sender_order_and_eof_per_sender() {
    let ranks = 3;
    let per_sender = 40usize;
    let mut fabric = TcpTransport::loopback(
        ranks,
        TcpOptions {
            send_window: 4, // force real backpressure on the windows
            ..TcpOptions::default()
        },
    );
    let mut endpoints = fabric.open().unwrap();
    let mut target = endpoints.remove(0);
    let receiver = target.take_receiver();
    let target_senders = target.senders();

    // Every rank (the target included) streams numbered frames at
    // partition 0, then EOF.
    let mut producers = Vec::new();
    for (i, ep) in endpoints.iter().enumerate() {
        let senders = ep.senders();
        let from = i + 1;
        producers.push(std::thread::spawn(move || {
            for n in 0..per_sender {
                assert!(senders[0].send(Frame::data(from, n, Bytes::from(vec![from as u8; 8]))));
            }
            for (to, s) in senders.iter().enumerate() {
                let _ = to;
                s.send(Frame::Eof { from_rank: from });
            }
        }));
    }
    for n in 0..per_sender {
        assert!(target_senders[0].send(Frame::data(0, n, Bytes::from_static(b"self"))));
    }
    for s in target_senders.iter() {
        s.send(Frame::Eof { from_rank: 0 });
    }

    let mut next_expected = vec![0usize; ranks];
    let mut eofs = vec![0usize; ranks];
    while eofs.iter().sum::<usize>() < ranks {
        match receiver.recv().unwrap() {
            Some(f @ Frame::Data { .. }) => {
                f.verify().unwrap();
                let from = f.from_rank();
                assert_eq!(
                    f.o_task(),
                    Some(next_expected[from]),
                    "frames from rank {from} must arrive in send order"
                );
                assert_eq!(eofs[from], 0, "no data after a sender's EOF");
                next_expected[from] += 1;
            }
            Some(Frame::Eof { from_rank }) => eofs[from_rank] += 1,
            None => panic!("mailbox ended before all EOFs"),
        }
    }
    assert_eq!(next_expected, vec![per_sender; ranks], "no frame lost");
    assert_eq!(eofs, vec![1; ranks], "exactly one EOF per sender");

    for p in producers {
        p.join().unwrap();
    }
    drop(target_senders);
    drop(receiver);
    target.close();
    for ep in endpoints {
        ep.close();
    }
}

/// The same job over TCP and in-proc produces byte-identical partitions,
/// and the observer's wire counters reflect real socket traffic only
/// for the TCP run.
#[test]
fn tcp_job_is_byte_identical_to_inproc_job() {
    let inputs = corpus(9);
    let inproc = run_job(&JobConfig::new(4), inputs.clone(), wc_o, wc_a, None).unwrap();

    let observer = Observer::new();
    let tcp = run_job(
        &JobConfig::new(4)
            .with_transport(Backend::Tcp)
            .with_observer(observer.clone()),
        inputs,
        wc_o,
        wc_a,
        None,
    )
    .unwrap();

    assert_eq!(inproc.partitions.len(), tcp.partitions.len());
    for (rank, (a, b)) in inproc.partitions.iter().zip(&tcp.partitions).enumerate() {
        assert_eq!(a.records(), b.records(), "partition {rank} differs");
    }
    assert_eq!(inproc.stats.records_emitted, tcp.stats.records_emitted);

    let snapshot = observer.registry().snapshot();
    assert!(
        snapshot[Counter::WireBytesSent] > 0,
        "TCP job must report encoded socket bytes"
    );
    assert_eq!(
        snapshot[Counter::WireBytesSent],
        snapshot[Counter::WireBytesReceived],
        "loopback mesh: every byte written is read"
    );
    assert!(
        snapshot[Counter::WireBytesSent] > snapshot[Counter::BytesSent],
        "wire bytes include frame headers on top of payload bytes"
    );
}

/// Injected wire corruption rides real sockets end-to-end: the payload
/// is corrupted after the CRC is stamped, travels the TCP mesh, and the
/// receiver's integrity gate rejects it with full provenance.
#[test]
fn crc_mismatch_over_tcp_surfaces_structured_fault() {
    let config = JobConfig::new(2)
        .with_transport(Backend::Tcp)
        .with_faults(FaultPlan::new(23).corrupt_frame(1, 0));
    let err = run_job(&config, corpus(4), wc_o, wc_a, None).unwrap_err();
    let cause = err.fault_cause().expect("structured fault");
    assert_eq!(cause.kind, FaultKind::CorruptFrame);
    assert_eq!(cause.task, Some(1), "cause names the corrupted O task");
    assert!(cause.rank.is_some(), "cause names the sending rank");
}

/// A rank death over the TCP backend is survived by the supervisor: the
/// retry runs clean and produces the same output as a fault-free job.
#[test]
fn supervised_rank_death_recovers_over_tcp() {
    let inputs = corpus(6);
    let config = JobConfig::new(3)
        .with_transport(Backend::Tcp)
        .with_faults(FaultPlan::new(5).rank_panic(1, 0));
    let out = supervise_job(
        &config,
        &RetryPolicy::new(3),
        inputs.clone(),
        wc_o,
        wc_a,
        None,
    )
    .unwrap();
    assert_eq!(out.stats.attempts, 2, "attempt 0 dies, attempt 1 succeeds");

    let clean = run_job(&JobConfig::new(3), inputs, wc_o, wc_a, None).unwrap();
    for (a, b) in out.partitions.iter().zip(&clean.partitions) {
        assert_eq!(a.records(), b.records());
    }
}
