//! The bipartite interconnect: typed frames between O executors and A
//! partitions.
//!
//! Each rank owns a mailbox — a **bounded** channel standing in for MPI's
//! eager-protocol message queue, whose capacity comes from
//! [`JobConfig::mailbox_capacity`](crate::JobConfig); the in-proc fabric
//! ([`crate::transport::InProcTransport`]) builds one per rank. O-side
//! senders ship [`Frame::Data`] messages as buffers fill (the pipelined
//! path) and close the stream with one [`Frame::Eof`] per sender so
//! receivers know when their partition is complete. A sender whose destination mailbox
//! is full *blocks* — the same backpressure semantics the TCP backend
//! gets from the kernel's socket buffers, so in-proc runs exercise the
//! production flow-control path.
//!
//! **Deadlock freedom.** Bounded mailboxes introduce a classic risk: if
//! every rank first produced all its data and only then drained its
//! mailbox, two ranks could block forever on each other's full mailboxes.
//! The runtime avoids the cycle structurally: every rank drains its
//! mailbox on a dedicated ingest thread *from job start*, concurrently
//! with its O phase ([`run_job`](crate::run_job)). The ingest thread consumes
//! frames into the A-side store and never sends, so it never blocks on
//! another mailbox; a producer blocked on a full mailbox is therefore
//! always unblocked by that mailbox's ingester, and the wait-for graph
//! has no cycle. The same argument covers TCP: socket readers feed the
//! bounded mailbox, the ingester drains it, and senders stall at their
//! bounded per-peer send window until the chain frees up.
//!
//! Every data frame carries a CRC-32C of its payload, computed at the
//! sender. Receivers [`Frame::verify`] before ingesting: a mismatch (bit
//! rot, or the fault-injection harness flipping wire bytes) surfaces as a
//! structured [`Error::Fault`] instead of silently wrong output.

use bytes::Bytes;

use dmpi_common::crc::crc32;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

/// A message delivered to an A partition's mailbox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A chunk of framed key-value records for this partition.
    Data {
        /// Rank that produced the chunk.
        from_rank: usize,
        /// O task (split index) that produced it — used by checkpoint
        /// recovery bookkeeping.
        o_task: usize,
        /// Framed records (see `dmpi_common::ser`).
        payload: Bytes,
        /// CRC-32C (Castagnoli) of `payload`, computed at the sender.
        crc: u32,
    },
    /// The sending rank has no more data for this partition.
    Eof {
        /// Rank that finished.
        from_rank: usize,
    },
}

impl Frame {
    /// Builds a data frame, stamping the payload's CRC-32C.
    pub fn data(from_rank: usize, o_task: usize, payload: Bytes) -> Frame {
        let crc = crc32(&payload);
        Frame::Data {
            from_rank,
            o_task,
            payload,
            crc,
        }
    }

    /// Payload size (0 for EOF).
    pub fn payload_len(&self) -> usize {
        match self {
            Frame::Data { payload, .. } => payload.len(),
            Frame::Eof { .. } => 0,
        }
    }

    /// The rank that sent the frame (data and EOF alike) — receivers use
    /// it for per-peer accounting.
    pub fn from_rank(&self) -> usize {
        match self {
            Frame::Data { from_rank, .. } | Frame::Eof { from_rank } => *from_rank,
        }
    }

    /// The producing O task of a data frame; `None` for EOF.
    pub fn o_task(&self) -> Option<usize> {
        match self {
            Frame::Data { o_task, .. } => Some(*o_task),
            Frame::Eof { .. } => None,
        }
    }

    /// Checks the payload against the sender-stamped CRC. EOF frames are
    /// trivially valid. A mismatch reports a [`FaultKind::CorruptFrame`]
    /// cause naming the producing task and rank.
    pub fn verify(&self) -> Result<()> {
        match self {
            Frame::Eof { .. } => Ok(()),
            Frame::Data {
                from_rank,
                o_task,
                payload,
                crc,
            } => {
                let actual = crc32(payload);
                if actual == *crc {
                    Ok(())
                } else {
                    Err(Error::fault(
                        FaultCause::new(
                            FaultKind::CorruptFrame,
                            format!(
                                "frame CRC mismatch: stamped {crc:#010x}, computed {actual:#010x} \
                                 over {} bytes",
                                payload.len()
                            ),
                        )
                        .task(*o_task)
                        .rank(*from_rank),
                    ))
                }
            }
        }
    }
}

/// Default mailbox capacity (frames) when none is configured. Large
/// enough that single-threaded unit tests never fill a mailbox, small
/// enough that a runaway producer is throttled.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

// ---------------------------------------------------------------------
// Job tagging: multiplexing several jobs over one resident mesh.
//
// A resident mesh (`datampi::service`) runs many jobs concurrently over
// one set of sockets. Frames are routed to their job by a tag packed
// into the high bits of the `o_task` field — the one header field wide
// enough (u64 on the wire) to spare the room. The tag is `job_id + 1`,
// so untagged legacy frames (high bits zero) stay distinguishable; the
// demultiplexer strips the tag before delivery, which keeps ingest
// bookkeeping and byte-identity untouched. The frame CRC covers the
// payload only, so retagging never invalidates it.

/// Bit position of the job tag inside `o_task`: tasks keep the low 40
/// bits (a trillion splits), jobs the high 24 (16M concurrent ids).
pub const JOB_TAG_SHIFT: u32 = 40;
/// Mask selecting the task bits of a tagged `o_task`.
pub const JOB_TASK_MASK: u64 = (1u64 << JOB_TAG_SHIFT) - 1;
/// The reserved task value that encodes a *job-level* EOF as an
/// empty-payload data frame. Real [`Frame::Eof`] frames are reserved for
/// mesh teardown (the TCP reader treats a stream ending without one as a
/// rank death), so per-job completion travels in-band as data.
pub const JOB_EOF_TASK: u64 = JOB_TASK_MASK;
/// Largest job id the tag can carry.
pub const MAX_JOB_ID: u64 = (1u64 << (64 - JOB_TAG_SHIFT)) - 2;

/// Packs `job` into the high bits of `task`.
pub fn tag_task(job: u64, task: u64) -> u64 {
    debug_assert!(job <= MAX_JOB_ID, "job id {job} exceeds tag width");
    ((job + 1) << JOB_TAG_SHIFT) | (task & JOB_TASK_MASK)
}

/// Splits a tagged `o_task` into `(job, task)`. Returns `None` for an
/// untagged (legacy one-shot) value.
pub fn untag_task(o_task: u64) -> Option<(u64, u64)> {
    let high = o_task >> JOB_TAG_SHIFT;
    if high == 0 {
        None
    } else {
        Some((high - 1, o_task & JOB_TASK_MASK))
    }
}

/// Encoded size of a frame on the TCP wire (`transport::wire` framing:
/// 21 header bytes + payload for data, 5 for EOF). Used by the resident
/// mesh for per-job wire accounting, where the socket-level totals span
/// all jobs at once.
pub fn wire_size_estimate(frame: &Frame) -> u64 {
    match frame {
        Frame::Data { payload, .. } => 21 + payload.len() as u64,
        Frame::Eof { .. } => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::inproc::mailboxes;
    use crate::transport::{InProcTransport, Transport};

    #[test]
    fn job_tags_round_trip_and_leave_legacy_tasks_alone() {
        assert_eq!(untag_task(0), None);
        assert_eq!(untag_task(JOB_TASK_MASK), None, "untagged high task");
        for job in [0u64, 1, 7, MAX_JOB_ID] {
            for task in [0u64, 1, 12345, JOB_EOF_TASK] {
                assert_eq!(untag_task(tag_task(job, task)), Some((job, task)));
            }
        }
        // Retagging never disturbs the CRC: it covers the payload only.
        let f = Frame::data(1, tag_task(3, 9) as usize, Bytes::from_static(b"xyz"));
        f.verify().unwrap();
    }

    #[test]
    fn wire_size_estimate_matches_the_wire_format() {
        assert_eq!(
            wire_size_estimate(&Frame::data(0, 0, Bytes::from_static(b"12345"))),
            26
        );
        assert_eq!(wire_size_estimate(&Frame::Eof { from_rank: 0 }), 5);
    }

    #[test]
    fn frames_route_to_the_right_partition() {
        let (senders, rxs) = mailboxes(2, DEFAULT_MAILBOX_CAPACITY);
        assert!(senders[0].send(Frame::data(1, 7, Bytes::from_static(b"abc"))));
        assert!(senders[1].send(Frame::Eof { from_rank: 1 }));
        match rxs[0].recv().unwrap() {
            Frame::Data {
                from_rank,
                o_task,
                payload,
                ..
            } => {
                assert_eq!(from_rank, 1);
                assert_eq!(o_task, 7);
                assert_eq!(&payload[..], b"abc");
            }
            other => panic!("unexpected frame {other:?}"),
        }
        match rxs[1].recv().unwrap() {
            Frame::Eof { from_rank } => assert_eq!(from_rank, 1),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn payload_len_reports_size() {
        let f = Frame::data(0, 0, Bytes::from_static(b"1234"));
        assert_eq!(f.payload_len(), 4);
        assert_eq!(Frame::Eof { from_rank: 0 }.payload_len(), 0);
    }

    #[test]
    fn clean_frames_verify() {
        Frame::data(0, 3, Bytes::from_static(b"payload"))
            .verify()
            .unwrap();
        Frame::Eof { from_rank: 0 }.verify().unwrap();
        // Empty payloads are fine too (CRC of nothing is stable).
        Frame::data(0, 0, Bytes::new()).verify().unwrap();
    }

    #[test]
    fn corrupted_frame_fails_verification_with_structured_cause() {
        let f = match Frame::data(2, 5, Bytes::from_static(b"hello world")) {
            Frame::Data {
                from_rank,
                o_task,
                payload,
                crc,
            } => {
                let mut bytes = payload.to_vec();
                bytes[4] ^= 0x40; // one flipped bit on the wire
                Frame::Data {
                    from_rank,
                    o_task,
                    payload: Bytes::from(bytes),
                    crc,
                }
            }
            _ => unreachable!(),
        };
        let err = f.verify().unwrap_err();
        let cause = err.fault_cause().expect("fault with cause");
        assert_eq!(cause.kind, FaultKind::CorruptFrame);
        assert_eq!(cause.task, Some(5));
        assert_eq!(cause.rank, Some(2));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_take_panics() {
        let mut endpoints = InProcTransport::new(1, 1).open().unwrap();
        let _a = endpoints[0].take_receiver();
        let _b = endpoints[0].take_receiver();
    }

    #[test]
    fn bounded_mailbox_blocks_full_senders_until_drained() {
        let (senders, rxs) = mailboxes(1, 2);
        let rx = &rxs[0];
        assert!(senders[0].send(Frame::Eof { from_rank: 0 }));
        assert!(senders[0].send(Frame::Eof { from_rank: 1 }));
        // Mailbox is full: the next send must block until a recv frees a
        // slot — the backpressure semantics shared with the TCP backend.
        let h = std::thread::spawn(move || {
            assert!(senders[0].send(Frame::Eof { from_rank: 2 }));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(rx.recv().unwrap(), Frame::Eof { from_rank: 0 }));
        h.join().unwrap();
        assert!(matches!(rx.recv().unwrap(), Frame::Eof { from_rank: 1 }));
        assert!(matches!(rx.recv().unwrap(), Frame::Eof { from_rank: 2 }));
    }

    #[test]
    fn cross_thread_delivery() {
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let h = std::thread::spawn(move || {
            for i in 0..100usize {
                assert!(senders[0].send(Frame::data(0, i, Bytes::from(vec![0u8; i]))));
            }
            assert!(senders[0].send(Frame::Eof { from_rank: 0 }));
        });
        let mut seen = 0;
        while let Frame::Data { o_task, .. } = rxs[0].recv().unwrap() {
            assert_eq!(o_task, seen);
            seen += 1;
        }
        assert_eq!(seen, 100);
        h.join().unwrap();
    }
}
