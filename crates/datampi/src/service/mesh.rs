//! The job multiplexer: many concurrent jobs over one resident mesh.
//!
//! A resident worker establishes its TCP mesh **once** and then runs
//! every job the coordinator dispatches over the same sockets — the
//! paper's core premise (communication-ready resident processes) applied
//! to multi-tenancy. [`JobMux`] owns the rank's [`Endpoint`]: producers
//! get job-tagged [`FrameSender`] clones (the tag rides in the high bits
//! of `o_task` — see [`crate::comm::tag_task`]), and a demultiplexer
//! thread routes inbound frames to per-job channels by that tag,
//! stripping it before delivery so the job-side runtime (ingest,
//! checkpoint bookkeeping, byte-identity) sees exactly the frames a
//! dedicated mesh would have carried.
//!
//! **EOF discipline.** The TCP reader classifies a stream that ends
//! without a real [`Frame::Eof`] as a rank death, so real EOFs are
//! reserved for mesh teardown ([`JobMux::close`], sent at drain or
//! one-shot shutdown). A *job's* completion travels in-band as a tagged
//! empty-payload data frame, which the demux converts back to
//! `Frame::Eof` for that job's ingest thread.
//!
//! **Unexpected frames.** Jobs start at different instants on different
//! ranks, so frames can arrive for a job this rank has not opened yet —
//! the classic MPI unexpected-message queue. The demux parks them in a
//! bounded backlog and replays them (in arrival order) when the job
//! opens. Delivery into open jobs is never blocking (per-job channels
//! are unbounded), so one slow job cannot stall the demux and starve the
//! others; end-to-end memory is still tempered by the producers' bounded
//! send windows and the A-store's spill-under-budget machinery.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::comm::{untag_task, wire_size_estimate, Frame, JOB_EOF_TASK};
use crate::transport::{Endpoint, FrameReceiver, FrameSender, JobWire, WireStats};

/// Upper bound on frames parked for not-yet-opened jobs. Far above
/// anything the dispatch race window (a `job` line in flight to this
/// rank while peers already produce) can accumulate; hitting it means a
/// peer is sending frames for a job that will never open, and the job
/// gets a structured fault instead of unbounded memory.
const UNEXPECTED_FRAME_LIMIT: usize = 1 << 16;

struct JobSlot {
    tx: Sender<Result<Frame>>,
    wire: Arc<JobWire>,
}

#[derive(Default)]
struct MuxState {
    open: HashMap<u64, JobSlot>,
    /// Arrival-ordered backlog per unopened job.
    unexpected: HashMap<u64, VecDeque<Result<Frame>>>,
    unexpected_count: usize,
    /// Jobs already finished on this rank: stray late frames are dropped.
    finished: HashSet<u64>,
    /// A mesh-wide transport fault (e.g. a peer died): every job opened
    /// after it surfaced sees it immediately.
    mesh_fault: Option<Error>,
    closed: bool,
}

/// One job's attachment to the shared mesh, handed out by
/// [`JobMux::open_job`]: tagged senders, the job's demultiplexed
/// receiver, and its wire accounting.
pub struct JobChannels {
    /// Job-tagged senders, indexed by destination rank.
    pub senders: Vec<FrameSender>,
    /// This job's share of the rank's inbound frames, tag stripped.
    pub receiver: FrameReceiver,
    /// Estimated encoded bytes this job moved (socket totals span all
    /// jobs, so per-job numbers are frame-size estimates).
    pub wire: Arc<JobWire>,
}

/// The per-rank multiplexer over one established mesh endpoint.
pub struct JobMux {
    rank: usize,
    ranks: usize,
    /// Untagged senders: mesh-level traffic (teardown EOFs) only.
    base_senders: Mutex<Vec<FrameSender>>,
    endpoint: Mutex<Option<Endpoint>>,
    state: Arc<Mutex<MuxState>>,
    /// From the demultiplexer: `true` per teardown EOF, `false` per fault.
    teardown: Mutex<Receiver<bool>>,
}

impl JobMux {
    /// Wraps an established endpoint and starts the demultiplexer
    /// thread. The endpoint's receiver is taken here; all inbound frames
    /// flow through the mux from now on.
    pub fn new(mut endpoint: Endpoint) -> Arc<JobMux> {
        let receiver = endpoint.take_receiver();
        let (teardown_tx, teardown_rx) = unbounded();
        let mux = Arc::new(JobMux {
            rank: endpoint.rank(),
            ranks: endpoint.ranks(),
            base_senders: Mutex::new(endpoint.senders()),
            endpoint: Mutex::new(Some(endpoint)),
            state: Arc::new(Mutex::new(MuxState::default())),
            teardown: Mutex::new(teardown_rx),
        });
        let state = Arc::clone(&mux.state);
        std::thread::spawn(move || demux_loop(receiver, &state, &teardown_tx));
        mux
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Mesh width.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Opens `job` on this rank: registers its demux route and replays
    /// any frames that arrived before the job line did.
    pub fn open_job(&self, job: u64) -> Result<JobChannels> {
        let wire = Arc::new(JobWire::default());
        let (tx, rx) = unbounded();
        {
            let mut state = self.state.lock();
            if state.closed {
                return Err(Error::InvalidState(format!(
                    "job {job}: mesh already closed"
                )));
            }
            if state.open.contains_key(&job) || state.finished.contains(&job) {
                return Err(Error::InvalidState(format!("job {job} already opened")));
            }
            if let Some(e) = &state.mesh_fault {
                let _ = tx.send(Err(e.clone()));
            }
            if let Some(backlog) = state.unexpected.remove(&job) {
                state.unexpected_count -= backlog.len();
                for item in backlog {
                    let item = item.inspect(|f| wire.add_received(wire_size_estimate(f)));
                    let _ = tx.send(item.map(strip_tag));
                }
            }
            state.open.insert(
                job,
                JobSlot {
                    tx,
                    wire: Arc::clone(&wire),
                },
            );
        }
        let senders = self
            .base_senders
            .lock()
            .iter()
            .map(|s| s.for_job(job, Arc::clone(&wire)))
            .collect();
        Ok(JobChannels {
            senders,
            receiver: FrameReceiver::Checked(rx),
            wire,
        })
    }

    /// Retires `job`'s demux route. Call after the job's ingest has
    /// consumed its EOFs; stray frames arriving later are dropped.
    pub fn finish_job(&self, job: u64) {
        let mut state = self.state.lock();
        state.open.remove(&job);
        state.finished.insert(job);
    }

    /// Tears the mesh down: sends one real [`Frame::Eof`] to every peer
    /// (the signal that lets their readers classify this as a clean
    /// departure, not a rank death), waits for every peer's in return —
    /// the discipline a job follows with its own EOFs — then closes the
    /// endpoint, joining its poller. Returns the socket-exact wire
    /// totals across every job the mesh carried. Idempotent; later calls
    /// return zeros.
    ///
    /// The wait keeps this rank's data listener up while a slower peer
    /// is still dialling it: closing the endpoint drops the listener at
    /// once, and a peer refused there fails to establish its mesh. Past
    /// the endpoint's accept deadline no peer can still be dialling.
    pub fn close(&self) -> WireStats {
        {
            let mut state = self.state.lock();
            if state.closed {
                return WireStats::default();
            }
            state.closed = true;
            state.open.clear();
        }
        let mut base = self.base_senders.lock();
        for s in base.iter() {
            s.send(Frame::Eof {
                from_rank: self.rank,
            });
        }
        base.clear();
        drop(base);
        let Some(endpoint) = self.endpoint.lock().take() else {
            return WireStats::default();
        };
        if let Some(deadline) = endpoint.accept_deadline() {
            let teardown = self.teardown.lock();
            // This rank's own EOF comes back over its self-connection.
            for _peer in 0..self.ranks {
                let left = deadline.saturating_duration_since(Instant::now());
                // A mesh fault, the deadline, or every stream over.
                if teardown.recv_timeout(left) != Ok(true) {
                    break;
                }
            }
        }
        endpoint.close()
    }
}

/// Strips the job tag off a routed frame, converting tagged job-EOF
/// markers back into [`Frame::Eof`].
fn strip_tag(frame: Frame) -> Frame {
    match frame {
        Frame::Data {
            from_rank,
            o_task,
            payload,
            crc,
        } => match untag_task(o_task as u64) {
            Some((_, task)) if task == JOB_EOF_TASK && payload.is_empty() => {
                Frame::Eof { from_rank }
            }
            Some((_, task)) => Frame::Data {
                from_rank,
                o_task: task as usize,
                payload,
                crc,
            },
            None => Frame::Data {
                from_rank,
                o_task,
                payload,
                crc,
            },
        },
        eof => eof,
    }
}

fn demux_loop(receiver: FrameReceiver, state: &Mutex<MuxState>, teardown: &Sender<bool>) {
    loop {
        match receiver.recv() {
            Ok(Some(Frame::Eof { .. })) => {
                // A peer tore its mesh attachment down (drain / one-shot
                // shutdown). Job-level EOFs arrive as tagged data, so
                // this is mesh-scoped bookkeeping only.
                let _ = teardown.send(true);
            }
            Ok(Some(frame)) => {
                let Some((job, _)) = frame.o_task().and_then(|t| untag_task(t as u64)) else {
                    // An untagged data frame on a multiplexed mesh: a
                    // protocol violation worth failing loudly over.
                    broadcast_fault(
                        state,
                        teardown,
                        Error::fault(FaultCause::new(
                            FaultKind::Transport,
                            format!(
                                "untagged data frame from rank {} on a multiplexed mesh",
                                frame.from_rank()
                            ),
                        )),
                    );
                    continue;
                };
                let nbytes = wire_size_estimate(&frame);
                let mut st = state.lock();
                if let Some(slot) = st.open.get(&job) {
                    slot.wire.add_received(nbytes);
                    // Unbounded per-job channel: never blocks, so one
                    // slow job cannot head-of-line-block the others.
                    let _ = slot.tx.send(Ok(strip_tag(frame)));
                } else if !st.finished.contains(&job) && !st.closed {
                    if st.unexpected_count >= UNEXPECTED_FRAME_LIMIT {
                        let overflow = Error::fault(FaultCause::new(
                            FaultKind::Transport,
                            format!("unexpected-frame backlog overflow parking job {job}"),
                        ));
                        st.unexpected
                            .entry(job)
                            .or_default()
                            .push_back(Err(overflow));
                    } else {
                        st.unexpected_count += 1;
                        st.unexpected.entry(job).or_default().push_back(Ok(frame));
                    }
                }
            }
            Ok(None) => {
                // Every reader is gone: clean mesh teardown. Dropping
                // the slots disconnects the per-job channels, which job
                // ingests see as end-of-stream.
                let mut st = state.lock();
                st.open.clear();
                return;
            }
            Err(e) => broadcast_fault(state, teardown, e),
        }
    }
}

/// Routes a transport fault to every open job and pins it for jobs
/// opened later — a dead peer kills every job sharing the mesh.
fn broadcast_fault(state: &Mutex<MuxState>, teardown: &Sender<bool>, e: Error) {
    let _ = teardown.send(false);
    let mut st = state.lock();
    for slot in st.open.values() {
        let _ = slot.tx.send(Err(e.clone()));
    }
    if st.mesh_fault.is_none() {
        st.mesh_fault = Some(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{establish_endpoint, TcpOptions};
    use bytes::Bytes;
    use std::net::TcpListener;

    fn two_rank_meshes() -> (Arc<JobMux>, Arc<JobMux>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let p2 = peers.clone();
        let h = std::thread::spawn(move || {
            establish_endpoint(1, l1, &p2, &TcpOptions::default()).unwrap()
        });
        let e0 = establish_endpoint(0, l0, &peers, &TcpOptions::default()).unwrap();
        let e1 = h.join().unwrap();
        (JobMux::new(e0), JobMux::new(e1))
    }

    /// Closes both ranks at once, as two workers would: each waits for
    /// the other's teardown EOF before it lets go of its endpoint.
    fn close_both(m0: &Arc<JobMux>, m1: &Arc<JobMux>) -> (WireStats, WireStats) {
        let other = Arc::clone(m1);
        let h = std::thread::spawn(move || other.close());
        (m0.close(), h.join().unwrap())
    }

    #[test]
    fn frames_demultiplex_by_job_and_tags_are_stripped() {
        let (m0, m1) = two_rank_meshes();
        let job_a = m1.open_job(7).unwrap();
        let job_b = m1.open_job(8).unwrap();
        let a0 = m0.open_job(7).unwrap();
        let b0 = m0.open_job(8).unwrap();
        a0.senders[1].send(Frame::data(0, 3, Bytes::from_static(b"for-a")));
        b0.senders[1].send(Frame::data(0, 9, Bytes::from_static(b"for-b")));
        a0.senders[1].send(Frame::Eof { from_rank: 0 });
        b0.senders[1].send(Frame::Eof { from_rank: 0 });

        let got_a = job_a.receiver.recv().unwrap().unwrap();
        match got_a {
            Frame::Data {
                o_task, payload, ..
            } => {
                assert_eq!(o_task, 3, "tag stripped before delivery");
                assert_eq!(&payload[..], b"for-a");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            job_a.receiver.recv().unwrap().unwrap(),
            Frame::Eof { from_rank: 0 }
        ));
        let got_b = job_b.receiver.recv().unwrap().unwrap();
        assert_eq!(got_b.o_task(), Some(9));
        assert!(matches!(
            job_b.receiver.recv().unwrap().unwrap(),
            Frame::Eof { from_rank: 0 }
        ));
        assert!(job_a.wire.snapshot().bytes_received > 0);

        // Writer threads only exit once every sender clone is gone, so
        // drop the jobs' channels before closing (as the runtime does).
        drop(job_a);
        drop(job_b);
        drop(a0);
        drop(b0);
        close_both(&m0, &m1);
    }

    #[test]
    fn unexpected_frames_replay_when_the_job_opens() {
        let (m0, m1) = two_rank_meshes();
        let sender_side = m0.open_job(5).unwrap();
        sender_side.senders[1].send(Frame::data(0, 1, Bytes::from_static(b"early")));
        sender_side.senders[1].send(Frame::Eof { from_rank: 0 });
        // Give the frames time to land in rank 1's backlog before the
        // job opens there.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let late = m1.open_job(5).unwrap();
        let first = late.receiver.recv().unwrap().unwrap();
        assert_eq!(first.o_task(), Some(1));
        assert!(matches!(
            late.receiver.recv().unwrap().unwrap(),
            Frame::Eof { .. }
        ));
        drop(sender_side);
        drop(late);
        close_both(&m0, &m1);
    }

    #[test]
    fn close_is_a_clean_departure_not_a_rank_death() {
        let (m0, m1) = two_rank_meshes();
        let JobChannels {
            senders, receiver, ..
        } = m1.open_job(0).unwrap();
        // Rank 1's senders must be gone before close, or the writer join
        // would wait on us.
        drop(senders);
        let (stats, _) = close_both(&m0, &m1);
        // Rank 0 sent one mesh EOF per peer and nothing else.
        assert!(stats.bytes_sent >= 5);
        // Rank 1's open job sees clean end-of-stream (disconnect), not a
        // RankDeath fault.
        loop {
            match receiver.recv() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => panic!("clean close must not fault: {e}"),
            }
        }
    }

    #[test]
    fn double_open_and_open_after_close_are_errors() {
        let (m0, m1) = two_rank_meshes();
        m0.open_job(1).unwrap();
        assert!(m0.open_job(1).is_err());
        m0.finish_job(1);
        assert!(m0.open_job(1).is_err(), "finished jobs never reopen");
        close_both(&m0, &m1);
        assert!(m0.open_job(2).is_err());
    }

    #[test]
    fn close_holds_the_endpoint_until_the_peer_has_left_too() {
        let (m0, m1) = two_rank_meshes();
        let first = Arc::clone(&m0);
        let closing = std::thread::spawn(move || first.close());
        // Rank 0 is inside `close`, and rank 1's EOF is outstanding.
        while !m0.state.lock().closed {
            std::thread::yield_now();
        }
        assert!(!closing.is_finished(), "rank 0 must wait for rank 1's EOF");
        m1.close();
        closing.join().unwrap();
    }
}
