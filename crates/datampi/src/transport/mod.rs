//! Pluggable transport: how [`Frame`]s move between ranks.
//!
//! The paper's DataMPI runs O/A ranks as real MPI processes over a
//! 1 GbE network; the original reproduction wired ranks as threads over
//! in-process channels. This module abstracts the interconnect behind
//! the [`Transport`] trait so the same runtime drives both:
//!
//! * [`InProcTransport`] — the original channel fabric (threads in one
//!   process, bounded mailboxes).
//! * [`TcpTransport`] — a real TCP mesh with a length-prefixed wire
//!   format ([`wire`]), driven by one readiness event-loop thread per
//!   rank (`evloop`) that coalesces frames into large wire batches,
//!   with connect retry with exponential backoff and jitter, bounded
//!   per-peer send windows for backpressure, and graceful EOF/teardown
//!   semantics.
//!
//! A [`Transport`] opens one [`Endpoint`] per rank. An endpoint exposes
//! the same shape on both backends: a [`FrameSender`] per peer (indexed
//! by destination partition) and one [`FrameReceiver`] mailbox, so the
//! runtime, `KvBuffer`, and the A-side ingest loop are backend-agnostic.
//! Multi-process sessions (`dmpid`, `dmpirun`) skip the trait's
//! all-ranks [`Transport::open`] and build a single rank's endpoint
//! directly with [`tcp::establish_endpoint`] from the session's rank
//! table.

mod evloop;
pub(crate) mod inproc;
mod tcp;
pub mod wire;

pub use inproc::InProcTransport;
pub use tcp::{establish_endpoint, TcpOptions, TcpTransport};

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use evloop::{LoopCtl, RecvCounters, SendSummary, Waker};

use crossbeam::channel::{Receiver, Sender, TrySendError};
use dmpi_common::Result;

use bytes::Bytes;

use crate::comm::{tag_task, wire_size_estimate, Frame, JOB_EOF_TASK};
use crate::config::JobConfig;
use crate::observe::LogHistogram;

/// Which interconnect fabric a job uses. Selected via
/// [`JobConfig::transport`](crate::JobConfig).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Ranks are threads in this process; frames move over bounded
    /// in-memory mailboxes. The default, and the fastest path.
    #[default]
    InProc,
    /// Ranks talk real TCP (loopback mesh when launched by
    /// [`Transport::open`]; arbitrary hosts via a session's rank table).
    Tcp,
}

/// Per-job wire accounting on a shared (multiplexed) mesh: the socket
/// counters span every job at once, so tagged senders and the
/// demultiplexer attribute estimated encoded bytes per job here.
#[derive(Debug, Default)]
pub struct JobWire {
    sent: std::sync::atomic::AtomicU64,
    received: std::sync::atomic::AtomicU64,
}

impl JobWire {
    /// Credits `n` estimated encoded bytes to this job's send side.
    pub fn add_sent(&self, n: u64) {
        self.sent.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Credits `n` estimated encoded bytes to this job's receive side.
    pub fn add_received(&self, n: u64) {
        self.received
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// The job's wire totals so far (logical estimates only — socket,
    /// batch, and syscall detail lives on the shared mesh endpoint).
    pub fn snapshot(&self) -> WireStats {
        WireStats {
            bytes_sent: self.sent.load(std::sync::atomic::Ordering::Relaxed),
            bytes_received: self.received.load(std::sync::atomic::Ordering::Relaxed),
            ..WireStats::default()
        }
    }
}

/// The tagging state a multiplexed sender stamps onto every frame.
#[derive(Clone)]
struct JobTag {
    job: u64,
    wire: Arc<JobWire>,
}

/// Cheap cloneable handle for shipping frames to one destination
/// partition. On the in-proc backend the channel *is* the peer's
/// mailbox; on TCP it is that peer's bounded send window, drained by a
/// writer thread that owns the socket.
#[derive(Clone)]
pub struct FrameSender {
    tx: Sender<Frame>,
    /// When telemetry is on, time spent blocked on a full window lands
    /// here (the [`HistKind::WindowWait`](crate::observe::HistKind)
    /// channel). `None` costs one branch on the full-window path only.
    wait_hist: Option<Arc<LogHistogram>>,
    /// When set, this sender belongs to one job of a multiplexed mesh:
    /// data frames get the job tag packed into `o_task`, and EOFs are
    /// rewritten to tagged empty data frames (real [`Frame::Eof`] is
    /// reserved for mesh teardown — see `comm`'s job-tagging docs).
    job_tag: Option<JobTag>,
    /// On the TCP backend, tickled after every enqueue (and on drop) so
    /// the rank's poller thread notices new work; `None` in-proc.
    waker: Option<Arc<Waker>>,
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        // The poller learns that a window disconnected only by pumping
        // it, so every dropped handle nudges the loop once.
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

impl FrameSender {
    pub(crate) fn from_channel(tx: Sender<Frame>) -> Self {
        FrameSender {
            tx,
            wait_hist: None,
            job_tag: None,
            waker: None,
        }
    }

    pub(crate) fn with_waker(tx: Sender<Frame>, waker: Arc<Waker>) -> Self {
        FrameSender {
            tx,
            wait_hist: None,
            job_tag: None,
            waker: Some(waker),
        }
    }

    /// Routes this sender's full-window blocking time into `hist`.
    pub fn set_wait_histogram(&mut self, hist: Arc<LogHistogram>) {
        self.wait_hist = Some(hist);
    }

    /// A clone of this sender bound to `job` on a multiplexed mesh:
    /// every frame it ships is job-tagged and accounted against `wire`.
    pub fn for_job(&self, job: u64, wire: Arc<JobWire>) -> FrameSender {
        FrameSender {
            tx: self.tx.clone(),
            wait_hist: self.wait_hist.clone(),
            job_tag: Some(JobTag { job, wire }),
            waker: self.waker.clone(),
        }
    }

    /// Ships a frame, blocking while the destination mailbox (in-proc)
    /// or this peer's send window (TCP) is full — that blocking *is* the
    /// backpressure. Returns `false` if the peer is gone (its mailbox
    /// dropped or its writer exited); producers treat that as teardown,
    /// not an error, because the receiving side already knows why it
    /// went away.
    pub fn send(&self, frame: Frame) -> bool {
        let frame = match &self.job_tag {
            None => frame,
            Some(tag) => {
                let tagged = match frame {
                    Frame::Data {
                        from_rank,
                        o_task,
                        payload,
                        crc,
                    } => Frame::Data {
                        from_rank,
                        o_task: tag_task(tag.job, o_task as u64) as usize,
                        payload,
                        crc,
                    },
                    Frame::Eof { from_rank } => Frame::data(
                        from_rank,
                        tag_task(tag.job, JOB_EOF_TASK) as usize,
                        Bytes::new(),
                    ),
                };
                tag.wire.add_sent(wire_size_estimate(&tagged));
                tagged
            }
        };
        // Uncontended fast path: no timestamp taken at all.
        let ok = match self.tx.try_send(frame) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => false,
            Err(TrySendError::Full(frame)) => {
                let start = self.wait_hist.as_ref().map(|_| Instant::now());
                let ok = self.tx.send(frame).is_ok();
                if let (Some(hist), Some(start)) = (&self.wait_hist, start) {
                    hist.record_elapsed_us(start);
                }
                ok
            }
        };
        if ok {
            if let Some(waker) = &self.waker {
                waker.wake();
            }
        }
        ok
    }
}

/// The receiving half of a rank's mailbox.
///
/// `Direct` is the in-proc fabric: frames arrive exactly as sent, so
/// there is nothing that can fail below the CRC gate. `Checked` is fed
/// by the TCP reader threads, which can also surface transport-level
/// faults (truncated frame, peer died before its EOF) inline in the
/// stream with the peer's rank attached.
pub enum FrameReceiver {
    /// In-proc mailbox.
    Direct(Receiver<Frame>),
    /// TCP mailbox: reader threads push decoded frames or structured
    /// transport faults.
    Checked(Receiver<Result<Frame>>),
}

impl FrameReceiver {
    /// Blocks for the next frame. `Ok(None)` means every feeder is gone
    /// (clean teardown); `Err` carries a structured transport fault with
    /// the peer rank in its cause.
    pub fn recv(&self) -> Result<Option<Frame>> {
        match self {
            FrameReceiver::Direct(rx) => Ok(rx.recv().ok()),
            FrameReceiver::Checked(rx) => match rx.recv() {
                Ok(Ok(frame)) => Ok(Some(frame)),
                Ok(Err(e)) => Err(e),
                Err(_) => Ok(None),
            },
        }
    }
}

/// Wire-level traffic counters for one endpoint, returned by
/// [`Endpoint::close`]. Zero on the in-proc backend (no encoding
/// happens); on TCP the byte counters count actual post-handshake
/// socket traffic (batch headers included), which
/// `observe` records alongside the logical per-peer matrices. The
/// batch/syscall counters are what the benchmark reports as its
/// `transport.tcp_batches` and `transport.tcp_*_syscalls` rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Actual bytes this endpoint wrote to its peers' sockets.
    pub bytes_sent: u64,
    /// Actual bytes this endpoint read from its peers' sockets
    /// (handshakes excluded, mirroring the send side).
    pub bytes_received: u64,
    /// Logical frame-encoding bytes pushed into batches; `bytes_sent`
    /// exceeds it by the batch headers.
    pub raw_bytes_sent: u64,
    /// Logical frames this endpoint sent.
    pub frames_sent: u64,
    /// Coalesced batches those frames were packed into.
    pub batches_sent: u64,
    /// `write(2)`/`writev(2)` calls that moved those batches.
    pub send_syscalls: u64,
    /// Logical frames this endpoint decoded.
    pub frames_received: u64,
    /// Batches those frames arrived in.
    pub batches_received: u64,
    /// `read(2)` calls that produced those bytes.
    pub recv_syscalls: u64,
}

/// One rank's attachment to the interconnect: a sender per destination
/// partition and this rank's own mailbox.
pub struct Endpoint {
    rank: usize,
    senders: Vec<FrameSender>,
    receiver: Option<FrameReceiver>,
    poller: Option<JoinHandle<SendSummary>>,
    ctl: Option<Arc<LoopCtl>>,
    recv_counters: Option<Arc<RecvCounters>>,
    accept_deadline: Option<Instant>,
}

impl Endpoint {
    /// An endpoint with no I/O thread behind it (the in-proc fabric).
    pub(crate) fn new(rank: usize, senders: Vec<FrameSender>, receiver: FrameReceiver) -> Self {
        Endpoint {
            rank,
            senders,
            receiver: Some(receiver),
            poller: None,
            ctl: None,
            recv_counters: None,
            accept_deadline: None,
        }
    }

    /// An endpoint backed by a TCP event-loop poller thread.
    pub(crate) fn with_poller(
        rank: usize,
        senders: Vec<FrameSender>,
        receiver: FrameReceiver,
        poller: JoinHandle<SendSummary>,
        ctl: Arc<LoopCtl>,
        recv_counters: Arc<RecvCounters>,
        accept_deadline: Instant,
    ) -> Self {
        Endpoint {
            rank,
            senders,
            receiver: Some(receiver),
            poller: Some(poller),
            ctl: Some(ctl),
            recv_counters: Some(recv_counters),
            accept_deadline: Some(accept_deadline),
        }
    }

    /// Until when this endpoint's poller keeps its data listener open
    /// for peers still dialling in (`None` in-proc: nobody dials).
    pub(crate) fn accept_deadline(&self) -> Option<Instant> {
        self.accept_deadline
    }

    /// The rank this endpoint belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub fn ranks(&self) -> usize {
        self.senders.len()
    }

    /// Clones the per-partition sender handles (index = destination
    /// partition).
    pub fn senders(&self) -> Vec<FrameSender> {
        self.senders.clone()
    }

    /// Routes every sender's full-window blocking time into `hist`
    /// (clones taken by later [`senders`](Self::senders) calls inherit
    /// it). Call before handing senders to producers.
    pub fn attach_window_wait(&mut self, hist: Arc<LogHistogram>) {
        for s in &mut self.senders {
            s.set_wait_histogram(Arc::clone(&hist));
        }
    }

    /// Takes this rank's mailbox. Each endpoint yields it exactly once.
    pub fn take_receiver(&mut self) -> FrameReceiver {
        self.receiver
            .take()
            .expect("endpoint receiver already taken")
    }

    /// Tears the endpoint down: drops the sender handles (the caller
    /// must have dropped its own clones first, or the poller never sees
    /// the windows disconnect), asks the poller to stop reading, and
    /// joins it — which waits for every queued frame to flush to the
    /// socket before returning. Returns the wire-level counters (zeros
    /// for in-proc).
    pub fn close(mut self) -> WireStats {
        self.senders.clear();
        drop(self.receiver.take());
        if let Some(ctl) = self.ctl.take() {
            ctl.request_shutdown();
        }
        let mut stats = WireStats::default();
        if let Some(poller) = self.poller.take() {
            let sent = poller.join().unwrap_or_default();
            stats.bytes_sent = sent.bytes_sent;
            stats.raw_bytes_sent = sent.raw_bytes_sent;
            stats.frames_sent = sent.frames_sent;
            stats.batches_sent = sent.batches_sent;
            stats.send_syscalls = sent.send_syscalls;
        }
        if let Some(recv) = self.recv_counters.take() {
            use std::sync::atomic::Ordering::Relaxed;
            stats.bytes_received = recv.bytes.load(Relaxed);
            stats.frames_received = recv.frames.load(Relaxed);
            stats.batches_received = recv.batches.load(Relaxed);
            stats.recv_syscalls = recv.syscalls.load(Relaxed);
        }
        stats
    }
}

/// An interconnect fabric that can stand up the full mesh of endpoints
/// for a job (all ranks in this process — threads for in-proc, a
/// loopback socket mesh for TCP).
pub trait Transport: Send {
    /// Establishes the mesh and returns one endpoint per rank, indexed
    /// by rank. Consumes the fabric's setup state; call once.
    fn open(&mut self) -> Result<Vec<Endpoint>>;
}

/// Builds the transport selected by `config.transport`, sized and tuned
/// from the config (ranks, mailbox capacity, send window).
pub fn for_config(config: &JobConfig) -> Box<dyn Transport> {
    match config.transport {
        Backend::InProc => Box::new(InProcTransport::new(config.ranks, config.mailbox_capacity)),
        Backend::Tcp => Box::new(TcpTransport::loopback(
            config.ranks,
            TcpOptions::from_config(config),
        )),
    }
}
