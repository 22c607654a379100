//! The readiness-driven event loop behind the TCP backend: one poller
//! thread per rank multiplexing every peer socket.
//!
//! The previous design parked **two threads per peer** (a blocking
//! reader and a blocking writer) and paid one `write(2)` per logical
//! frame. This module replaces all of them with a single poller built on
//! `poll(2)` and nonblocking sockets:
//!
//! * **Outbound:** each peer's bounded send window drains into a
//!   [`wire::BatchEncoder`], which coalesces many logical frames into
//!   one wire batch. A batch seals when it reaches the size watermark
//!   *or* when the window runs dry (the imminent-idle watermark — the
//!   frame must not sit in the encoder while the peer waits for it).
//!   Sealed batches queue as whole buffers and leave via
//!   `write_vectored`, so a busy stream costs a handful of syscalls per
//!   megabyte instead of one per frame.
//! * **Inbound:** every accepted stream feeds a [`wire::FrameDecoder`]
//!   from large socket reads; decoded frames go to the rank's shared
//!   mailbox. The acceptor is folded into the same loop (the listener is
//!   just another pollable fd with a deadline).
//! * **Wakeups:** producers run on other threads, so each endpoint owns
//!   a [`Waker`] — a socketpair write end plus a "wake already pending"
//!   flag. Sending into a window (and dropping a sender) tickles the
//!   waker; the poller drains the pipe, clears the flag, *then* pumps
//!   the windows, which makes lost wakeups impossible.
//!
//! Blocking-safety: the only blocking call in the loop is the mailbox
//! `send`, and the mailbox is drained by an ingest thread that never
//! sends (the invariant `comm.rs` establishes for the in-proc fabric),
//! so the poller always makes progress. A broken outbound socket flips
//! the connection into drain-and-discard so producers blocked on its
//! window are released — the receiving side reports the failure from its
//! end, exactly like the old writer threads. A stream that ends before
//! its [`Frame::Eof`] still classifies as [`FaultKind::RankDeath`].

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::comm::Frame;
use crate::observe::LogHistogram;

use super::wire::{self, BatchEncoder, FrameDecoder};

// Direct poll(2) FFI: the environment vendors no `libc`/`mio`, but std
// already links libc on every unix target, so declaring the one symbol
// we need is enough.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x0001;
const POLLOUT: i16 = 0x0004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `PollFd` is `#[repr(C)]` with the layout of libc's
        // `struct pollfd`, and the pointer and count describe exactly the
        // `fds` slice, which is borrowed mutably for the call; poll(2)
        // writes only the `revents` fields inside it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Cross-thread wakeup for the poller: a nonblocking socketpair write
/// end guarded by a pending flag, so a burst of sends costs one syscall,
/// and none at all while the poller is already awake.
pub(crate) struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// Builds the waker and the read end the poller will poll.
    pub(crate) fn pair() -> io::Result<(Arc<Waker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((
            Arc::new(Waker {
                tx,
                pending: AtomicBool::new(false),
            }),
            rx,
        ))
    }

    /// Makes the poller's next (or current) `poll` return promptly.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // A full pipe means a wake byte is already queued: either
            // way the poller will wake, so the error is ignorable.
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    fn clear(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

/// Shared control block between an [`Endpoint`](super::Endpoint) and its
/// poller thread.
pub(crate) struct LoopCtl {
    shutdown: AtomicBool,
    waker: Arc<Waker>,
}

impl LoopCtl {
    pub(crate) fn new(waker: Arc<Waker>) -> Arc<LoopCtl> {
        Arc::new(LoopCtl {
            shutdown: AtomicBool::new(false),
            waker,
        })
    }

    /// Asks the poller to stop reading, flush outstanding writes, and
    /// exit. Called by `Endpoint::close` so teardown cannot hang on
    /// inbound streams that never close.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Receive-side counters the poller updates and `Endpoint::close` reads.
#[derive(Default)]
pub(crate) struct RecvCounters {
    pub(crate) bytes: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) syscalls: AtomicU64,
}

/// Send-side totals returned when the poller thread exits.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SendSummary {
    pub(crate) bytes_sent: u64,
    pub(crate) raw_bytes_sent: u64,
    pub(crate) frames_sent: u64,
    pub(crate) batches_sent: u64,
    pub(crate) send_syscalls: u64,
}

/// Everything the poller thread needs, built by `establish_endpoint`.
pub(crate) struct PollerSetup {
    pub(crate) rank: usize,
    /// Inbound connections to accept before the listener is dropped.
    pub(crate) expected_peers: usize,
    pub(crate) listener: TcpListener,
    /// `(peer_rank, connected stream, its send window)` per peer.
    pub(crate) outbound: Vec<(TcpStream, Receiver<Frame>)>,
    pub(crate) mailbox: Sender<Result<Frame>>,
    pub(crate) wake_rx: UnixStream,
    pub(crate) ctl: Arc<LoopCtl>,
    pub(crate) accept_deadline: Instant,
    /// Coalescing watermark (raw batch bytes before a seal).
    pub(crate) batch_bytes: usize,
    /// Compress sealed batches with LZ4 when it pays.
    pub(crate) lz4: bool,
    pub(crate) send_hist: Option<Arc<LogHistogram>>,
    pub(crate) recv: Arc<RecvCounters>,
}

/// Ceiling on sealed-but-unwritten bytes per peer before the poller
/// stops draining that window (producers then block on the window — the
/// same backpressure as before, one layer earlier).
const OUT_QUEUE_LIMIT_FACTOR: usize = 4;
/// Socket read size. Large reads keep recv syscalls per frame low.
const READ_CHUNK: usize = 256 * 1024;
/// Max buffers handed to one `write_vectored` call.
const MAX_IOVECS: usize = 16;

struct OutConn {
    stream: TcpStream,
    window: Receiver<Frame>,
    enc: BatchEncoder,
    queue: VecDeque<Vec<u8>>,
    head: usize,
    queued_bytes: usize,
    window_open: bool,
    broken: bool,
    shut: bool,
}

impl OutConn {
    fn done(&self) -> bool {
        !self.window_open && (self.shut || self.broken)
    }
}

struct InConn {
    stream: TcpStream,
    hs: Vec<u8>,
    decoder: Option<FrameDecoder>,
    peer: usize,
    saw_eof: bool,
    batches_seen: u64,
    done: bool,
}

fn transport_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

/// Stamps `rank` onto a fault cause that has no rank yet (wire decode
/// errors are produced below the point where the peer is known).
fn fault_with_rank(e: Error, rank: usize) -> Error {
    match e {
        Error::Fault(mut cause) => {
            if cause.rank.is_none() {
                cause.rank = Some(rank);
            }
            Error::Fault(cause)
        }
        other => other,
    }
}

/// Runs one rank's poller until all writes are flushed and reading has
/// finished (or shutdown is requested). Returns the send-side totals.
pub(crate) fn run(setup: PollerSetup) -> SendSummary {
    Poller::new(setup).run()
}

struct Poller {
    rank: usize,
    expected_peers: usize,
    accepted: usize,
    listener: Option<TcpListener>,
    accept_deadline: Instant,
    deadline_reported: bool,
    outs: Vec<OutConn>,
    ins: Vec<InConn>,
    mailbox: Option<Sender<Result<Frame>>>,
    wake_rx: UnixStream,
    ctl: Arc<LoopCtl>,
    out_limit: usize,
    send_hist: Option<Arc<LogHistogram>>,
    recv: Arc<RecvCounters>,
    sum: SendSummary,
    free: Vec<Vec<u8>>,
    scratch: Vec<u8>,
}

impl Poller {
    fn new(setup: PollerSetup) -> Poller {
        let outs = setup
            .outbound
            .into_iter()
            .map(|(stream, window)| OutConn {
                stream,
                window,
                enc: BatchEncoder::new(setup.batch_bytes, setup.lz4),
                queue: VecDeque::new(),
                head: 0,
                queued_bytes: 0,
                window_open: true,
                broken: false,
                shut: false,
            })
            .collect();
        Poller {
            rank: setup.rank,
            expected_peers: setup.expected_peers,
            accepted: 0,
            listener: Some(setup.listener),
            accept_deadline: setup.accept_deadline,
            deadline_reported: false,
            outs,
            ins: Vec::new(),
            mailbox: Some(setup.mailbox),
            wake_rx: setup.wake_rx,
            ctl: setup.ctl,
            out_limit: (setup.batch_bytes * OUT_QUEUE_LIMIT_FACTOR).max(1024 * 1024),
            send_hist: setup.send_hist,
            recv: setup.recv,
            sum: SendSummary::default(),
            free: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
        }
    }

    fn run(mut self) -> SendSummary {
        loop {
            if self.ctl.shutdown_requested() {
                self.stop_reading();
            }
            for i in 0..self.outs.len() {
                self.pump_out(i);
            }
            self.maybe_finish_reading();
            if self.mailbox.is_none() && self.outs.iter().all(OutConn::done) {
                return self.sum;
            }

            // Assemble the poll set: wake pipe, listener while accepting,
            // inbound streams, and outbound streams with queued bytes.
            let mut fds = Vec::with_capacity(2 + self.ins.len() + self.outs.len());
            let mut roles = Vec::with_capacity(fds.capacity());
            fds.push(PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            roles.push(Role::Wake);
            if let Some(listener) = &self.listener {
                fds.push(PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                roles.push(Role::Listener);
            }
            for (i, conn) in self.ins.iter().enumerate() {
                if !conn.done {
                    fds.push(PollFd {
                        fd: conn.stream.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    });
                    roles.push(Role::In(i));
                }
            }
            for conn in &self.outs {
                if !conn.broken && !conn.queue.is_empty() {
                    fds.push(PollFd {
                        fd: conn.stream.as_raw_fd(),
                        events: POLLOUT,
                        revents: 0,
                    });
                    roles.push(Role::Out);
                }
            }
            let timeout_ms = if self.listener.is_some() {
                let left = self
                    .accept_deadline
                    .saturating_duration_since(Instant::now());
                (left.as_millis() as i32).clamp(1, 1000)
            } else {
                -1
            };
            if poll_fds(&mut fds, timeout_ms).is_err() {
                // poll itself failing is unrecoverable for this mesh.
                self.fail_all("poll(2) failed".to_string());
                self.stop_reading();
                continue;
            }

            for (fd, role) in fds.iter().zip(&roles) {
                if fd.revents == 0 {
                    continue;
                }
                match role {
                    Role::Wake => self.drain_wake(),
                    Role::Listener => self.accept_ready(),
                    Role::In(i) => self.pump_in(*i),
                    // Outbound progress happens in the unconditional
                    // pump_out sweep at the top of the loop.
                    Role::Out => {}
                }
            }
            if self.listener.is_some() && Instant::now() >= self.accept_deadline {
                self.accept_deadline_passed();
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Clear *before* the next pump sweep: a sender racing with us
        // either lands before the sweep (drained) or re-arms the flag
        // and leaves a byte for the next poll.
        self.ctl.waker.clear();
    }

    fn accept_ready(&mut self) {
        while self.accepted < self.expected_peers {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.ins.push(InConn {
                        stream,
                        hs: Vec::new(),
                        decoder: None,
                        peer: usize::MAX,
                        saw_eof: false,
                        batches_seen: 0,
                        done: false,
                    });
                    self.accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let rank = self.rank;
                    self.send_mailbox(Err(transport_fault(format!(
                        "rank {rank}: accept failed: {e}"
                    ))));
                    self.listener = None;
                    return;
                }
            }
        }
        if self.accepted >= self.expected_peers {
            self.listener = None;
        }
    }

    fn accept_deadline_passed(&mut self) {
        if self.deadline_reported {
            self.listener = None;
            return;
        }
        self.deadline_reported = true;
        if self.accepted < self.expected_peers {
            let (rank, accepted, expected) = (self.rank, self.accepted, self.expected_peers);
            self.send_mailbox(Err(transport_fault(format!(
                "rank {rank}: accepted only {accepted} of {expected} peer connections \
                 before the accept deadline"
            ))));
        }
        // Streams that connected but never finished their handshake are
        // equally dead at this point.
        for i in 0..self.ins.len() {
            if !self.ins[i].done && self.ins[i].decoder.is_none() {
                let rank = self.rank;
                self.ins[i].done = true;
                self.send_mailbox(Err(transport_fault(format!(
                    "rank {rank}: peer connected but never completed its handshake"
                ))));
            }
        }
        self.listener = None;
    }

    /// Delivers to the mailbox, blocking on a full mailbox (safe: the
    /// ingest thread drains it and never sends). A closed mailbox means
    /// the receiver is gone — reading is over.
    fn send_mailbox(&mut self, item: Result<Frame>) {
        let gone = match &self.mailbox {
            Some(tx) => tx.send(item).is_err(),
            None => true,
        };
        if gone {
            self.stop_reading();
        }
    }

    fn stop_reading(&mut self) {
        self.listener = None;
        for conn in &mut self.ins {
            conn.done = true;
        }
        self.mailbox = None;
    }

    /// Drops the mailbox sender once nothing can produce into it any
    /// more, so the receiver sees clean end-of-stream.
    fn maybe_finish_reading(&mut self) {
        if self.mailbox.is_some() && self.listener.is_none() && self.ins.iter().all(|c| c.done) {
            self.mailbox = None;
        }
    }

    fn fail_all(&mut self, detail: String) {
        self.send_mailbox(Err(transport_fault(detail)));
        for conn in &mut self.outs {
            conn.broken = true;
            conn.queue.clear();
            conn.queued_bytes = 0;
        }
    }

    /// Moves frames window → encoder → sealed queue → socket for one
    /// peer, honoring both seal watermarks, then shuts the write side
    /// down once the window is gone and the queue is flushed.
    ///
    /// Invariant on return: either the window is exhausted (empty or
    /// disconnected) with the encoder sealed, or the sealed queue is
    /// non-empty — which arms POLLOUT, so the loop is guaranteed a
    /// future wakeup. Without the outer retry loop a single call could
    /// stop draining at the queue ceiling, then flush the whole queue,
    /// and go to sleep with frames still in the window and no wake
    /// source left (the producer's last wake already fired).
    fn pump_out(&mut self, i: usize) {
        let conn = &mut self.outs[i];
        if conn.broken {
            // Drain-and-discard: producers must never block forever on a
            // window whose socket died.
            loop {
                match conn.window.try_recv() {
                    Ok(_) => continue,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        conn.window_open = false;
                        break;
                    }
                }
            }
            return;
        }
        loop {
            let mut at_ceiling = false;
            while conn.window_open {
                if conn.queued_bytes >= self.out_limit {
                    // Queue ceiling: stop draining so producers block on
                    // the window (the backpressure), but come back after
                    // write_out in case it freed the whole queue.
                    at_ceiling = true;
                    break;
                }
                match conn.window.try_recv() {
                    Ok(frame) => {
                        self.sum.raw_bytes_sent += conn.enc.push(&frame);
                        self.sum.frames_sent += 1;
                        if conn.enc.should_seal() {
                            seal(conn, &mut self.sum, &mut self.free);
                        }
                    }
                    Err(TryRecvError::Empty) => {
                        // Imminent-idle watermark: nothing else is coming
                        // right now, so the open batch must not wait.
                        seal(conn, &mut self.sum, &mut self.free);
                        break;
                    }
                    Err(TryRecvError::Disconnected) => {
                        conn.window_open = false;
                        seal(conn, &mut self.sum, &mut self.free);
                    }
                }
            }
            write_out(
                conn,
                &mut self.sum,
                &mut self.free,
                self.send_hist.as_deref(),
            );
            // Stopped at the ceiling with the socket still accepting
            // everything: the queue is drained, so nothing would arm
            // POLLOUT — go around again and keep draining the window.
            if !(at_ceiling && !conn.broken && conn.queued_bytes < self.out_limit) {
                break;
            }
        }
        if !conn.window_open && !conn.broken && !conn.shut && conn.queue.is_empty() {
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.shut = true;
        }
    }

    /// Reads whatever one inbound stream has ready, decoding frames into
    /// the mailbox and classifying how the stream ends.
    fn pump_in(&mut self, i: usize) {
        loop {
            if self.ins[i].done {
                return;
            }
            let n = {
                let conn = &mut self.ins[i];
                match conn.stream.read(&mut self.scratch) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        conn.done = true;
                        let peer = conn.peer;
                        let err = transport_fault(format!("stream read failed: {e}"));
                        let err = if peer != usize::MAX {
                            fault_with_rank(err, peer)
                        } else {
                            err
                        };
                        self.send_mailbox(Err(err));
                        return;
                    }
                }
            };
            if n == 0 {
                self.stream_closed(i);
                return;
            }
            self.recv.syscalls.fetch_add(1, Ordering::Relaxed);
            self.recv.bytes.fetch_add(n as u64, Ordering::Relaxed);
            if !self.feed(i, n) {
                return;
            }
        }
    }

    /// Pushes `n` freshly read scratch bytes through handshake/decoder
    /// state. Returns false when the connection errored or the mailbox
    /// is gone.
    fn feed(&mut self, i: usize, n: usize) -> bool {
        let conn = &mut self.ins[i];
        let bytes = &self.scratch[..n];
        let dec = match &mut conn.decoder {
            Some(dec) => {
                dec.extend(bytes);
                dec
            }
            None => {
                conn.hs.extend_from_slice(bytes);
                match wire::parse_handshake(&conn.hs) {
                    Ok(None) => return true,
                    Ok(Some(hs)) => {
                        conn.peer = hs.from_rank;
                        let dec = conn.decoder.insert(FrameDecoder::new(hs.features));
                        dec.extend(&conn.hs[wire::HANDSHAKE_LEN..]);
                        conn.hs = Vec::new();
                        // Handshake bytes are preamble, not frame traffic:
                        // keep the received counter symmetric with the send
                        // side, which never counts its own handshake.
                        self.recv
                            .bytes
                            .fetch_sub(wire::HANDSHAKE_LEN as u64, Ordering::Relaxed);
                        dec
                    }
                    Err(e) => {
                        conn.done = true;
                        self.send_mailbox(Err(e));
                        return false;
                    }
                }
            }
        };
        loop {
            let item = match dec.next_frame() {
                Ok(Some(frame)) => {
                    let stats = dec.stats();
                    let new_batches = stats.batches - conn.batches_seen;
                    if new_batches > 0 {
                        conn.batches_seen = stats.batches;
                        self.recv.batches.fetch_add(new_batches, Ordering::Relaxed);
                    }
                    self.recv.frames.fetch_add(1, Ordering::Relaxed);
                    if matches!(frame, Frame::Eof { .. }) {
                        conn.saw_eof = true;
                    }
                    Ok(frame)
                }
                Ok(None) => return true,
                Err(e) => {
                    conn.done = true;
                    Err(fault_with_rank(e, conn.peer))
                }
            };
            let failed = item.is_err();
            // `send_mailbox`, inlined: `dec` still borrows `self.ins`.
            let delivered = self
                .mailbox
                .as_ref()
                .is_some_and(|tx| tx.send(item).is_ok());
            if !delivered {
                self.stop_reading();
                return false;
            }
            if failed {
                return false;
            }
        }
    }

    /// A zero-byte read: classifies the close as clean teardown,
    /// truncation, or a rank dying before its EOF frame.
    fn stream_closed(&mut self, i: usize) {
        let err = {
            let conn = &mut self.ins[i];
            conn.done = true;
            match &conn.decoder {
                None => Some(transport_fault(
                    "peer closed its stream during the handshake".to_string(),
                )),
                Some(dec) => {
                    let peer = conn.peer;
                    if !dec.is_drained() {
                        Some(fault_with_rank(
                            transport_fault(format!(
                                "peer rank {peer} closed its stream mid-frame"
                            )),
                            peer,
                        ))
                    } else if !conn.saw_eof {
                        Some(Error::fault(
                            FaultCause::new(
                                FaultKind::RankDeath,
                                format!("peer rank {peer} closed its stream before its EOF frame"),
                            )
                            .rank(peer),
                        ))
                    } else {
                        None
                    }
                }
            }
        };
        if let Some(e) = err {
            self.send_mailbox(Err(e));
        }
    }
}

enum Role {
    Wake,
    Listener,
    In(usize),
    Out,
}

fn seal(conn: &mut OutConn, sum: &mut SendSummary, free: &mut Vec<Vec<u8>>) {
    if conn.enc.is_empty() {
        return;
    }
    let mut buf = free.pop().unwrap_or_default();
    buf.clear();
    if let Some(batch) = conn.enc.seal_into(&mut buf) {
        sum.batches_sent += 1;
        debug_assert_eq!(batch.wire_len as usize, buf.len());
        conn.queued_bytes += buf.len();
        conn.queue.push_back(buf);
    } else {
        free.push(buf);
    }
}

fn write_out(
    conn: &mut OutConn,
    sum: &mut SendSummary,
    free: &mut Vec<Vec<u8>>,
    hist: Option<&LogHistogram>,
) {
    while !conn.queue.is_empty() && !conn.broken {
        let mut slices = Vec::with_capacity(conn.queue.len().min(MAX_IOVECS));
        for (idx, buf) in conn.queue.iter().take(MAX_IOVECS).enumerate() {
            slices.push(IoSlice::new(if idx == 0 { &buf[conn.head..] } else { buf }));
        }
        let start = hist.map(|_| Instant::now());
        match conn.stream.write_vectored(&slices) {
            Ok(0) => conn.broken = true,
            Ok(mut n) => {
                sum.send_syscalls += 1;
                sum.bytes_sent += n as u64;
                conn.queued_bytes -= n;
                if let (Some(hist), Some(start)) = (hist, start) {
                    hist.record_elapsed_us(start);
                }
                while let Some(front) = conn.queue.front() {
                    let left = front.len() - conn.head;
                    if n < left {
                        conn.head += n;
                        break;
                    }
                    n -= left;
                    conn.head = 0;
                    if let Some(mut done) = conn.queue.pop_front() {
                        if free.len() < 4 {
                            done.clear();
                            free.push(done);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => conn.broken = true,
        }
    }
    if conn.broken {
        conn.queue.clear();
        conn.queued_bytes = 0;
        conn.head = 0;
    }
}
