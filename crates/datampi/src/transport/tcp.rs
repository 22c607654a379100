//! Real TCP interconnect: a full socket mesh between ranks.
//!
//! Every rank binds one listener and opens one outbound connection to
//! every peer (itself included — the mesh is uniform, so rank-local
//! traffic exercises the same code path). The establishing thread dials
//! every peer with bounded retry — exponential backoff with
//! deterministic xorshift jitter — and writes the feature-advertising
//! handshake; everything after that (accepting inbound connections,
//! draining send windows, coalescing frames into wire batches, decoding
//! inbound streams) happens on **one poller thread per rank** — the
//! readiness event loop in `evloop` (see DESIGN.md §9).
//!
//! Backpressure is layered: producers block on a bounded per-peer send
//! window ([`TcpOptions::send_window`] frames) in front of each socket,
//! the kernel's socket buffers throttle the poller's nonblocking writes,
//! and the receiving side's bounded mailbox throttles its decoder. Every
//! stage is drained by a consumer that never sends, so the wait-for
//! chain terminates (same argument as the in-proc mailboxes in
//! `comm.rs`).
//!
//! Teardown mirrors the frame protocol: after a rank's last
//! [`Frame::Eof`] its producers drop their senders, the poller drains
//! and seals each window's remainder, flushes, and shuts the socket's
//! write side down, and the peer sees a clean end-of-stream. A stream
//! that ends *before* its EOF frame means the peer died — the poller
//! reports a structured [`FaultKind::RankDeath`] fault naming that rank,
//! which is what lets `supervise_job` retry a job whose worker was
//! killed.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::comm::{Frame, DEFAULT_MAILBOX_CAPACITY};
use crate::config::{JobConfig, DEFAULT_WIRE_BATCH_BYTES};
use crate::observe::LogHistogram;

use super::evloop::{self, LoopCtl, PollerSetup, RecvCounters, Waker};
use super::{wire, Endpoint, FrameReceiver, FrameSender, Transport};

/// Default bound on each peer's send window.
const DEFAULT_SEND_WINDOW: usize = 128;

/// Tuning knobs for the TCP backend.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Frames queued behind one peer's socket before producers block.
    pub send_window: usize,
    /// Capacity of the receive mailbox fed by the poller thread.
    pub mailbox_capacity: usize,
    /// Coalescing watermark: raw batch bytes before a wire batch seals.
    pub batch_bytes: usize,
    /// How many times to dial a peer before giving up.
    pub connect_attempts: u32,
    /// Backoff before the second dial; doubles per attempt.
    pub connect_base_delay: Duration,
    /// Upper bound on the per-attempt backoff.
    pub connect_max_delay: Duration,
    /// How long the acceptor waits for all peers to dial in.
    pub accept_timeout: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// When telemetry is on, each batch write's syscall latency lands
    /// here (the `HistKind::SendLatency` channel).
    pub send_hist: Option<Arc<LogHistogram>>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            send_window: DEFAULT_SEND_WINDOW,
            mailbox_capacity: DEFAULT_MAILBOX_CAPACITY,
            batch_bytes: DEFAULT_WIRE_BATCH_BYTES,
            connect_attempts: 20,
            connect_base_delay: Duration::from_millis(5),
            connect_max_delay: Duration::from_millis(500),
            accept_timeout: Duration::from_secs(30),
            jitter_seed: 0x00C0_FFEE,
            send_hist: None,
        }
    }
}

impl TcpOptions {
    /// Options derived from a job config (mailbox and coalescing knobs).
    pub fn from_config(config: &JobConfig) -> Self {
        TcpOptions {
            mailbox_capacity: config.mailbox_capacity,
            batch_bytes: config.wire_batch_bytes,
            ..TcpOptions::default()
        }
    }
}

fn transport_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    *state
}

/// Mixes a jitter seed with a dialer's identity so every (rank, peer)
/// pair walks a distinct — but reproducible — jitter stream.
fn jitter_state(seed: u64, rank: usize, peer: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((rank as u64) << 32) ^ peer as u64)
        .max(1)
}

/// The pause before redialing after failed attempt number `attempt`
/// (0-based): exponential backoff doubling from `base`, clamped to
/// `cap`, then scaled by a jitter fraction in `[0.5, 1.0)` drawn from
/// the xorshift stream in `state`. Deterministic per seed, so launcher
/// behaviour is reproducible; distinct per (rank, peer) seed, so a
/// thundering herd of workers redialing one coordinator decorrelates
/// instead of reconverging on the same schedule.
fn retry_backoff(attempt: u32, base: Duration, cap: Duration, state: &mut u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    let capped = exp.min(cap);
    let frac = 500 + (xorshift(state) % 500) as u32;
    capped.mul_f64(frac as f64 / 1000.0)
}

/// Dials `addr` with exponential backoff and jitter (see
/// [`retry_backoff`]).
fn connect_with_retry(
    addr: SocketAddr,
    rank: usize,
    peer: usize,
    opts: &TcpOptions,
) -> Result<TcpStream> {
    let mut jitter = jitter_state(opts.jitter_seed, rank, peer);
    let mut last_err = String::new();
    for attempt in 0..opts.connect_attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last_err = e.to_string(),
        }
        thread::sleep(retry_backoff(
            attempt,
            opts.connect_base_delay,
            opts.connect_max_delay,
            &mut jitter,
        ));
    }
    Err(Error::fault(
        FaultCause::new(
            FaultKind::Transport,
            format!(
                "rank {rank} could not connect to peer {peer} at {addr} after {} attempts: \
                 {last_err}",
                opts.connect_attempts.max(1)
            ),
        )
        .rank(peer),
    ))
}

/// Stands up one rank's endpoint of a TCP mesh: dials every address in
/// `peers` (indexed by rank), then hands the listener, the connected
/// streams, and their send windows to this rank's poller thread, which
/// accepts the `peers.len()` inbound connections (one per peer, itself
/// included) and runs all I/O from then on. This is the entry point a
/// session's workers use once the coordinator has broadcast the rank
/// table; [`TcpTransport::open`] calls it once per rank for
/// single-process loopback meshes.
pub fn establish_endpoint(
    rank: usize,
    listener: TcpListener,
    peers: &[SocketAddr],
    opts: &TcpOptions,
) -> Result<Endpoint> {
    let ranks = peers.len();
    let (mailbox_tx, mailbox_rx) = bounded::<Result<Frame>>(opts.mailbox_capacity.max(1));
    listener
        .set_nonblocking(true)
        .map_err(|e| transport_fault(format!("rank {rank}: set_nonblocking failed: {e}")))?;
    let (waker, wake_rx) = Waker::pair()
        .map_err(|e| transport_fault(format!("rank {rank}: wake pipe failed: {e}")))?;
    let ctl = LoopCtl::new(Arc::clone(&waker));

    // Dial every peer, advertise our wire features, and park each stream
    // behind a bounded send window. The dials complete against the
    // peers' listen backlogs, so no acceptor needs to run yet.
    let mut senders = Vec::with_capacity(ranks);
    let mut outbound = Vec::with_capacity(ranks);
    for (peer, &addr) in peers.iter().enumerate() {
        let mut stream = connect_with_retry(addr, rank, peer, opts)?;
        wire::write_handshake(&mut stream, rank, wire::FEATURE_COALESCE).map_err(|e| {
            Error::fault(
                FaultCause::new(
                    FaultKind::Transport,
                    format!("rank {rank}: handshake to peer {peer} failed: {e}"),
                )
                .rank(peer),
            )
        })?;
        stream
            .set_nonblocking(true)
            .map_err(|e| transport_fault(format!("rank {rank}: set_nonblocking failed: {e}")))?;
        let (window_tx, window_rx) = bounded::<Frame>(opts.send_window.max(1));
        senders.push(FrameSender::with_waker(window_tx, Arc::clone(&waker)));
        outbound.push((stream, window_rx));
    }

    let recv = Arc::new(RecvCounters::default());
    let accept_deadline = Instant::now() + opts.accept_timeout;
    let setup = PollerSetup {
        rank,
        expected_peers: ranks,
        listener,
        outbound,
        mailbox: mailbox_tx,
        wake_rx,
        ctl: Arc::clone(&ctl),
        accept_deadline,
        batch_bytes: opts.batch_bytes,
        send_hist: opts.send_hist.clone(),
        recv: Arc::clone(&recv),
    };
    let poller = thread::Builder::new()
        .name(format!("dmpi-poll-{rank}"))
        .spawn(move || evloop::run(setup))
        .map_err(|e| transport_fault(format!("rank {rank}: poller spawn failed: {e}")))?;

    Ok(Endpoint::with_poller(
        rank,
        senders,
        FrameReceiver::Checked(mailbox_rx),
        poller,
        ctl,
        recv,
        accept_deadline,
    ))
}

/// A single-process loopback mesh: binds `ranks` listeners on
/// `127.0.0.1` and establishes every endpoint concurrently. Frames
/// still traverse real sockets and the real wire codec — this is the
/// fabric `JobConfig::with_transport(Backend::Tcp)` gives the threaded
/// runtime, and what the transport benchmark measures against in-proc.
pub struct TcpTransport {
    ranks: usize,
    opts: TcpOptions,
}

impl TcpTransport {
    /// Sizes a loopback mesh for `ranks` endpoints.
    pub fn loopback(ranks: usize, opts: TcpOptions) -> Self {
        TcpTransport { ranks, opts }
    }
}

impl Transport for TcpTransport {
    fn open(&mut self) -> Result<Vec<Endpoint>> {
        let mut listeners = Vec::with_capacity(self.ranks);
        let mut addrs = Vec::with_capacity(self.ranks);
        for rank in 0..self.ranks {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| {
                transport_fault(format!(
                    "rank {rank}: could not bind loopback listener: {e}"
                ))
            })?;
            addrs.push(listener.local_addr().map_err(|e| {
                transport_fault(format!("rank {rank}: no local addr on listener: {e}"))
            })?);
            listeners.push(listener);
        }
        let opts = &self.opts;
        let addrs = &addrs;
        // Establish concurrently: each rank's dials need every other
        // rank's listen backlog, and establishing in parallel keeps the
        // whole mesh inside one accept deadline.
        thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    s.spawn(move || establish_endpoint(rank, listener, addrs, opts))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| {
                        Err(transport_fault(format!(
                            "rank {rank}: endpoint establish thread panicked"
                        )))
                    })
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tiny_opts() -> TcpOptions {
        TcpOptions {
            accept_timeout: Duration::from_secs(5),
            ..TcpOptions::default()
        }
    }

    #[test]
    fn two_rank_mesh_round_trips_frames() {
        let mut fabric = TcpTransport::loopback(2, tiny_opts());
        let mut eps = fabric.open().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();

        let senders = ep0.senders();
        assert!(senders[1].send(Frame::data(0, 7, Bytes::from_static(b"over tcp"))));
        for s in &senders {
            assert!(s.send(Frame::Eof { from_rank: 0 }));
        }
        let rx1 = ep1.take_receiver();
        let ep1_senders = ep1.senders();
        for s in &ep1_senders {
            assert!(s.send(Frame::Eof { from_rank: 1 }));
        }

        let mut data = Vec::new();
        let mut eofs = 0;
        while eofs < 2 {
            match rx1.recv().unwrap() {
                Some(f @ Frame::Data { .. }) => {
                    f.verify().unwrap();
                    data.push(f);
                }
                Some(Frame::Eof { .. }) => eofs += 1,
                None => panic!("mailbox closed before both EOFs"),
            }
        }
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].from_rank(), 0);
        assert_eq!(data[0].o_task(), Some(7));
        assert_eq!(data[0].payload_len(), 8);

        drop(senders);
        drop(ep1_senders);
        let w0 = ep0.close();
        let w1 = ep1.close();
        // ep0 encoded one data frame (21 + 8 bytes) and two EOFs — the
        // logical bytes are deterministic; the wire bytes depend on how
        // the frames coalesced, which the batch counters pin down.
        assert_eq!(w0.raw_bytes_sent, 29 + 5 + 5);
        assert_eq!(w0.frames_sent, 3);
        assert!(w0.batches_sent >= 1 && w0.batches_sent <= 3);
        assert!(w0.send_syscalls >= w0.batches_sent.div_ceil(16));
        assert_eq!(
            w0.bytes_sent,
            w0.raw_bytes_sent + wire::BATCH_HEADER_LEN as u64 * w0.batches_sent
        );
        // ep1 decoded everything ep0 sent it (29 + 5 logical) plus its
        // own loopback EOF (5 logical), each inside a batch envelope.
        assert_eq!(w1.frames_received, 3);
        assert!(w1.batches_received >= 2, "two senders, at least 2 batches");
        assert!(w1.bytes_received > 0 && w1.recv_syscalls > 0);
    }

    #[test]
    fn dead_peer_surfaces_a_rank_death_fault() {
        // Rank 1 "dies": it accepts our dial, dials us back, handshakes,
        // then closes its stream without ever sending an EOF frame.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer_listener.local_addr().unwrap();
        let opts = tiny_opts();
        let t = thread::spawn(move || {
            let (held, _) = peer_listener.accept().unwrap();
            let mut stream = TcpStream::connect(my_addr).unwrap();
            wire::write_handshake(&mut stream, 1, 0).unwrap();
            held // keep rank 0's outbound stream open until the test ends
                 // (stream itself drops here: death without EOF)
        });
        let mut ep = establish_endpoint(0, listener, &[peer_addr], &opts).unwrap();
        let held = t.join().unwrap();
        let rx = ep.take_receiver();
        match rx.recv() {
            Err(e) => {
                let cause = e.fault_cause().expect("structured fault");
                assert_eq!(cause.kind, FaultKind::RankDeath);
                assert_eq!(cause.rank, Some(1));
                assert!(cause.detail.contains("EOF"), "{}", cause.detail);
            }
            other => panic!("unexpected {other:?}"),
        }
        // After the fault, the mailbox drains to clean end-of-stream.
        assert!(rx.recv().unwrap().is_none());
        drop(rx);
        drop(held);
        ep.close();
    }

    #[test]
    fn backoff_schedule_doubles_clamps_and_jitters_in_range() {
        let base = Duration::from_millis(8);
        let cap = Duration::from_millis(100);
        let mut state = jitter_state(0xBEEF, 2, 5);
        let mut prev_nominal = Duration::ZERO;
        for attempt in 0..8u32 {
            let d = retry_backoff(attempt, base, cap, &mut state);
            let nominal = base.saturating_mul(1u32 << attempt.min(10)).min(cap);
            assert!(nominal >= prev_nominal, "monotone until the cap");
            // Jitter keeps every pause inside [0.5, 1.0) of nominal.
            assert!(d >= nominal.mul_f64(0.5), "attempt {attempt}: {d:?}");
            assert!(d < nominal, "attempt {attempt}: {d:?} < {nominal:?}");
            prev_nominal = nominal;
        }
        // Far past the doubling range, the cap alone bounds the pause.
        let late = retry_backoff(40, base, cap, &mut state);
        assert!(late < cap && late >= cap.mul_f64(0.5));
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed_and_distinct_per_dialer() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        let schedule = |seed: u64, rank: usize, peer: usize| -> Vec<Duration> {
            let mut state = jitter_state(seed, rank, peer);
            (0..6)
                .map(|a| retry_backoff(a, base, cap, &mut state))
                .collect()
        };
        // Same identity → byte-for-byte the same schedule (reproducible).
        assert_eq!(schedule(7, 0, 1), schedule(7, 0, 1));
        // Different ranks dialing the same peer → decorrelated schedules
        // (the thundering-herd property: no shared redial instants).
        assert_ne!(schedule(7, 0, 1), schedule(7, 3, 1));
        assert_ne!(schedule(7, 0, 1), schedule(9, 0, 1), "seed matters");
    }

    #[test]
    fn connect_retry_gives_up_with_a_structured_fault() {
        // Nothing listens here: bind-then-drop guarantees a dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let opts = TcpOptions {
            connect_attempts: 2,
            connect_base_delay: Duration::from_millis(1),
            connect_max_delay: Duration::from_millis(2),
            ..TcpOptions::default()
        };
        let err = connect_with_retry(addr, 3, 1, &opts).unwrap_err();
        let cause = err.fault_cause().expect("structured fault");
        assert_eq!(cause.kind, FaultKind::Transport);
        assert_eq!(cause.rank, Some(1));
        assert!(cause.detail.contains("2 attempts"), "{}", cause.detail);
    }

    #[test]
    fn larger_mesh_moves_bulk_data() {
        // 3 ranks, bulk payloads: exercises the size-watermark seal path
        // (not just idle flush) and batch decode across several peers at
        // once.
        let opts = TcpOptions {
            batch_bytes: 8 * 1024,
            ..tiny_opts()
        };
        let mut fabric = TcpTransport::loopback(3, opts);
        let mut eps = fabric.open().unwrap();
        let ep2 = eps.pop().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();

        let payload = Bytes::from(vec![0x42u8; 4096]);
        let frames_per_sender = 32usize;
        for ep in [&ep0, &ep1, &ep2] {
            let senders = ep.senders();
            let rank = ep.rank();
            for _ in 0..frames_per_sender {
                assert!(senders[1].send(Frame::data(rank, 1, payload.clone())));
            }
            for s in &senders {
                assert!(s.send(Frame::Eof { from_rank: rank }));
            }
        }

        let rx1 = ep1.take_receiver();
        let mut eofs = 0;
        let mut data = 0usize;
        while eofs < 3 {
            match rx1.recv().unwrap() {
                Some(f @ Frame::Data { .. }) => {
                    f.verify().unwrap();
                    data += 1;
                }
                Some(Frame::Eof { .. }) => eofs += 1,
                None => panic!("mailbox closed early"),
            }
        }
        assert_eq!(data, 3 * frames_per_sender);
        drop(rx1);
        let w0 = ep0.close();
        let w1 = ep1.close();
        ep2.close();
        // The wire carries the frames plus one header per batch.
        assert_eq!(
            w0.bytes_sent,
            w0.raw_bytes_sent + wire::BATCH_HEADER_LEN as u64 * w0.batches_sent
        );
        // Coalescing must beat one-write-per-frame by a wide margin.
        assert!(
            w0.send_syscalls < w0.frames_sent,
            "{} syscalls for {} frames",
            w0.send_syscalls,
            w0.frames_sent
        );
        assert_eq!(w1.frames_received as usize, 3 * frames_per_sender + 3);
    }
}
