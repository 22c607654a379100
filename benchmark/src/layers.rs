//! The outside-in per-layer budget of a data workload.
//!
//! Each layer the job passes through is driven once, on its own, from
//! this file, over the same seeded input the job runs on and with the
//! parameters the job's `JobConfig` implies. The O side is driven
//! single-threaded, so a stage's wall time is close to the CPU it
//! costs; the sum of the stages on the job's path (`runtime.stage_sum_s`)
//! is then set against the job's measured `cpu_s`. What the sum does
//! not explain — hand-offs, clones, scheduling, thread start-up — is
//! `runtime.unattributed_cpu_frac`.
//!
//! Two stages approximate rather than replay the job, and the README
//! says so: the transport stage streams every captured frame from rank
//! 0 to rank 1 (the job spreads them over four socket pairs), and the
//! store stage seals the last forming run too (`seal_all`), which the
//! job keeps in memory when nothing has spilled.

use std::hint::black_box;
use std::path::Path;

use bytes::Bytes;
use datampi::buffer::{BufferStats, KvBuffer};
use datampi::comm::Frame;
use datampi::spillfmt::RunWriter;
use datampi::store::PartitionStore;
use datampi::transport::wire::{BatchEncoder, FrameDecoder};
use datampi::transport::{InProcTransport, TcpOptions, TcpTransport};
use datampi::{
    Backend, Collector, GroupedValues, JobConfig, SealedRun, SpillReadCounters, Transport,
    WireStats,
};
use dmpi_common::Record;
use dmpi_workloads::exec::GREP_PATTERN;
use dmpi_workloads::{grep, sort, wordcount, ExecWorkload};

use crate::spec::RANKS;
use crate::trace::{Layers, Spans};

type OFn = Box<dyn Fn(usize, &[u8], &mut dyn Collector) + Send + Sync>;
type AFn = fn(&GroupedValues, &mut dyn Collector);

/// The catalogue's O and A functions by their public names (the
/// catalogue keeps its own table private).
fn user_fns(workload: ExecWorkload) -> (OFn, AFn) {
    match workload {
        ExecWorkload::WordCount => (Box::new(wordcount::map), wordcount::reduce),
        ExecWorkload::TextSort => (Box::new(sort::text_map), sort::identity_reduce),
        ExecWorkload::Grep => (Box::new(grep::map_fn(GREP_PATTERN)), grep::reduce),
    }
}

/// Counts what a user function emits and drops it.
#[derive(Default)]
struct Counting {
    records: u64,
    bytes: u64,
}

impl Collector for Counting {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.records += 1;
        self.bytes += (key.len() + value.len()) as u64;
        black_box((key, value));
    }
}

struct Emit<'a>(&'a mut KvBuffer);

impl Collector for Emit<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.0.emit_kv(key, value);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the O function over every split through a `KvBuffer` per task
/// into in-proc senders, a sink thread per rank capturing the frames.
/// Returns the frames by destination partition.
fn buffer_stage(
    o_fn: &OFn,
    config: &JobConfig,
    inputs: &[Bytes],
    spans: &mut Spans,
    parent: usize,
) -> Result<(f64, BufferStats, Vec<Vec<Frame>>), String> {
    let mut endpoints = InProcTransport::new(RANKS, config.mailbox_capacity)
        .open()
        .map_err(err)?;
    let receivers: Vec<_> = endpoints.iter_mut().map(|e| e.take_receiver()).collect();
    let senders = endpoints[0].senders();
    // The endpoints' own sender clones would keep the mailboxes open.
    for endpoint in endpoints {
        endpoint.close();
    }

    std::thread::scope(|scope| {
        let sinks: Vec<_> = receivers
            .into_iter()
            .map(|rx| {
                scope.spawn(move || -> Result<Vec<Frame>, String> {
                    let mut frames = Vec::new();
                    while let Some(frame) = rx.recv().map_err(err)? {
                        frames.push(frame);
                    }
                    Ok(frames)
                })
            })
            .collect();

        let span = spans.open("buffer.emit", Some(parent));
        let mut total = BufferStats::default();
        for (task, split) in inputs.iter().enumerate() {
            let mut buffer = KvBuffer::new(
                senders.clone(),
                task % RANKS,
                task,
                config.flush_threshold,
                config.pipelined,
            );
            if let Some(combiner) = &config.combiner {
                buffer.set_combiner(combiner.clone());
            }
            o_fn(task, split, &mut Emit(&mut buffer));
            let stats = buffer.finish();
            total.records += stats.records;
            total.bytes += stats.bytes;
            total.early_flushes += stats.early_flushes;
            total.frames += stats.frames;
            total.combiner_records_in += stats.combiner_records_in;
            total.combiner_records_out += stats.combiner_records_out;
        }
        let seconds = spans.close(span);
        drop(senders);

        let mut by_partition = Vec::new();
        for sink in sinks {
            by_partition.push(sink.join().map_err(|_| "frame sink panicked")??);
        }
        Ok((seconds, total, by_partition))
    })
}

/// Encodes the frames into coalesced wire batches and decodes them
/// back, as one socket's writer and reader would.
fn wire_stage(
    config: &JobConfig,
    frames: &[Frame],
    spans: &mut Spans,
    parent: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut encoder = BatchEncoder::new(config.wire_batch_bytes, false);
    let features = encoder.features();
    let mut wire = Vec::new();
    let mut batches = 0u64;
    let mut raw_bytes = 0u64;
    let ((), encode_s) = spans.time("wire.encode", Some(parent), || {
        for frame in frames {
            raw_bytes += encoder.push(frame);
            if encoder.should_seal() {
                batches += u64::from(encoder.seal_into(&mut wire).is_some());
            }
        }
        batches += u64::from(encoder.seal_into(&mut wire).is_some());
    });

    let mut decoder = FrameDecoder::new(features);
    let (decoded, decode_s) = spans.time("wire.decode", Some(parent), || -> Result<u64, String> {
        let mut decoded = 0u64;
        // Fed in read-sized pieces, as bytes arrive from a socket.
        for piece in wire.chunks(64 << 10) {
            decoder.extend(piece);
            while let Some(frame) = decoder.next_frame().map_err(err)? {
                black_box(&frame);
                decoded += 1;
            }
        }
        Ok(decoded)
    });
    if decoded? != frames.len() as u64 {
        return Err("wire stage lost frames".into());
    }
    layers.set("wire.encode_s", encode_s);
    layers.set("wire.decode_s", decode_s);
    layers.set("wire.batches", batches as f64);
    layers.set("wire.wire_bytes", wire.len() as f64);
    layers.set("wire.raw_bytes", raw_bytes as f64);
    Ok(())
}

/// Streams the frames from rank 0 to rank 1 of a two-rank fabric, a
/// receiver thread checking each frame's CRC as the A side does.
/// Returns the stream time and both endpoints' wire counters.
fn stream_stage(
    fabric: &mut dyn Transport,
    frames: &[Frame],
    spans: &mut Spans,
    name: &str,
    parent: usize,
) -> Result<(f64, WireStats, WireStats), String> {
    let mut endpoints = fabric.open().map_err(err)?;
    let mut ep1 = endpoints.pop().ok_or("fabric has no rank 1")?;
    let ep0 = endpoints.pop().ok_or("fabric has no rank 0")?;
    let rx = ep1.take_receiver();
    let sink = std::thread::spawn(move || -> Result<u64, String> {
        let (mut data, mut eofs) = (0u64, 0usize);
        while eofs < RANKS {
            match rx.recv().map_err(err)? {
                Some(frame @ Frame::Data { .. }) => {
                    frame.verify().map_err(err)?;
                    data += 1;
                }
                Some(Frame::Eof { .. }) => eofs += 1,
                None => break,
            }
        }
        Ok(data)
    });
    let senders0 = ep0.senders();
    let senders1 = ep1.senders();
    let span = spans.open(name, Some(parent));
    for frame in frames {
        senders0[1].send(frame.clone());
    }
    for (rank, senders) in [&senders0, &senders1].into_iter().enumerate() {
        for s in senders {
            s.send(Frame::Eof { from_rank: rank });
        }
    }
    let received = sink.join().map_err(|_| "stream sink panicked")?;
    let seconds = spans.close(span);
    drop((senders0, senders1));
    let sent = ep0.close();
    let recv = ep1.close();
    if received? != frames.len() as u64 {
        return Err(format!("{name} lost frames"));
    }
    Ok((seconds, sent, recv))
}

/// What the store stage hands to the A and spill-format stages.
struct Stored {
    groups: Vec<Vec<GroupedValues>>,
}

/// Ingests each partition's frames into a `PartitionStore`, seals every
/// run and drains the merged group stream.
fn store_stage(
    config: &JobConfig,
    by_partition: &[Vec<Frame>],
    spans: &mut Spans,
    parent: usize,
    layers: &mut Layers,
) -> Result<Stored, String> {
    let (mut ingest_s, mut seal_s, mut merge_s) = (0.0, 0.0, 0.0);
    let (mut records, mut spills, mut resident, mut mem) = (0u64, 0u64, 0u64, 0u64);
    let mut groups = Vec::new();
    for (p, frames) in by_partition.iter().enumerate() {
        let mut store = PartitionStore::new(config.memory_budget, config.sorted_grouping);
        store.set_sort_kernel(config.sort_kernel);
        store.set_spill_config(config.spill_config().with_tag(format!("stage-r{p}")));
        let (ingested, s) = spans.time("store.ingest", Some(parent), || -> Result<(), String> {
            for frame in frames {
                if let Frame::Data { payload, .. } = frame {
                    store.ingest(payload.clone()).map_err(err)?;
                }
            }
            store.finish_ingest();
            Ok(())
        });
        ingested?;
        ingest_s += s;
        seal_s += spans
            .time("store.seal", Some(parent), || store.seal_all())
            .1;
        let stats = store.stats();
        records += stats.records;
        spills += stats.spills;
        resident = resident.max(stats.peak_resident_records);
        mem = mem.max(stats.peak_mem_bytes);
        let (merged, s) = spans.time("store.merge", Some(parent), || -> Result<_, String> {
            let mut stream = store.into_group_stream().map_err(err)?;
            let mut merged = Vec::new();
            while let Some(group) = stream.next_group().map_err(err)? {
                merged.push(group);
            }
            Ok(merged)
        });
        merge_s += s;
        groups.push(merged?);
    }
    layers.set("store.ingest_s", ingest_s);
    layers.set("store.seal_s", seal_s);
    layers.set("store.merge_s", merge_s);
    layers.set("store.records", records as f64);
    layers.set("store.spills", spills as f64);
    layers.set(
        "store.groups",
        groups.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layers.set("store.peak_resident_records", resident as f64);
    layers.set("store.peak_mem_bytes", mem as f64);
    Ok(Stored { groups })
}

/// Writes each partition's merged records as one indexed run file and
/// reads it back sequentially.
fn spillfmt_stage(
    config: &JobConfig,
    stored: &Stored,
    scratch: &Path,
    spans: &mut Spans,
    parent: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let (mut write_s, mut read_s) = (0.0, 0.0);
    let (mut raw, mut on_disk, mut records_back) = (0u64, 0u64, 0u64);
    let counters = SpillReadCounters::new();
    for (p, groups) in stored.groups.iter().enumerate() {
        let (run, s) = spans.time("spillfmt.write", Some(parent), || {
            let mut writer = RunWriter::new(config.spill_block_bytes, false, true);
            for group in groups {
                for value in &group.values {
                    writer.push(&Record::new(group.key.clone(), value.clone()));
                }
            }
            let (image, index) = writer.finish();
            SealedRun::to_file(&image, index, scratch.join(format!("stage-run-{p}.spill")))
        });
        let run = run.map_err(err)?;
        write_s += s;
        raw += run.index().raw_bytes;
        on_disk += run.index().stored_bytes;
        let (read, s) = spans.time("spillfmt.read", Some(parent), || -> Result<u64, String> {
            let mut reader = run.open(&counters, None).map_err(err)?;
            let mut n = 0u64;
            while let Some(rec) = reader.next_record().map_err(err)? {
                black_box(&rec);
                n += 1;
            }
            Ok(n)
        });
        records_back += read?;
        read_s += s;
    }
    if records_back != layers.get("store.records") as u64 {
        return Err("spill-format stage lost records".into());
    }
    let read = counters.snapshot();
    layers.set("spillfmt.write_s", write_s);
    layers.set("spillfmt.read_s", read_s);
    layers.set("spillfmt.raw_bytes", raw as f64);
    layers.set("spillfmt.stored_bytes", on_disk as f64);
    layers.set("spillfmt.blocks_read", read.blocks_read as f64);
    layers.set("spillfmt.seeks", read.seeks as f64);
    Ok(())
}

/// Drives every layer once over `inputs` and fills in the stage metrics
/// and `runtime.stage_sum_s`.
pub fn stage_budget(
    workload: ExecWorkload,
    config: &JobConfig,
    inputs: &[Bytes],
    scratch: &Path,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let root = spans.open("stages", None);
    let (o_fn, a_fn) = user_fns(workload);

    let (emitted, o_compute_s) = spans.time("workloads.o_compute", Some(root), || {
        let mut out = Counting::default();
        for (task, split) in inputs.iter().enumerate() {
            o_fn(task, split, &mut out);
        }
        out
    });
    layers.set("workloads.o_compute_s", o_compute_s);
    layers.set("workloads.o_records", emitted.records as f64);
    layers.set("workloads.o_emitted_bytes", emitted.bytes as f64);

    let (buffered_s, buffer, by_partition) = buffer_stage(&o_fn, config, inputs, spans, root)?;
    if buffer.records != emitted.records {
        return Err("buffer stage saw a different record count than the O stage".into());
    }
    // The buffer stage reruns the O function; what is left is the
    // buffer's own cost. Noise can push a tiny difference below zero.
    let emit_s = (buffered_s - o_compute_s).max(0.0);
    layers.set("buffer.emit_s", emit_s);
    layers.set("buffer.frames", buffer.frames as f64);
    layers.set("buffer.early_flushes", buffer.early_flushes as f64);
    let combine_ratio = if buffer.combiner_records_in > 0 {
        buffer.combiner_records_out as f64 / buffer.combiner_records_in as f64
    } else {
        1.0
    };
    layers.set("buffer.combine_ratio", combine_ratio);

    let all_frames: Vec<Frame> = by_partition.iter().flatten().cloned().collect();
    let payload_mb = all_frames.iter().map(Frame::payload_len).sum::<usize>() as f64 / 1e6;
    wire_stage(config, &all_frames, spans, root, layers)?;

    let mut tcp = TcpTransport::loopback(RANKS, TcpOptions::from_config(config));
    let (tcp_s, sent, received) =
        stream_stage(&mut tcp, &all_frames, spans, "transport.tcp_stream", root)?;
    layers.set("transport.tcp_stream_s", tcp_s);
    layers.set("transport.tcp_mb_s", payload_mb / tcp_s);
    layers.set("transport.tcp_send_syscalls", sent.send_syscalls as f64);
    layers.set("transport.tcp_recv_syscalls", received.recv_syscalls as f64);
    layers.set("transport.tcp_batches", sent.batches_sent as f64);
    let mut inproc = InProcTransport::new(RANKS, config.mailbox_capacity);
    let (inproc_s, _, _) = stream_stage(
        &mut inproc,
        &all_frames,
        spans,
        "transport.inproc_stream",
        root,
    )?;
    layers.set("transport.inproc_stream_s", inproc_s);
    drop(all_frames);

    let stored = store_stage(config, &by_partition, spans, root, layers)?;

    let (reduced, a_compute_s) = spans.time("workloads.a_compute", Some(root), || {
        let mut out = Counting::default();
        for group in stored.groups.iter().flatten() {
            a_fn(group, &mut out);
        }
        out
    });
    black_box(reduced.records);
    layers.set("workloads.a_compute_s", a_compute_s);
    layers.set("workloads.a_groups", layers.get("store.groups"));

    spillfmt_stage(config, &stored, scratch, spans, root, layers)?;
    spans.close(root);

    // Only the stages on this job's path: the wire and spill-format
    // stages re-measure, in isolation, work that the TCP stream and the
    // store stages already contain.
    layers.on_path = vec![
        "workloads.o_compute_s",
        "buffer.emit_s",
        match config.transport {
            Backend::Tcp => "transport.tcp_stream_s",
            Backend::InProc => "transport.inproc_stream_s",
        },
        "store.ingest_s",
        "store.seal_s",
        "store.merge_s",
        "workloads.a_compute_s",
    ];
    let stage_sum = layers.on_path.iter().map(|name| layers.get(name)).sum();
    layers.set("runtime.stage_sum_s", stage_sum);
    Ok(())
}
