//! The fixed tables of the benchmark: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root restates
//! these names; a unit test keeps the two in step.

use std::path::Path;

use datampi::{Backend, JobConfig};
use dmpi_workloads::ExecWorkload;

/// Ranks of every job and of the service mesh: the width of the 2-core
/// host the bounds were measured on. A result file records `nproc`, so
/// numbers from a narrower host cannot pass as comparable.
pub const RANKS: usize = 2;

/// Size of one input split at full scale; `--smoke` uses 1/16 of it.
pub const SPLIT_BYTES: usize = 2 << 20;
const SMOKE_DIVISOR: usize = 16;

/// One of the five data workloads: a catalogue job, its input shape and
/// the one or two `JobConfig` fields that make it stress its layers.
#[derive(Clone, Copy, Debug)]
pub struct DataSpec {
    pub workload: ExecWorkload,
    pub tasks: usize,
    pub split_bytes: usize,
    pub backend: Backend,
    pub combiner: bool,
    /// A-side memory budget per rank; `None` keeps the default.
    pub memory_budget: Option<usize>,
    /// Whether sealed runs go to files under a temp dir.
    pub spill_to_disk: bool,
}

impl DataSpec {
    /// The job configuration, `JobConfig::new(RANKS)` plus this row's
    /// fields. `spill_dir` is used only by the spilling workload.
    pub fn config(&self, spill_dir: &Path) -> JobConfig {
        let mut config = JobConfig::new(RANKS).with_transport(self.backend);
        if self.combiner {
            let combiner = self
                .workload
                .combiner()
                .expect("only workloads with a combiner set the flag");
            config = config.with_combiner(combiner);
        }
        if let Some(bytes) = self.memory_budget {
            config = config.with_memory_budget(bytes);
        }
        if self.spill_to_disk {
            config = config.with_spill_dir(spill_dir);
        }
        config
    }
}

/// The small-jobs service stream.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    pub tenants: [&'static str; 2],
    /// Closed-loop clients per tenant. Two, so that four clients keep
    /// both cores busy: with one per tenant the cores idle between
    /// protocol steps, and job latency then follows the virtual CPUs'
    /// wake-up cost, which on the host this was built on flips between
    /// two regimes (3.1 vs 3.8 ms, range 27% over 45 runs against 13%
    /// with four clients).
    pub clients_per_tenant: usize,
    pub tasks: usize,
    pub split_bytes: usize,
    /// Distinct job seeds cycled through; each has its own reference.
    pub seed_pool: usize,
    /// Every `sample_every`-th job of a client writes `out=` files that
    /// are read back and checked in full.
    pub sample_every: usize,
    /// Untimed jobs each client runs first.
    pub warmup_jobs: usize,
    /// Timed jobs each client submits per second of `--seconds`. The
    /// job count is fixed by the command line, not by how fast the
    /// service is: resident workers keep every finished job's thread
    /// until drain, so memory grows with jobs run, and a count that
    /// followed speed would turn a faster service into a memory
    /// regression. About 3/4 of what this host sustains, so a run lasts
    /// a little under `--seconds`.
    pub jobs_per_client_second: f64,
}

impl ServiceSpec {
    /// Closed-loop clients in total.
    pub fn clients(&self) -> usize {
        self.tenants.len() * self.clients_per_tenant
    }
}

pub const SERVICE: &str = "service-smalljobs";

pub const SERVICE_SPEC: ServiceSpec = ServiceSpec {
    tenants: ["alice", "bob"],
    clients_per_tenant: 2,
    tasks: 2,
    split_bytes: 4096,
    seed_pool: 64,
    sample_every: 64,
    warmup_jobs: 20,
    jobs_per_client_second: 150.0,
};

/// Workload names in reporting order.
pub const WORKLOADS: [&str; 6] = [
    "wordcount-inproc",
    "wordcount-combine-tcp",
    "sort-tcp",
    "sort-spill",
    "grep-inproc",
    SERVICE,
];

/// The data workload called `name`, at full or smoke scale.
pub fn data_spec(name: &str, smoke: bool) -> Option<DataSpec> {
    let split_bytes = if smoke {
        SPLIT_BYTES / SMOKE_DIVISOR
    } else {
        SPLIT_BYTES
    };
    let base = DataSpec {
        workload: ExecWorkload::WordCount,
        tasks: 4,
        split_bytes,
        backend: Backend::InProc,
        combiner: false,
        memory_budget: None,
        spill_to_disk: false,
    };
    Some(match name {
        "wordcount-inproc" => base,
        "wordcount-combine-tcp" => DataSpec {
            backend: Backend::Tcp,
            combiner: true,
            ..base
        },
        "sort-tcp" => DataSpec {
            workload: ExecWorkload::TextSort,
            tasks: 16,
            backend: Backend::Tcp,
            memory_budget: Some(256 << 20),
            ..base
        },
        // A budget of one split per rank: each rank seals about eight
        // runs at either scale, so the merge fan-in does not change
        // with `--smoke`.
        "sort-spill" => DataSpec {
            workload: ExecWorkload::TextSort,
            tasks: 16,
            memory_budget: Some(split_bytes),
            spill_to_disk: true,
            ..base
        },
        "grep-inproc" => DataSpec {
            workload: ExecWorkload::Grep,
            tasks: 32,
            ..base
        },
        _ => return None,
    })
}

/// `--seconds` when not given: the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

/// Name and unit of every end-to-end metric; every workload reports all
/// of them. Directions and regression bounds live in `BENCHMARK.json`
/// only, which is where `compare` and the driver read them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Name and unit of every per-layer metric, grouped by the module
/// whose calls are timed. A traced run reports all of
/// them; a layer the workload does not touch reports zero.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("workloads.o_compute_s", "s"),
    ("workloads.o_records", "count"),
    ("workloads.o_emitted_bytes", "bytes"),
    ("workloads.a_compute_s", "s"),
    ("workloads.a_groups", "count"),
    ("buffer.emit_s", "s"),
    ("buffer.frames", "count"),
    ("buffer.early_flushes", "count"),
    ("buffer.combine_ratio", "ratio"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.batches", "count"),
    ("wire.wire_bytes", "bytes"),
    ("wire.raw_bytes", "bytes"),
    ("transport.tcp_stream_s", "s"),
    ("transport.tcp_mb_s", "MB/s"),
    ("transport.tcp_send_syscalls", "count"),
    ("transport.tcp_recv_syscalls", "count"),
    ("transport.tcp_batches", "count"),
    ("transport.inproc_stream_s", "s"),
    ("store.ingest_s", "s"),
    ("store.seal_s", "s"),
    ("store.merge_s", "s"),
    ("store.records", "count"),
    ("store.spills", "count"),
    ("store.groups", "count"),
    ("store.peak_resident_records", "count"),
    ("store.peak_mem_bytes", "bytes"),
    ("spillfmt.write_s", "s"),
    ("spillfmt.read_s", "s"),
    ("spillfmt.raw_bytes", "bytes"),
    ("spillfmt.stored_bytes", "bytes"),
    ("spillfmt.blocks_read", "count"),
    ("spillfmt.seeks", "count"),
    ("runtime.job_s", "s"),
    ("runtime.traced_job_s", "s"),
    ("runtime.trace_overhead_ratio", "ratio"),
    ("runtime.cpu_s", "s"),
    ("runtime.phase_o_task_s", "s"),
    ("runtime.phase_send_s", "s"),
    ("runtime.phase_recv_s", "s"),
    ("runtime.phase_sort_s", "s"),
    ("runtime.phase_spill_s", "s"),
    ("runtime.phase_a_compute_s", "s"),
    ("runtime.stage_sum_s", "s"),
    ("runtime.unattributed_cpu_frac", "ratio"),
    ("runtime.input_mb_s", "MB/s"),
    ("runtime.records_emitted", "count"),
    ("runtime.bytes_emitted", "bytes"),
    ("runtime.frames", "count"),
    ("runtime.early_flushes", "count"),
    ("runtime.spills", "count"),
    ("runtime.spilled_bytes", "bytes"),
    ("runtime.spilled_wire_bytes", "bytes"),
    ("runtime.groups", "count"),
    ("runtime.combiner_records_in", "count"),
    ("runtime.combiner_records_out", "count"),
    ("service.latency_p50_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("service.accept_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.mesh_setup_s", "s"),
    ("service.jobs_per_s", "1/s"),
    ("service.completed", "count"),
    ("service.rejected", "count"),
    ("service.admission_ops_per_s", "1/s"),
    ("service.protocol_roundtrip_ns", "ns"),
    ("datagen.gen_mb_s", "MB/s"),
    ("datagen.input_bytes", "bytes"),
    ("datagen.reference_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn every_workload_name_resolves_at_both_scales() {
        for name in WORKLOADS {
            if name == SERVICE {
                continue;
            }
            let full = data_spec(name, false).unwrap();
            let smoke = data_spec(name, true).unwrap();
            assert_eq!(full.tasks, smoke.tasks);
            assert_eq!(full.split_bytes, smoke.split_bytes * 16);
            full.config(Path::new("unused")).validate().unwrap();
        }
        assert!(data_spec(SERVICE, false).is_none());
        assert!(data_spec("mystery", false).is_none());
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the runner prints: they must name the same things.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Value::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> Vec<Vec<String>> {
            table
                .iter()
                .map(|(n, u)| vec![n.to_string(), u.to_string()])
                .collect()
        };
        let workloads: Vec<Vec<String>> = WORKLOADS.iter().map(|w| vec![w.to_string()]).collect();
        assert_eq!(names("workloads", &["name"]), workloads);
        assert_eq!(names("end_to_end", &["name", "unit"]), pairs(&END_TO_END));
        assert_eq!(names("per_layer", &["name", "unit"]), pairs(&PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
