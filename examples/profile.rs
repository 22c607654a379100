//! Observability end to end: trace a real WordCount, sample its resource
//! profile, and export a Chrome-loadable trace.
//!
//! ```text
//! cargo run --release --example profile
//! ```
//!
//! It runs a 4-rank WordCount with tracing and the sampling
//! profiler enabled, prints the per-phase wall-time totals and counter
//! snapshot, dumps the bucketed CPU/memory/network time series
//! (Figure-4-style), and writes `target/profile_trace.json` — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see every rank's
//! spans on its own lane. What tracing costs is measured by the
//! benchmark (`runtime.trace_overhead_ratio`), not here.

use std::time::Duration;

use bytes::Bytes;
use datampi_suite::common::group::{Collector, GroupedValues};
use datampi_suite::common::ser::Writable;
use datampi_suite::datampi::{run_job, Counter, JobConfig, Observer, Profiler};

fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for line in split.split(|&b| b == b'\n') {
        for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.collect(w, &1u64.to_bytes());
        }
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap_or(0))
        .sum();
    out.collect(&g.key, &total.to_bytes());
}

/// Deterministic word soup: `words` words over a 256-word vocabulary.
fn inputs(splits: usize, words: usize) -> Vec<Bytes> {
    let vocab: Vec<String> = (0..256).map(|i| format!("word{i:03}")).collect();
    let mut state = 0x2545f491_4f6cdd1du64;
    let per_split = words / splits.max(1);
    (0..splits)
        .map(|_| {
            let mut text = String::with_capacity(per_split * 8);
            for i in 0..per_split {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                text.push_str(&vocab[(state >> 33) as usize % vocab.len()]);
                text.push(if i % 12 == 11 { '\n' } else { ' ' });
            }
            Bytes::from(text)
        })
        .collect()
}

fn main() {
    const RANKS: usize = 4;
    let observer = Observer::new();
    let config = JobConfig::new(RANKS)
        .with_flush_threshold(16 * 1024)
        .with_observer(observer.clone());
    let profiler = Profiler::spawn(observer.clone(), Duration::from_millis(2), 0.010, RANKS);
    let out =
        run_job(&config, inputs(RANKS * 8, 300_000), wc_o, wc_a, None).expect("traced wordcount");
    let profile = profiler.stop();
    let trace = observer.trace();

    println!("-- job --");
    println!(
        "ranks {RANKS} | O tasks {} | records {} | groups {} | bytes {}",
        out.stats.o_tasks_run, out.stats.records_emitted, out.stats.groups, out.stats.bytes_emitted
    );

    println!("\n-- phase wall-time totals (from the span log) --");
    for (name, us) in out.stats.phase_us.rows() {
        println!("{name:<10} {:>9.3} ms", us as f64 / 1e3);
    }

    let snap = observer.registry().snapshot();
    println!("\n-- counters --");
    println!(
        "frames {} | bytes sent {} | records in {} | spills {} | buffer hwm {} B",
        snap[Counter::FramesSent],
        snap[Counter::BytesSent],
        snap[Counter::RecordsIn],
        snap[Counter::Spills],
        snap[Counter::BufferHwmBytes]
    );

    println!(
        "\n-- sampled profile ({} buckets of 10 ms) --",
        profile.cpu_util_pct.len()
    );
    println!(
        "{:>6}  {:>8}  {:>9}  {:>9}",
        "bucket", "cpu %", "net MB/s", "mem GB"
    );
    for i in 0..profile.cpu_util_pct.len().min(12) {
        println!(
            "{i:>6}  {:>8.1}  {:>9.1}  {:>9.3}",
            profile.cpu_util_pct[i], profile.net_mb_s[i], profile.mem_gb[i]
        );
    }
    if profile.cpu_util_pct.len() > 12 {
        println!("   ... {} more", profile.cpu_util_pct.len() - 12);
    }

    let json = trace.to_chrome_json();
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "valid Chrome trace envelope"
    );
    let path = "target/profile_trace.json";
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, &json).expect("write trace");
    println!(
        "\nwrote {path} ({} events, {} bytes) — load it in chrome://tracing",
        trace.len(),
        json.len()
    );
}
