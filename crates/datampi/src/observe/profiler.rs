//! Sampling profiler: Figure-4-style resource curves for *real* runs.
//!
//! A background thread snapshots process CPU time, resident set size and
//! the metrics registry at a fixed interval, converts consecutive
//! snapshots into [`IntervalRates`](dmpi_dcsim::metrics::IntervalRates),
//! and feeds them into the simulator's own
//! [`MetricsRecorder`](dmpi_dcsim::metrics::MetricsRecorder) — so a real
//! job produces the exact same
//! [`ResourceProfile`](dmpi_dcsim::metrics::ResourceProfile) type the
//! simulator emits, and the two can be compared series-by-series.
//!
//! The deterministic core is [`SampleSeries`]: tests push hand-made
//! samples and check the bucketed output without threads or `/proc`.

use super::{Counter, Observer};
use dmpi_dcsim::metrics::{IntervalRates, MetricsRecorder, ResourceProfile};
use dmpi_dcsim::ClusterSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One absolute reading of the process and registry, as of `wall_secs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Seconds since the profiler started.
    pub wall_secs: f64,
    /// Cumulative process CPU seconds (user + system).
    pub cpu_secs: f64,
    /// Resident set size, bytes.
    pub rss_bytes: f64,
    /// Cumulative payload bytes sent (from the registry).
    pub net_bytes: f64,
    /// Cumulative spill bytes written (from the registry).
    pub spill_bytes: f64,
}

/// Deterministic sample-to-buckets pipeline.
///
/// Consecutive samples become piecewise-constant rates over the interval
/// between them (cumulative counters are differenced; RSS is carried as a
/// level), integrated into fixed-width buckets by the simulator's
/// recorder. Flows therefore *integrate exactly*: summing a finished
/// series times the bucket width recovers the total counter delta, which
/// the property tests assert against the registry.
#[derive(Debug)]
pub struct SampleSeries {
    recorder: MetricsRecorder,
    last: Option<Sample>,
}

impl SampleSeries {
    /// A series for a `ranks`-thread process, bucketed at `bucket_secs`.
    ///
    /// The process is modelled as a synthetic one-node cluster whose CPU
    /// capacity is the rank count, so `cpu_util_pct = 100` means every
    /// rank thread was on-core for the whole bucket.
    pub fn new(ranks: usize, bucket_secs: f64) -> Self {
        let spec = ClusterSpec {
            nodes: 1,
            cpu_capacity: ranks.max(1) as f64,
            disk_bw: f64::MAX,
            net_bw: f64::MAX,
            mem_bytes: u64::MAX,
        };
        SampleSeries {
            recorder: MetricsRecorder::new(&spec, bucket_secs),
            last: None,
        }
    }

    /// Absorbs the next absolute reading. Out-of-order or zero-width
    /// samples are ignored.
    pub fn push(&mut self, s: Sample) {
        if let Some(prev) = self.last {
            let dt = s.wall_secs - prev.wall_secs;
            if dt > 0.0 {
                let rates = IntervalRates {
                    cpu_cores: ((s.cpu_secs - prev.cpu_secs) / dt).max(0.0),
                    wait_io_cores: 0.0,
                    disk_read_bps: 0.0,
                    disk_write_bps: ((s.spill_bytes - prev.spill_bytes) / dt).max(0.0),
                    net_bps: ((s.net_bytes - prev.net_bytes) / dt).max(0.0),
                    // A level, not a flow: average the endpoints.
                    mem_bytes: (prev.rss_bytes + s.rss_bytes) / 2.0,
                    down_nodes: 0.0,
                };
                self.recorder
                    .add_interval(prev.wall_secs, s.wall_secs, &rates);
            }
        }
        if self.last.is_none_or(|p| s.wall_secs >= p.wall_secs) {
            self.last = Some(s);
        }
    }

    /// Finalizes the bucketed time series.
    pub fn finish(self) -> ResourceProfile {
        self.recorder.finish()
    }
}

/// Integral of a flow series (`value/s` per bucket) over the whole run:
/// `sum(series) * bucket_secs`, in the series' own value unit × seconds.
pub fn integrate(series: &[f64], bucket_secs: f64) -> f64 {
    series.iter().sum::<f64>() * bucket_secs
}

/// Cumulative process CPU seconds (user + system) from `/proc/self/stat`.
/// `None` off Linux or if the file is unreadable.
pub fn process_cpu_secs() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Skip past the parenthesised comm field, which may contain spaces.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut fields = rest.split_ascii_whitespace();
        // After comm, utime is field 14 and stime field 15 of stat overall,
        // i.e. the 12th and 13th of `rest` (state is the 1st).
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        // Linux reports jiffies at USER_HZ, fixed at 100 on every modern
        // kernel ABI regardless of the scheduler tick.
        const CLK_TCK: f64 = 100.0;
        Some((utime + stime) / CLK_TCK)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resident set size in bytes from `/proc/self/statm`. `None` off Linux.
pub fn process_rss_bytes() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: f64 = statm.split_ascii_whitespace().nth(1)?.parse().ok()?;
        // Page size is 4 KiB on every platform this runs on; avoiding a
        // libc dependency is worth the assumption.
        Some(pages * 4096.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Where a profile's process-level series (CPU seconds, RSS) came from.
///
/// On hosts without a readable `/proc/self/stat` / `/proc/self/statm`
/// (non-Linux, locked-down containers) the profiler cannot observe the
/// process, and fabricating zero CPU / zero RSS would silently pollute
/// downstream consumers of the profile with plausible-looking
/// flatlines. The marker makes the degradation explicit: consumers must
/// check it and drop (or label) the process-level series when it is
/// [`Unavailable`](ProfileSource::Unavailable). Registry-driven series
/// (network, spill) are always real — they never touch `/proc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileSource {
    /// `/proc` was readable: CPU and RSS series are real measurements.
    Proc,
    /// `/proc` readings were missing: CPU and RSS series are zeros and
    /// must not be interpreted as measurements.
    Unavailable,
}

impl ProfileSource {
    /// Stable name for artifact JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProfileSource::Proc => "proc",
            ProfileSource::Unavailable => "unavailable",
        }
    }
}

/// Background sampling thread over a live [`Observer`].
///
/// ```no_run
/// use datampi::observe::{Observer, Profiler};
/// use std::time::Duration;
/// let observer = Observer::new();
/// let profiler = Profiler::spawn(observer.clone(), Duration::from_millis(5), 0.025, 2);
/// // ... run the job with `observer` installed ...
/// let profile = profiler.stop();
/// println!("{} buckets of CPU%", profile.cpu_util_pct.len());
/// ```
#[derive(Debug)]
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<(SampleSeries, ProfileSource)>,
}

impl Profiler {
    /// Starts sampling `observer`'s registry plus process CPU/RSS every
    /// `interval`, bucketing at `bucket_secs`, for a `ranks`-thread job.
    pub fn spawn(
        observer: Observer,
        interval: Duration,
        bucket_secs: f64,
        ranks: usize,
    ) -> Profiler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("dmpi-profiler".into())
            .spawn(move || {
                let mut series = SampleSeries::new(ranks, bucket_secs);
                let epoch = Instant::now();
                let cpu0 = process_cpu_secs();
                // One missing reading anywhere downgrades the whole
                // profile: a partially-zero CPU curve is as misleading
                // as a fully-zero one.
                let mut source = match (cpu0, process_rss_bytes()) {
                    (Some(_), Some(_)) => ProfileSource::Proc,
                    _ => ProfileSource::Unavailable,
                };
                let cpu0 = cpu0.unwrap_or(0.0);
                loop {
                    let snap = observer.registry().snapshot();
                    let (cpu, rss) = match (process_cpu_secs(), process_rss_bytes()) {
                        (Some(cpu), Some(rss)) => (cpu - cpu0, rss),
                        _ => {
                            source = ProfileSource::Unavailable;
                            (0.0, 0.0)
                        }
                    };
                    series.push(Sample {
                        wall_secs: epoch.elapsed().as_secs_f64(),
                        cpu_secs: cpu,
                        rss_bytes: rss,
                        net_bytes: snap[Counter::BytesSent] as f64,
                        spill_bytes: snap[Counter::SpillBytes] as f64,
                    });
                    if stop_flag.load(Ordering::Relaxed) {
                        return (series, source);
                    }
                    thread::sleep(interval);
                }
            })
            .expect("spawn profiler thread");
        Profiler { stop, handle }
    }

    /// Takes a final sample, stops the thread, and returns the finished
    /// bucketed time series. Prefer [`stop_with_source`](Self::stop_with_source)
    /// when the result feeds an artifact — it says whether the CPU/RSS
    /// series are real.
    pub fn stop(self) -> ResourceProfile {
        self.stop_with_source().0
    }

    /// [`stop`](Self::stop), plus where the process-level series came
    /// from. When the source is [`ProfileSource::Unavailable`] the
    /// CPU/memory series are zeros and must be labelled or dropped, not
    /// reported as measurements.
    pub fn stop_with_source(self) -> (ResourceProfile, ProfileSource) {
        self.stop.store(true, Ordering::Relaxed);
        let (series, source) = self.handle.join().expect("profiler thread panicked");
        (series.finish(), source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall: f64, cpu: f64, rss: f64, net: f64, spill: f64) -> Sample {
        Sample {
            wall_secs: wall,
            cpu_secs: cpu,
            rss_bytes: rss,
            net_bytes: net,
            spill_bytes: spill,
        }
    }

    #[test]
    fn flows_integrate_exactly() {
        let mut s = SampleSeries::new(2, 0.5);
        s.push(sample(0.0, 0.0, 0.0, 0.0, 0.0));
        s.push(sample(0.7, 0.4, 0.0, 1_000_000.0, 250_000.0));
        s.push(sample(1.8, 1.0, 0.0, 4_000_000.0, 250_000.0));
        let p = s.finish();
        let net_bytes = integrate(&p.net_mb_s, p.bucket_secs) * (1 << 20) as f64;
        assert!(
            (net_bytes - 4_000_000.0).abs() < 1.0,
            "net integral {net_bytes} != 4e6"
        );
        let spill = integrate(&p.disk_write_mb_s, p.bucket_secs) * (1 << 20) as f64;
        assert!((spill - 250_000.0).abs() < 1.0);
        // CPU: 1.0 cpu-sec over 1.8 wall-sec on capacity 2 → the integral
        // of util% recovers the cpu seconds.
        let cpu_secs = integrate(&p.cpu_util_pct, p.bucket_secs) / 100.0 * 2.0;
        assert!((cpu_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_tracks_levels() {
        let mut s = SampleSeries::new(1, 1.0);
        let gb = (1u64 << 30) as f64;
        s.push(sample(0.0, 0.0, 2.0 * gb, 0.0, 0.0));
        s.push(sample(1.0, 0.0, 2.0 * gb, 0.0, 0.0));
        let p = s.finish();
        assert_eq!(p.len(), 1);
        assert!((p.mem_gb[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_and_duplicate_samples_ignored() {
        let mut s = SampleSeries::new(1, 1.0);
        s.push(sample(1.0, 0.1, 0.0, 0.0, 0.0));
        s.push(sample(0.5, 0.0, 0.0, 0.0, 0.0)); // backwards: dropped
        s.push(sample(1.0, 0.1, 0.0, 0.0, 0.0)); // zero-width: dropped
        s.push(sample(2.0, 0.6, 0.0, 0.0, 0.0));
        let p = s.finish();
        let cpu_secs = integrate(&p.cpu_util_pct, p.bucket_secs) / 100.0;
        assert!((cpu_secs - 0.5).abs() < 1e-9);
    }

    #[test]
    fn profiler_marks_its_source_explicitly() {
        let obs = Observer::new();
        let p = Profiler::spawn(obs, Duration::from_millis(1), 0.005, 1);
        thread::sleep(Duration::from_millis(5));
        let (_, source) = p.stop_with_source();
        if cfg!(target_os = "linux") {
            assert_eq!(source, ProfileSource::Proc);
        } else {
            // Off Linux /proc never resolves: the marker, not zeros,
            // reports the degradation.
            assert_eq!(source, ProfileSource::Unavailable);
        }
        assert_eq!(ProfileSource::Unavailable.name(), "unavailable");
        assert_eq!(ProfileSource::Proc.name(), "proc");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_readers_return_plausible_values() {
        let cpu = process_cpu_secs().expect("/proc/self/stat readable");
        assert!(cpu >= 0.0);
        let rss = process_rss_bytes().expect("/proc/self/statm readable");
        assert!(rss > 0.0, "a running test has resident memory");
    }
}
