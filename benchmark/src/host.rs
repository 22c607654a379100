//! What the benchmark reads from the host: process CPU time and peak
//! residency from `/proc/self`, and the provenance record every result
//! file carries.

use std::process::Command;

use crate::json::Value;

/// Linux reports `/proc/self/stat` times in clock ticks of 1/100 s on
/// every supported architecture (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads,
/// including threads that have already exited. Resolution is one tick
/// (10 ms). Zero where `/proc` is unavailable.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MB (`VmHWM`), since the
/// process started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:") / 1024.0
}

/// Resets the kernel's peak-RSS mark to the current RSS, so that the
/// next [`peak_rss_mb`] reads the peak of one trial and not of the whole
/// process. Where the kernel refuses, the mark simply keeps rising and
/// every trial reads the peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn proc_kb(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and provenance record: enough to tell, from a result file
/// alone, whether two sets of numbers are comparable.
pub fn provenance() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model)),
        (
            "mem_total_mb",
            Value::Num(proc_kb("/proc/meminfo", "MemTotal:") / 1024.0),
        ),
        ("kernel", Value::str(kernel)),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        // A driver checkout is not a git repository; "unknown" is the
        // honest record there.
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Three ticks of spinning put the counter past zero on any host.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 30 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.5);
        reset_peak_rss();
        assert!(
            peak_rss_mb() > 0.5,
            "a reset mark still covers the resident pages"
        );
        assert!(nproc() >= 1);
        assert!(provenance().get("kernel").is_some());
    }
}
