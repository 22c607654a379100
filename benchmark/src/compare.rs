//! `compare <a.json> <b.json>`: per workload and end-to-end metric, both
//! values, the ratio with its base, the bound from `BENCHMARK.json`, the
//! spread of the trials behind them and a verdict. The tool for "two sets of the same commit agree" and
//! for every later change that claims a gain or must show no regression.

use crate::json::Value;
use crate::stats::iqr_share;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a difference
    /// of the bound's size cannot be told from noise: neither "changed"
    /// nor "unchanged" may be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reported value and the
/// inter-quartile range of its per-trial samples as a share of their
/// median.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction; negative when `b` is better.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `regressed` when `b` is worse than `a` by more than the bound and by
/// more than either side's spread; otherwise `unresolved` when a spread
/// exceeds the bound; otherwise `ok`.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worsening(a.value, b.value, higher_is_better);
    let spread = a.spread.max(b.spread);
    if worse_by > bound && worse_by > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One workload's run as read back from a result file.
struct Run<'a> {
    doc: &'a Value,
}

impl Run<'_> {
    fn side(&self, metric: &str) -> Option<Side> {
        let m = self.doc.get("metrics")?.get(metric)?;
        let samples: Vec<f64> = m
            .get("samples")
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        Some(Side {
            value: m.get("value")?.as_f64()?,
            spread: iqr_share(&samples),
        })
    }

    fn number(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }
}

fn end_to_end_runs(doc: &Value) -> Vec<(&str, Run<'_>)> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, Run { doc: r })))
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison table and returns how many rows regressed.
pub fn compare(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<usize, String> {
    let (a_doc, b_doc, bench) = (load(a_path)?, load(b_path)?, load(benchmark_path)?);
    let (a_runs, b_runs) = (end_to_end_runs(&a_doc), end_to_end_runs(&b_doc));
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{benchmark_path}: no end_to_end list"))?;
    for (label, doc) in [("a", &a_doc), ("b", &b_doc)] {
        let host = |key: &str| {
            doc.get("host")
                .and_then(|h| h.get(key))
                .cloned()
                .unwrap_or(Value::Null)
        };
        println!(
            "{label}: commit {} nproc {} rustc {}",
            host("git_commit").to_json(),
            host("nproc").to_json(),
            host("rustc").to_json()
        );
    }
    println!(
        "{:<22} {:<19} {:>12} {:>12} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound", "spread"
    );
    let mut regressed = 0;
    let mut rows = 0;
    for (workload, a) in &a_runs {
        let Some((_, b)) = b_runs.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
            let name = field("name");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(sa), Some(sb)) = (a.side(name), b.side(name)) else {
                return Err(format!(
                    "{workload}: metric {name} missing from a result file"
                ));
            };
            let v = verdict(sa, sb, field("better") == "higher", bound);
            let ratio = if sa.value == 0.0 {
                0.0
            } else {
                sb.value / sa.value
            };
            println!(
                "{workload:<22} {name:<19} {:>12.4} {:>12.4} {ratio:>9.3} {:>5.0}% {:>6.1}%  {}",
                sa.value,
                sb.value,
                bound * 100.0,
                sa.spread.max(sb.spread) * 100.0,
                v.label()
            );
            regressed += usize::from(v == Verdict::Regressed);
            rows += 1;
        }
        // Integrity is not a matter of degree: any mismatch in `b`, or a
        // failure share above `a`'s, is a regression whatever the times.
        for (name, bad) in [
            (
                "output_mismatch_frac",
                b.number("output_mismatch_frac") > 0.0,
            ),
            (
                "failed_frac",
                b.number("failed_frac") > a.number("failed_frac"),
            ),
        ] {
            let v = if bad { Verdict::Regressed } else { Verdict::Ok };
            println!(
                "{workload:<22} {name:<19} {:>12.4} {:>12.4} {:>9} {:>6} {:>7}  {}",
                a.number(name),
                b.number(name),
                "-",
                "0",
                "-",
                v.label()
            );
            regressed += usize::from(bad);
        }
    }
    if rows == 0 {
        return Err("the two files share no end-to-end workload run".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn the_three_verdicts() {
        // Within the bound, tight spread.
        assert_eq!(
            verdict(side(1.0, 0.02), side(1.05, 0.03), false, 0.10),
            Verdict::Ok
        );
        // Worse by more than the bound and more than the spread.
        assert_eq!(
            verdict(side(1.0, 0.02), side(1.2, 0.03), false, 0.10),
            Verdict::Regressed
        );
        // Spread wider than the bound: a 5% shift cannot be resolved.
        assert_eq!(
            verdict(side(1.0, 0.15), side(1.05, 0.03), false, 0.10),
            Verdict::Unresolved
        );
        // Worse by more than the bound, but inside the spread.
        assert_eq!(
            verdict(side(1.0, 0.30), side(1.2, 0.03), false, 0.10),
            Verdict::Unresolved
        );
        // Far outside even a wide spread.
        assert_eq!(
            verdict(side(1.0, 0.30), side(2.0, 0.03), false, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        // Throughput: lower is worse.
        assert_eq!(
            verdict(side(100.0, 0.0), side(80.0, 0.0), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(side(100.0, 0.0), side(130.0, 0.0), true, 0.10),
            Verdict::Ok
        );
        // Time: an improvement is never a regression.
        assert_eq!(
            verdict(side(1.0, 0.0), side(0.5, 0.0), false, 0.10),
            Verdict::Ok
        );
        assert!((worsening(2.0, 3.0, false) - 0.5).abs() < 1e-12);
        assert!((worsening(2.0, 3.0, true) + 0.5).abs() < 1e-12);
        assert_eq!(worsening(0.0, 3.0, false), 0.0);
    }
}
