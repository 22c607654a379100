//! The traced run's two records: spans around every call the benchmark
//! makes into a layer, and the per-layer metric values derived from
//! them. Both live in memory until the run ends; the spans are then
//! written to `benchmark/out/trace-<workload>.json`.
//!
//! The spans are the benchmark's own: they wrap calls made from this
//! package into the public API of each layer, one stage at a time.
//! Spans inside the program are a later change (ROADMAP item 3).

use std::time::Instant;

use crate::json::Value;
use crate::spec::PER_LAYER;

struct Span {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log on one monotonic clock. A span's id is its
/// index; `parent` is the id of the span that caused it.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        (span.end_us - span.start_us) / 1e6
    }

    /// Records a span from instants taken elsewhere (client threads).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", Value::str(s.name.as_str())),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-layer metric values by name. Names are checked against
/// [`PER_LAYER`] so a typo cannot silently report a zero.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// The stage times that lie on the traced job's own path, in
    /// pipeline order: the rows of the budget table and the terms of
    /// `runtime.stage_sum_s`.
    pub on_path: Vec<&'static str>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value set for `name`, zero if the layer was not exercised.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_with_parents() {
        let mut spans = Spans::new();
        let root = spans.open("root", None);
        let ((), child_s) = spans.time("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_s = spans.close(root);
        assert!(child_s >= 0.002 && root_s >= child_s);
        let json = spans.to_json();
        let items = json.as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Value::Null));
        assert_eq!(items[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(items[1].get("name").unwrap().as_str(), Some("child"));
    }

    #[test]
    fn layers_default_to_zero_and_overwrite() {
        let mut layers = Layers::default();
        assert_eq!(layers.get("store.spills"), 0.0);
        layers.set("store.spills", 3.0);
        layers.set("store.spills", 4.0);
        assert_eq!(layers.get("store.spills"), 4.0);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn layers_reject_unknown_names() {
        Layers::default().set("store.typo", 1.0);
    }
}
