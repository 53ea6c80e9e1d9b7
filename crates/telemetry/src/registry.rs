//! The [`Registry`] metrics live in and the plain-data [`Snapshot`]
//! it renders — the one metrics vocabulary shared by the live `node`
//! binary, the gateway `stats` wire message, and the bench `report`
//! binary.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Owns every named metric. Lookup/creation takes a short mutex on a
/// name map (cold path — instrumented code mints handles once);
/// recording into a resolved metric is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fresh registry behind the `Arc` recorders hold.
    pub fn shared() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// A point-in-time view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                // lint: allow(unwrap) — poisoned only by a panic while
                // held; `get_or_create` and this read do not panic.
                .expect("registry counter lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                // lint: allow(unwrap) — as for the counters.
                .expect("registry gauge lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                // lint: allow(unwrap) — as for the counters.
                .expect("registry histogram lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

fn get_or_create<M: Default>(map: &Mutex<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    // lint: allow(unwrap) — poisoned only by a panic while held, and a
    // lookup, `M::default()` or an insert under it does not panic.
    let mut map = map.lock().expect("registry name map lock");
    match map.get(name) {
        Some(m) => Arc::clone(m),
        None => {
            let m = Arc::new(M::default());
            map.insert(name.to_string(), Arc::clone(&m));
            m
        }
    }
}

/// Plain-data point-in-time view of a [`Registry`]: what the node
/// binary prints periodically, the gateway ships over the `stats`
/// wire message (as JSON), and the bench `report` binary renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// (name, value), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// (name, summary), sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Multi-line human-readable rendering: counters and gauges in
    /// aligned columns, histograms as count/p50/p95/p99/max rows.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("counters\n");
            let width = self
                .counters
                .iter()
                .chain(self.gauges.iter())
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<width$}  {v}  (gauge)\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms               count      p50      p95      p99      max\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<22} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
                    h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }

    /// Compact one-line rendering for periodic live printing: wave
    /// phase p50/p95s and chain counters.
    pub fn render_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (k, h) in &self.histograms {
            if let Some(stage) = k.strip_prefix("wave.") {
                let unit = if stage.ends_with("_us") { "us" } else { "" };
                parts.push(format!("{stage} p50/p95={}{unit}/{}{unit}", h.p50, h.p95));
            }
        }
        for key in [
            "chain.waves",
            "chain.blocks",
            "chain.txs",
            "chain.p2p_bytes",
        ] {
            if let Some(v) = self.counter(key) {
                parts.push(format!("{}={v}", key.trim_start_matches("chain.")));
            }
        }
        parts.join(" ")
    }

    /// JSON rendering (hand-rolled, no serializer dependency): one
    /// object with `counters`, `gauges` and `histograms` keys,
    /// machine-diffable and stable-ordered.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_pairs(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_pairs(&mut out, &self.gauges, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"histograms\":{");
        push_pairs(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            ));
        });
        out.push_str("}}");
        out
    }
}

fn lookup<'a, V>(pairs: &'a [(String, V)], name: &str) -> Option<&'a V> {
    pairs
        .binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &pairs[i].1)
}

fn push_pairs<V>(out: &mut String, pairs: &[(String, V)], render: impl Fn(&mut String, &V)) {
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        render(out, v);
    }
}

/// JSON string literal with the escapes the grammar requires.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lookup_and_renderings() {
        let reg = Registry::shared();
        reg.counter("chain.blocks").add(4);
        reg.counter("chain.waves").add(2);
        reg.gauge("gateway.queue_high_water").set_max(7);
        reg.histogram("wave.total_us").record(100);
        reg.histogram("wave.total_us").record(300);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("chain.blocks"), Some(4));
        assert_eq!(snap.gauge("gateway.queue_high_water"), Some(7));
        assert_eq!(snap.histogram("wave.total_us").map(|h| h.count), Some(2));
        assert!(snap.counter("missing").is_none());
        assert!(!snap.is_empty());

        let text = snap.render_text();
        assert!(text.contains("chain.blocks"));
        assert!(text.contains("wave.total_us"));

        let line = snap.render_line();
        assert!(line.contains("total_us p50/p95="));
        assert!(line.contains("blocks=4"));

        let json = snap.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"chain.blocks\":4"));
    }

    #[test]
    fn same_name_resolves_to_the_same_metric() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.counter("x").add(1);
        assert_eq!(reg.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn json_escapes_are_valid() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.render_text(), "");
        assert_eq!(
            snap.render_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
