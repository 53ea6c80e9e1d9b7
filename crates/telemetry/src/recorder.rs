//! The [`Recorder`] handle instrumented code holds, plus the
//! pre-resolved per-metric handles and the [`StageTimer`] used to
//! stamp pipeline phases.
//!
//! A `Recorder` is cheap to clone and cheap to carry: with no sink
//! installed every operation is a `None` check and nothing else, so
//! instrumentation can live permanently in hot paths. Installing a
//! [`Registry`] flips every handle minted afterwards to live metrics.

use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::Registry;

/// The handle instrumented layers hold. Default (and
/// [`Recorder::disabled`]) is a no-op; [`Recorder::new`] records into
/// the given registry.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Recorder({})",
            if self.sink.is_some() { "on" } else { "off" }
        )
    }
}

impl Recorder {
    /// A recorder wired to `registry`.
    pub fn new(registry: &Arc<Registry>) -> Self {
        Recorder {
            sink: Some(Arc::clone(registry)),
        }
    }

    /// The permanent no-op recorder.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// True when a sink is installed.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The installed registry, if any (for rendering snapshots).
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.sink.as_ref()
    }

    /// Pre-resolves a counter handle (hot paths mint once, then add).
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(self.sink.as_ref().map(|r| r.counter(name)))
    }

    /// Pre-resolves a gauge handle.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle(self.sink.as_ref().map(|r| r.gauge(name)))
    }

    /// Pre-resolves a histogram handle.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.sink.as_ref().map(|r| r.histogram(name)))
    }

    /// One-shot counter add (cold paths; hot paths mint a handle).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.sink {
            r.counter(name).add(n);
        }
    }

    /// One-shot histogram record.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(r) = &self.sink {
            r.histogram(name).record(v);
        }
    }

    /// One-shot gauge set.
    pub fn set(&self, name: &str, v: u64) {
        if let Some(r) = &self.sink {
            r.gauge(name).set(v);
        }
    }

    /// One-shot gauge high-water raise.
    pub fn set_max(&self, name: &str, v: u64) {
        if let Some(r) = &self.sink {
            r.gauge(name).set_max(v);
        }
    }
}

/// Pre-resolved counter (no-op when minted from a disabled recorder).
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// True when backed by a live metric.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }
}

/// Pre-resolved gauge.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// The permanent no-op handle.
    pub fn disabled() -> Self {
        GaugeHandle(None)
    }

    /// True when backed by a live metric.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Raises to `v` if larger.
    pub fn set_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.set_max(v);
        }
    }
}

/// Pre-resolved histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// True when backed by a live metric.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

/// Stamps the wall-clock phases of one pipeline pass into
/// `{prefix}.{stage}_us` histograms plus a `{prefix_total}_us` total.
///
/// Stage durations are disjoint `[last, now)` intervals measured from
/// one start instant, and the total spans the same instant, so for any
/// single pass `Σ floor(stage_µs) ≤ floor(total_µs)` — the
/// sum-consistency the gateway telemetry test pins down. Disabled
/// recorders skip the clock reads entirely.
#[derive(Debug)]
pub struct StageTimer {
    clock: Option<(Instant, Instant)>, // (start, last stage boundary)
    recorder: Recorder,
    prefix: &'static str,
}

impl StageTimer {
    /// Starts timing one pass; no-op when `recorder` is disabled.
    pub fn start(recorder: &Recorder, prefix: &'static str) -> Self {
        StageTimer {
            clock: recorder.is_enabled().then(|| {
                let now = Instant::now();
                (now, now)
            }),
            recorder: recorder.clone(),
            prefix,
        }
    }

    /// Ends the current stage: records the time since the previous
    /// boundary into `{prefix}.{stage}_us`.
    pub fn stage(&mut self, stage: &str) {
        if let Some((_, last)) = &mut self.clock {
            let now = Instant::now();
            let us = now.duration_since(*last).as_micros() as u64;
            *last = now;
            self.recorder
                .record(&format!("{}.{stage}_us", self.prefix), us);
        }
    }

    /// Finishes the pass: records the time since `start` into
    /// `{prefix}.{total}_us`. Un-stamped trailing time counts toward
    /// the total only.
    pub fn finish(self, total: &str) {
        if let Some((start, _)) = self.clock {
            let us = start.elapsed().as_micros() as u64;
            self.recorder
                .record(&format!("{}.{total}_us", self.prefix), us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.add("x", 1);
        r.record("y", 1);
        r.set("z", 1);
        let c = r.counter("x");
        assert!(!c.is_enabled());
        c.add(5);
        let mut t = StageTimer::start(&r, "wave.phase");
        t.stage("screen");
        t.finish("total");
        assert!(r.registry().is_none());
    }

    #[test]
    fn stage_timer_sums_are_bounded_by_total() {
        let reg = Registry::shared();
        let r = Recorder::new(&reg);
        for _ in 0..50 {
            let mut t = StageTimer::start(&r, "pass");
            t.stage("a");
            std::hint::black_box((0..100).sum::<u64>());
            t.stage("b");
            t.finish("total");
        }
        let snap = reg.snapshot();
        let total = snap.histogram("pass.total_us").expect("total recorded");
        let a = snap.histogram("pass.a_us").expect("stage a recorded");
        let b = snap.histogram("pass.b_us").expect("stage b recorded");
        assert_eq!(total.count, 50);
        assert_eq!(a.count, 50);
        assert_eq!(b.count, 50);
        assert!(
            a.sum + b.sum <= total.sum,
            "stage sums ({} + {}) must not exceed the total ({})",
            a.sum,
            b.sum,
            total.sum
        );
    }

    #[test]
    fn enabled_recorder_reaches_the_registry() {
        let reg = Registry::shared();
        let r = Recorder::new(&reg);
        r.counter("hits").add(3);
        r.add("hits", 2);
        r.histogram("lat_us").record(7);
        r.gauge("depth").set_max(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(5));
        assert_eq!(snap.histogram("lat_us").map(|h| h.count), Some(1));
        assert_eq!(snap.gauge("depth"), Some(9));
    }
}
