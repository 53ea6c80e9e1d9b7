//! Spans recorded by the benchmark's own code at the boundaries it
//! crosses: `{name, start_ns, end_ns, parent, ticket}`, held in memory
//! and written out once at exit. A span's self time is its duration
//! minus the part of it that its children cover. Spans *inside* the
//! program are a later change (ROADMAP item 5); these bracket the calls
//! into it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Boundary crossed, e.g. `submit`, `wait`, `bx.put_delta`.
    pub name: String,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Gateway ticket shared by the spans of one request.
    pub ticket: Option<u64>,
}

/// The in-memory span log of one run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn add(
        &mut self,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        ticket: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            ticket,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.add(name, (start, end), parent, None);
        (out, (end - start) as f64 / 1e9)
    }

    /// Opens a span to be closed with [`Trace::close`] (for a parent
    /// whose children are recorded while it is open).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.add(name, (now, now), parent, None)
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (lo, hi) in kids.iter() {
                    if *hi > reach {
                        covered += hi - (*lo).max(reach);
                        reach = *hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Writes the spans (with their self times) as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let self_times = self.self_times();
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{},\"ticket\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.ticket),
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.add("op", (0, 100), None, Some(1));
        t.add("submit", (10, 30), Some(root), Some(1));
        let wait = t.add("wait", (25, 70), Some(root), Some(1)); // overlaps submit by 5
        t.add("inner", (30, 40), Some(wait), Some(1));
        t.add("late", (90, 120), Some(root), Some(1)); // clipped to the parent
        assert_eq!(t.self_times(), vec![100 - 60 - 10, 20, 35, 10, 30]);
    }
}
