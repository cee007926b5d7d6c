//! In-memory spans recorded around the calls the traced run makes into each
//! layer. Spans are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Handle to an open span: children and counts attach through it.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef {
    id: usize,
    trace: usize,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    traces: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), traces: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, trace: usize) -> SpanRef {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            trace,
            start_ns,
            end_ns: start_ns,
            counts: vec![],
        });
        SpanRef { id, trace }
    }

    fn close(&mut self, span: SpanRef) {
        self.spans[span.id].end_ns = self.now_ns();
    }

    /// Runs `f` as the root span of a new trace.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self, SpanRef) -> R) -> R {
        self.traces += 1;
        let span = self.open(name, None, self.traces);
        let out = f(self, span);
        self.close(span);
        out
    }

    /// Runs `f` as a child span of `parent`.
    pub fn child<R>(
        &mut self,
        parent: SpanRef,
        name: &'static str,
        f: impl FnOnce(&mut Self, SpanRef) -> R,
    ) -> R {
        let span = self.open(name, Some(parent.id), parent.trace);
        let out = f(self, span);
        self.close(span);
        out
    }

    /// Records a child span of `parent` whose interval was measured by the
    /// program itself (an offset from the parent's start and a length).
    pub fn measured_child(
        &mut self,
        parent: SpanRef,
        name: &'static str,
        offset_s: f64,
        len_s: f64,
    ) {
        let start_ns = self.spans[parent.id].start_ns + (offset_s * 1e9) as u64;
        let end_ns = start_ns + (len_s * 1e9) as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: Some(parent.id),
            trace: parent.trace,
            start_ns,
            end_ns,
            counts: vec![],
        });
    }

    pub fn count(&mut self, span: SpanRef, key: &'static str, value: f64) {
        self.spans[span.id].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the part of it that the span's children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self times of every span named `name`, in `scale` units per second.
    pub fn self_samples(&self, name: &str, scale: f64) -> Samples {
        self.filtered_self_samples(name, scale, |_| true)
    }

    pub fn filtered_self_samples(
        &self,
        name: &str,
        scale: f64,
        keep: impl Fn(&Span) -> bool,
    ) -> Samples {
        let self_ns = self.self_times_ns();
        let mut out = Samples::default();
        for (s, &t) in self.spans.iter().zip(&self_ns) {
            if s.name == name && keep(s) {
                out.push(t as f64 * 1e-9 * scale);
            }
        }
        out
    }

    /// Full durations of every span named `name`, in `scale` units per second.
    pub fn durations(&self, name: &str, scale: f64, keep: impl Fn(&Span) -> bool) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name && keep(s)) {
            out.push(s.duration_ns() as f64 * 1e-9 * scale);
        }
        out
    }

    /// The last value of count `key` recorded on a span named `name`.
    pub fn last_count(&self, name: &str, key: &str) -> Option<f64> {
        self.spans.iter().rev().filter(|s| s.name == name).find_map(|s| s.count(key))
    }

    /// Per span name: spans, total and median self time, and the last value of
    /// every count recorded on it.
    pub fn summary(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut by_name: BTreeMap<&str, (Samples, BTreeMap<&str, f64>)> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&self_ns) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(t as f64 * 1e-6);
            for &(k, v) in &s.counts {
                entry.1.insert(k, v);
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12}  counts",
            "span", "spans", "self_ms_sum", "self_ms_p50"
        );
        for (name, (samples, counts)) in &by_name {
            let counts: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12.3} {:>12.4}  {}",
                name,
                samples.len(),
                samples.sum(),
                samples.median().unwrap_or(0.0),
                counts.join(" ")
            );
        }
        out
    }

    /// All spans as JSON lines (name, ids, times, counts).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> =
                s.counts.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"span\": {}, \"parent\": {}, \"trace\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
                s.name,
                s.id,
                parent,
                s.trace,
                s.start_ns,
                s.end_ns,
                counts.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::default();
        t.root("root", |t, root| {
            t.measured_child(root, "a", 0.0, 0.0);
            t.child(root, "b", |_, _| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let self_ns = t.self_times_ns();
        let root = &t.spans()[0];
        let b = &t.spans()[2];
        assert_eq!(self_ns[0], root.duration_ns() - b.duration_ns());
        assert_eq!(self_ns[2], b.duration_ns());
        assert!(t.spans().iter().all(|s| s.trace == 1));
    }
}
