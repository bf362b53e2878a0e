//! Benchmark-side spans around every call into a layer's public functions.
//!
//! A traced run keeps its spans in memory and writes them out when the run
//! ends; an untraced run's [`Tracer`] records nothing. A span's self time
//! is its duration minus the time its direct children cover (children are
//! strictly nested, so they never overlap one another).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `scenario.parse`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or unit.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Records spans for one thread (each client thread owns one; they share
/// an epoch so their spans merge into one timeline).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let duration = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_s += duration as f64 / 1e9;
            t.self_s += duration.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(outer.total_s >= inner.total_s + 0.004);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut merged = Tracer::new(true, Instant::now());
        merged.span("a", 0, |_| ());
        merged.absorb(t);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert!(merged.to_json().contains("\"name\":\"inner\""));
    }
}
