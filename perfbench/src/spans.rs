//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions; the program itself is not
//! instrumented. Each span has a name, start, end and parent. A root
//! span (one job, one set-up, one probe) and everything under it is
//! folded into per-name totals when the root closes: self time is the
//! span minus its children. The first [`KEEP_SPANS`] spans stay in
//! memory and are written out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept in memory for the span file; later trees are folded
/// into the totals and then dropped, which bounds memory.
const KEEP_SPANS: usize = 200_000;
/// Per-span durations kept for percentiles of [`SAMPLED`].
const KEEP_SAMPLES: usize = 2_000_000;
/// The span whose duration distribution is reported as percentiles.
pub const SAMPLED: &str = "sim.instant";
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start: u64,
    end: u64,
}

/// Totals of one span name over every folded tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the children's, ns.
    pub self_ns: u64,
}

/// Records spans when on; every method is a no-op when off, so set-up
/// and compile code can run the same calls in untimed and traced runs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    totals: BTreeMap<&'static str, Totals>,
    samples: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Is this tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started (0 when off).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.push(name, start, 0);
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// Close the innermost open span; closing a root folds its tree.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("close matches an open") as usize;
        self.spans[i].end = end;
        if self.open.is_empty() {
            self.fold(i);
        }
    }

    /// Record an already-closed span under the innermost open one.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        if self.on {
            self.push(name, start, end);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
    }

    /// Fold the tree rooted at `root` (the last contiguous run of
    /// spans) into the totals.
    fn fold(&mut self, root: usize) {
        let tree = &self.spans[root..];
        let children = child_ns(tree, root);
        for (s, child) in tree.iter().zip(&children) {
            let dur = s.end.saturating_sub(s.start);
            let t = self.totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*child);
            if s.name == SAMPLED && self.samples.len() < KEEP_SAMPLES {
                self.samples.push(dur.min(u64::from(u32::MAX)) as u32);
            }
        }
        if self.spans.len() > KEEP_SPANS {
            self.dropped += (self.spans.len() - root) as u64;
            self.spans.truncate(root);
        }
    }

    /// Totals of one span name (zero when it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of one span name, microseconds (0 when absent).
    pub fn mean_us(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64 / 1e3
        }
    }

    /// Durations of [`SAMPLED`] spans, ascending, ns.
    pub fn sampled_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|d| f64::from(*d)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Write the kept spans as tab-separated lines: id, parent, name,
    /// start_ns, end_ns, self_ns. Returns how many trees' spans were
    /// folded without being kept.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<u64> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let children = child_ns(&self.spans, 0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, child)) in self.spans.iter().zip(&children).enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            let dur = s.end.saturating_sub(s.start);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                dur.saturating_sub(*child)
            )?;
        }
        out.flush()?;
        Ok(self.dropped)
    }
}

/// Summed child durations per span of `spans`, whose first element
/// has absolute index `base`.
fn child_ns(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT && s.parent as usize >= base {
            children[s.parent as usize - base] += s.end.saturating_sub(s.start);
        }
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.open("job");
        let s = t.now();
        t.leaf("a", s, s + 100);
        t.leaf("b", s + 100, s + 300);
        t.close();
        let job = t.totals("job");
        assert_eq!(job.count, 1);
        assert_eq!(t.totals("a").total_ns, 100);
        assert_eq!(t.totals("b").self_ns, 200);
        assert_eq!(job.self_ns, job.total_ns.saturating_sub(300));
    }

    #[test]
    fn nested_spans_attribute_to_their_parent() {
        let mut t = Tracer::new();
        t.open("job");
        t.span("outer", || ());
        t.close();
        assert_eq!(t.totals("outer").count, 1);
        assert!(t.totals("job").total_ns >= t.totals("outer").total_ns);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("job");
        t.leaf("a", 0, 10);
        t.close();
        assert_eq!(t.totals("job"), Totals::default());
        assert_eq!(t.now(), 0);
    }
}
