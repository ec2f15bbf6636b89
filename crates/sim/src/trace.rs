//! Signal-trace recording: a ring-buffered per-instant event log with
//! a VCD-style text dump.
//!
//! Both runners ([`crate::runner::InterpRunner`] and
//! [`crate::runner::AsyncRunner`]) can record every signal occurrence
//! — external stimuli and design emissions alike — into a [`Trace`].
//! The trace serves two consumers:
//!
//! * **online monitors** (`ecl-observe`): the per-instant present sets
//!   are exactly what a monitor EFSM steps on, so a stored trace can be
//!   replayed against a monitor after the fact with identical verdicts;
//! * **offline inspection**: [`Trace::to_vcd`] renders the retained
//!   window as a Value Change Dump (pulse wires for pure signals,
//!   integer vectors for valued ones) for waveform viewers and golden
//!   tests.
//!
//! Events store interned [`SigId`]s, not names: the recording hot path
//! never touches strings, and names are resolved against the trace's
//! shared [`SigTable`] only at dump/report time.
//!
//! The buffer is a ring over *instants*: with capacity `N`, only the
//! last `N` instants are retained and [`Trace::dropped`] counts the
//! evicted ones. Capacity 0 means unbounded.

use ecl_telemetry::metrics as tm;
use efsm::{BitSet, SigId, SigTable};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One signal occurrence inside an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned global signal id (resolve via [`Trace::table`]).
    pub sig: SigId,
    /// Carried value for valued signals (`None` for pure presence).
    pub value: Option<i64>,
    /// `true` for environment stimuli, `false` for design emissions.
    pub external: bool,
}

/// All events of one environment instant: a view into a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord<'a> {
    /// Environment instant number.
    pub instant: u64,
    /// Events in occurrence order (externals first).
    pub events: &'a [TraceEvent],
}

impl TraceRecord<'_> {
    /// The distinct present signal ids, in first-occurrence order.
    pub fn present_ids(&self) -> Vec<SigId> {
        let mut out: Vec<SigId> = Vec::new();
        for e in self.events {
            if !out.contains(&e.sig) {
                out.push(e.sig);
            }
        }
        out
    }

    /// Insert every present id into `set` (not cleared first).
    pub fn present_into(&self, set: &mut BitSet) {
        for e in self.events {
            set.insert(e.sig.bit());
        }
    }
}

/// A ring-buffered recording of per-instant signal events, flat: one
/// event buffer holding every retained instant's events back to back
/// (then the open instant's), and one index of `(instant, end offset)`
/// per closed instant. Recording appends to both and never allocates
/// once they reach their working size; a clone is two copies.
///
/// Eviction only advances `first`; once the evicted prefix is as long
/// as the window, one compaction moves the window to the front, so
/// each instant is moved at most once per capacity's worth of
/// instants.
#[derive(Debug, Default)]
pub struct Trace {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Per closed instant, oldest first: its number and the offset in
    /// `events` where its events end (the next one's start).
    index: Vec<(u64, usize)>,
    /// Entries of `index` before this one are evicted.
    first: usize,
    /// The open instant, whose events follow the last closed one's.
    open: Option<u64>,
    table: Arc<SigTable>,
    /// Instants evicted from the ring (recorded then dropped).
    pub dropped: u64,
}

impl Clone for Trace {
    fn clone(&self) -> Trace {
        Trace {
            capacity: self.capacity,
            events: self.events.clone(),
            index: self.index.clone(),
            first: self.first,
            open: self.open,
            table: Arc::clone(&self.table),
            dropped: self.dropped,
        }
    }

    /// Copies into this ring's own two buffers: a restore allocates
    /// nothing once they have grown to the checkpoint's size.
    fn clone_from(&mut self, source: &Trace) {
        self.capacity = source.capacity;
        self.events.clone_from(&source.events);
        self.index.clone_from(&source.index);
        self.first = source.first;
        self.open = source.open;
        if !Arc::ptr_eq(&self.table, &source.table) {
            self.table = Arc::clone(&source.table);
        }
        self.dropped = source.dropped;
    }
}

impl Trace {
    /// A trace retaining the last `capacity` instants (0 = unbounded),
    /// with its own (initially empty) signal table — names are interned
    /// on first [`Trace::record`].
    pub fn new(capacity: usize) -> Trace {
        Trace::with_table(capacity, Arc::default())
    }

    /// A trace sharing an existing signal table (the runner path: ids
    /// recorded via [`Trace::record_id`] must come from `table`). A
    /// bounded ring reserves its whole index up front (the window plus
    /// an evicted prefix as long), so it never grows.
    pub fn with_table(capacity: usize, table: Arc<SigTable>) -> Trace {
        Trace {
            capacity,
            index: Vec::with_capacity(2 * capacity),
            table,
            ..Trace::default()
        }
    }

    /// The signal table the recorded ids resolve against.
    pub fn table(&self) -> &SigTable {
        &self.table
    }

    /// Open the record for environment instant `instant`. Implicitly
    /// closes a still-open record (runners call this once per instant).
    pub fn begin_instant(&mut self, instant: u64) {
        self.end_instant();
        self.open = Some(instant);
    }

    /// Append one event by *name* to the open record, interning the
    /// name into the trace's own table. Compatibility/test entry point;
    /// runners record pre-interned ids via [`Trace::record_id`]. A
    /// no-op when no record is open (recording disabled mid-run is not
    /// an error).
    pub fn record(&mut self, name: &str, value: Option<i64>, external: bool) {
        if self.open.is_none() {
            return;
        }
        let sig = match self.table.lookup(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.table).intern(name),
        };
        self.record_id(sig, value, external);
    }

    /// Append one event to the open record. A no-op when no record is
    /// open.
    pub fn record_id(&mut self, sig: SigId, value: Option<i64>, external: bool) {
        if self.open.is_some() {
            self.events.push(TraceEvent {
                sig,
                value,
                external,
            });
        }
    }

    /// Close the open record into the ring, evicting the oldest instant
    /// when over capacity.
    pub fn end_instant(&mut self) {
        let Some(instant) = self.open.take() else {
            return;
        };
        self.index.push((instant, self.events.len()));
        if self.capacity != 0 && self.len() > self.capacity {
            self.first += 1;
            self.dropped += 1;
            tm::SIM_TRACE_DROPPED.incr();
            if self.first >= self.capacity {
                self.compact();
            }
        }
        if ecl_telemetry::enabled() {
            tm::SIM_TRACE_INSTANTS.raw_add(1);
            tm::SIM_TRACE_OCCUPANCY.raw_record(self.len() as u64);
        }
    }

    /// Drop the evicted prefix: move the retained window (and any open
    /// instant's events) to the front of both buffers.
    fn compact(&mut self) {
        let base = self.index[self.first - 1].1;
        self.events.drain(..base);
        self.index.drain(..self.first);
        for (_, end) in &mut self.index {
            *end -= base;
        }
        self.first = 0;
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord<'_>> {
        (self.first..self.index.len()).map(|i| {
            let (instant, end) = self.index[i];
            let start = if i == 0 { 0 } else { self.index[i - 1].1 };
            TraceRecord {
                instant,
                events: &self.events[start..end],
            }
        })
    }

    /// Number of retained instants.
    pub fn len(&self) -> usize {
        self.index.len() - self.first
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the retained window as a VCD (Value Change Dump) text.
    ///
    /// Pure signals become 1-bit pulse wires (`1x` at the instant of
    /// occurrence, `0x` at the next dumped instant); valued signals
    /// become 32-bit integer vectors (`b… x`, set to `bx` when the
    /// signal goes absent). Output is fully deterministic: signals are
    /// sorted by name and identifier codes are assigned in that order.
    pub fn to_vcd(&self, title: &str) -> String {
        // Signal inventory over the retained window: name → valued?
        let mut sigs: BTreeMap<&str, bool> = BTreeMap::new();
        for r in self.records() {
            for e in r.events {
                let v = sigs.entry(self.table.name(e.sig)).or_insert(false);
                *v |= e.value.is_some();
            }
        }
        let names: Vec<&str> = sigs.keys().copied().collect();
        let ids: Vec<String> = (0..names.len()).map(vcd_id).collect();
        let mut out = String::new();
        let _ = writeln!(out, "$comment {title} $end");
        let _ = writeln!(out, "$timescale 1 us $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize_word(title));
        for (name, id) in names.iter().zip(&ids) {
            let valued = sigs[name];
            let _ = writeln!(
                out,
                "$var {} {} {id} {} $end",
                if valued { "integer" } else { "wire" },
                if valued { 32 } else { 1 },
                sanitize_word(name)
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        // Per dumped instant: presence/value per signal, with explicit
        // falling edges for signals that were present last time.
        let mut prev_present: Vec<bool> = vec![false; names.len()];
        for r in self.records() {
            let mut lines: Vec<String> = Vec::new();
            let mut present = vec![false; names.len()];
            for (i, name) in names.iter().enumerate() {
                let ev = r.events.iter().find(|e| self.table.name(e.sig) == *name);
                match ev {
                    Some(e) => {
                        present[i] = true;
                        if sigs[name] {
                            lines.push(format!("b{:b} {}", e.value.unwrap_or(0), ids[i]));
                        } else {
                            lines.push(format!("1{}", ids[i]));
                        }
                    }
                    None if prev_present[i] => {
                        if sigs[name] {
                            lines.push(format!("bx {}", ids[i]));
                        } else {
                            lines.push(format!("0{}", ids[i]));
                        }
                    }
                    None => {}
                }
            }
            if !lines.is_empty() {
                let _ = writeln!(out, "#{}", r.instant);
                for l in lines {
                    let _ = writeln!(out, "{l}");
                }
            }
            prev_present = present;
        }
        out
    }
}

/// The recording front-end shared by both runners: an optional
/// [`Trace`] plus the last value written per valued input (indexed by
/// [`SigId`]), so stimulus records carry their values. Every recording
/// method is a no-op while recording is disabled.
#[derive(Debug, Default)]
pub struct Recorder {
    trace: Option<Trace>,
    table: Arc<SigTable>,
    last_inputs: Vec<Option<i64>>,
}

impl Clone for Recorder {
    fn clone(&self) -> Recorder {
        Recorder {
            trace: self.trace.clone(),
            table: Arc::clone(&self.table),
            last_inputs: self.last_inputs.clone(),
        }
    }

    /// Copies into this recorder's own buffers (see
    /// [`Trace::clone_from`](Clone::clone_from)).
    fn clone_from(&mut self, source: &Recorder) {
        self.trace.clone_from(&source.trace);
        if !Arc::ptr_eq(&self.table, &source.table) {
            self.table = Arc::clone(&source.table);
        }
        self.last_inputs.clone_from(&source.last_inputs);
    }
}

impl Recorder {
    /// A recorder whose traces resolve ids against `table`.
    pub fn new(table: Arc<SigTable>) -> Recorder {
        let n = table.len();
        Recorder {
            trace: None,
            table,
            last_inputs: vec![None; n],
        }
    }

    /// Start recording, retaining the last `capacity` instants
    /// (0 = unbounded).
    pub fn enable(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_table(capacity, Arc::clone(&self.table)));
    }

    /// Is recording enabled?
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace recorded so far, if enabled.
    pub fn current(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Detach and return the trace (recording stops).
    pub fn take(&mut self) -> Option<Trace> {
        self.trace.take().map(|mut t| {
            t.end_instant();
            t
        })
    }

    /// Remember the value written to a valued input (recorded with the
    /// input's next stimulus event).
    pub fn note_input(&mut self, sig: SigId, v: i64) {
        if self.last_inputs.len() <= sig.bit() {
            self.last_inputs.resize(sig.bit() + 1, None);
        }
        self.last_inputs[sig.bit()] = Some(v);
    }

    /// Open the record for `instant` and log the external stimuli (a
    /// presence set of interned ids), in id order.
    pub fn begin(&mut self, instant: u64, stimuli: &BitSet) {
        if let Some(tr) = &mut self.trace {
            tr.begin_instant(instant);
            for s in stimuli.iter() {
                let v = self.last_inputs.get(s).copied().flatten();
                tr.record_id(SigId(s as u32), v, true);
            }
        }
    }

    /// Log one design emission into the open record.
    pub fn emit(&mut self, sig: SigId, value: Option<i64>) {
        if let Some(tr) = &mut self.trace {
            tr.record_id(sig, value, false);
        }
    }

    /// Close the instant's record.
    pub fn end(&mut self) {
        if let Some(tr) = &mut self.trace {
            tr.end_instant();
        }
    }
}

/// VCD identifier code for signal index `i` (printable ASCII 33–126,
/// multi-character beyond 94 signals).
fn vcd_id(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

/// VCD identifiers may not contain whitespace; mangled ECL names
/// (`top::x`, `a#1`) are otherwise legal and kept readable.
fn sanitize_word(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(t: &mut Trace, instant: u64, names: &[&str]) {
        t.begin_instant(instant);
        for n in names {
            t.record(n, None, false);
        }
        t.end_instant();
    }

    #[test]
    fn ring_evicts_oldest_instants() {
        let mut t = Trace::new(2);
        pulse(&mut t, 0, &["a"]);
        pulse(&mut t, 1, &["b"]);
        pulse(&mut t, 2, &["c"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 1);
        let firsts: Vec<u64> = t.records().map(|r| r.instant).collect();
        assert_eq!(firsts, vec![1, 2]);
    }

    #[test]
    fn ring_window_survives_compaction_and_clones() {
        // Instants of 0–3 events, against a model that keeps every
        // instant: after each close, and in a clone taken then, the
        // retained records are the model's last `cap`.
        for cap in [1, 2, 3, 5] {
            let mut t = Trace::new(cap);
            let mut model: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
            for i in 0..40u64 {
                t.begin_instant(i);
                let names = ["a", "b", "c"];
                for n in &names[..(i % 4) as usize] {
                    t.record(n, Some(i as i64), false);
                }
                let open: Vec<TraceEvent> = t.events[t.index.last().map_or(0, |l| l.1)..].to_vec();
                t.end_instant();
                model.push((i, open));
                let want = &model[model.len().saturating_sub(cap)..];
                for tr in [&t, &t.clone()] {
                    let got: Vec<(u64, Vec<TraceEvent>)> = tr
                        .records()
                        .map(|r| (r.instant, r.events.to_vec()))
                        .collect();
                    assert_eq!(got, want, "cap {cap} after instant {i}");
                    assert_eq!(tr.dropped, (model.len() - want.len()) as u64);
                }
                assert!(t.index.len() <= 2 * cap, "the evicted prefix is compacted");
            }
        }
    }

    #[test]
    fn unbounded_capacity_keeps_everything() {
        let mut t = Trace::new(0);
        for i in 0..100 {
            pulse(&mut t, i, &["x"]);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn present_dedupes_names() {
        let mut t = Trace::new(0);
        t.begin_instant(0);
        t.record("a", None, true);
        t.record("a", None, false);
        t.record("b", Some(7), false);
        t.end_instant();
        let recs: Vec<TraceRecord> = t.records().collect();
        let names: Vec<&str> = recs[0]
            .present_ids()
            .into_iter()
            .map(|id| t.table().name(id))
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn record_by_name_interns_into_the_trace_table() {
        let mut t = Trace::new(0);
        t.begin_instant(0);
        t.record("x", None, true);
        t.record("x", Some(2), false);
        t.end_instant();
        assert_eq!(t.table().len(), 1);
        let rec = t.records().next().unwrap();
        assert_eq!(rec.events[0].sig, rec.events[1].sig);
    }

    #[test]
    fn vcd_is_deterministic_and_has_falling_edges() {
        let build = || {
            let mut t = Trace::new(0);
            t.begin_instant(0);
            t.record("tick", None, true);
            t.record("val", Some(5), false);
            t.end_instant();
            pulse(&mut t, 1, &[]);
            pulse(&mut t, 2, &["tick"]);
            t
        };
        let v1 = build().to_vcd("demo");
        let v2 = build().to_vcd("demo");
        assert_eq!(v1, v2);
        assert!(v1.contains("$var wire 1 ! tick $end"), "{v1}");
        assert!(v1.contains("$var integer 32 \" val $end"), "{v1}");
        assert!(v1.contains("b101 \""), "{v1}");
        // Falling edge at instant 1.
        assert!(v1.contains("#1\n0!\nbx \""), "{v1}");
    }

    #[test]
    fn recorder_carries_input_values_by_id() {
        let mut table = SigTable::new();
        let x = table.intern("x");
        let mut rec = Recorder::new(Arc::new(table));
        rec.enable(0);
        rec.note_input(x, 42);
        let stim: BitSet = [x.bit()].into_iter().collect();
        rec.begin(0, &stim);
        rec.end();
        let tr = rec.take().unwrap();
        let r = tr.records().next().unwrap();
        assert_eq!(r.events[0].sig, x);
        assert_eq!(r.events[0].value, Some(42));
        assert!(r.events[0].external);
    }

    #[test]
    fn vcd_id_codes_are_unique() {
        let ids: std::collections::HashSet<String> = (0..500).map(vcd_id).collect();
        assert_eq!(ids.len(), 500);
    }
}
