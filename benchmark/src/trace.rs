//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every span carries `name, start_ns, end_ns, parent, op_id`; spans of one op
//! share `op_id`. Spans live in memory (one buffer per recording thread,
//! merged with [`Tracer::absorb`]) and are written out once, at exit. A span's
//! self time is its duration minus the part its children cover. With tracing
//! off every call is a branch on a bool, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// `parent` of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. a `Layer::layer_type()` tag or `"serve.send"`.
    pub name: &'static str,
    /// Which side of the call, e.g. `"fwd"` / `"bwd"`; empty when not needed.
    pub phase: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// The op this span belongs to.
    pub op_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, total and self time of all spans sharing a name and phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// An in-memory span buffer.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { enabled: false, epoch: Instant::now(), spans: Vec::new() }
    }

    /// A recording tracer whose timestamps count from `epoch`. Threads of one
    /// run share the epoch so their buffers merge onto one time line.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer { enabled: true, epoch, spans: Vec::with_capacity(1 << 16) }
    }

    /// A second buffer with the same switch and epoch, for another thread.
    pub fn sibling(&self) -> Tracer {
        if self.enabled {
            Tracer::on(self.epoch)
        } else {
            Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        phase: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns_at(Instant::now());
        Some(self.push(name, phase, now, now, parent, op_id))
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns_at(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a span whose endpoints were measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        phase: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (s, e) = (self.ns_at(start), self.ns_at(end));
        Some(self.push(name, phase, s, e, parent, op_id))
    }

    fn push(
        &mut self,
        name: &'static str,
        phase: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { name, phase, start_ns, end_ns, parent: parent.unwrap_or(NO_PARENT), op_id });
        id
    }

    /// Merge another thread's buffer, keeping its parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of the intervals
    /// its direct children cover (clipped to the span itself).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(ks, ke) in kids.iter() {
                    let (ks, ke) = (ks.max(cursor), ke.min(s.end_ns));
                    if ke > ks {
                        covered += ke - ks;
                        cursor = ke;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per `(name, phase)`.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), NameTotals> {
        let mut out: BTreeMap<(&'static str, &'static str), NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry((s.name, s.phase)).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// For every op that has at least one matching span, the summed duration
    /// of its matching spans in milliseconds (in `op_id` order).
    pub fn per_op_ms(&self, matches: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| matches(s)) {
            *by_op.entry(s.op_id).or_default() += s.duration_ns();
        }
        by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Write the header, the per-name totals and every span as one JSON file.
    pub fn write_json(&self, path: &std::path::Path, header_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"header\": {header_json},")?;
        writeln!(w, "\"totals\": [")?;
        let totals = self.totals();
        for (i, ((name, phase), t)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                w,
                "  {{\"name\": \"{}\", \"count\": {}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}{sep}",
                full_name(name, phase),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )?;
        }
        writeln!(w, "],")?;
        writeln!(w, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{sep}",
                full_name(s.name, s.phase),
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

fn full_name(name: &str, phase: &str) -> String {
    if phase.is_empty() {
        name.to_string()
    } else {
        format!("{name}.{phase}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<SpanId>, u64)]) -> Tracer {
        let mut t = Tracer::on(Instant::now());
        for &(name, s, e, parent, op) in spans {
            t.push(name, "", s, e, parent, op);
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // op [0,100] with children [10,30] and [50,90]; the second child has a
        // grandchild [60,70] that must not be subtracted from the op twice.
        let t = tracer_with(&[
            ("op", 0, 100, None, 1),
            ("a", 10, 30, Some(0), 1),
            ("b", 50, 90, Some(0), 1),
            ("c", 60, 70, Some(2), 1),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 20, 30, 10]);
        let totals = t.totals();
        assert_eq!(totals[&("op", "")], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(totals[&("b", "")].self_ns, 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children [10,60] and [40,80] overlap; [90,130] overhangs the parent.
        let t = tracer_with(&[
            ("op", 0, 100, None, 1),
            ("a", 10, 60, Some(0), 1),
            ("b", 40, 80, Some(0), 1),
            ("c", 90, 130, Some(0), 1),
        ]);
        // Covered: [10,80] = 70 plus [90,100] = 10.
        assert_eq!(t.self_times_ns()[0], 20);
    }

    #[test]
    fn absorb_remaps_parents_and_per_op_sums_group_by_op() {
        let mut main = tracer_with(&[("op", 0, 10, None, 1), ("x", 2, 4, Some(0), 1)]);
        let other =
            tracer_with(&[("op", 20, 40, None, 2), ("x", 22, 25, Some(0), 2), ("x", 30, 36, Some(0), 2)]);
        main.absorb(other);
        assert_eq!(main.spans()[3].parent, 2);
        assert_eq!(main.spans()[1].parent, 0);
        assert_eq!(main.self_times_ns()[2], 20 - 3 - 6);
        let per_op = main.per_op_ms(|s| s.name == "x");
        assert_eq!(per_op, vec![2.0 / 1e6, 9.0 / 1e6]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("op", "", None, 0);
        t.close(id);
        assert!(t.record("x", "", Instant::now(), Instant::now(), None, 0).is_none());
        assert!(id.is_none() && t.spans().is_empty() && !t.enabled());
    }
}
