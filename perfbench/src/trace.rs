//! The in-memory span recorder behind the per-layer ledger.
//!
//! The benchmark records a span around every call it makes into the
//! library crates. Spans stay in memory until the run ends; nothing is
//! written while a pass is timed. A span's **self time** is its duration
//! minus the part of its interval that its child spans cover, so the self
//! times of a tree add up to the root's duration exactly.
//!
//! Some layers only report aggregate durations (the `*_ns` histograms of a
//! `prem_obs` snapshot). Those become *aggregate children*: laid end to end
//! from the parent's start, which is exact for self-time arithmetic as long
//! as the aggregated parts are disjoint in time — true on the one-worker
//! pool the benchmark runs.
//!
//! Spans are either **layers** (their self time is work of a named layer)
//! or **containers** (a pass, or a call whose inside is only partly
//! metered). The ledger's unattributed time is the self time of every
//! container: wall time that no named layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

/// What a span's self time counts as in the ledger.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Work of the named layer.
    Layer,
    /// Unattributed remainder once the children are subtracted.
    Container,
}

/// One recorded span, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub kind: Kind,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// End of the last aggregate child placed inside this span.
    cursor_ns: u64,
}

/// A span recorder. When disabled every method is a no-op, so the untraced
/// passes run the same code path without recording anything.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str, kind: Kind) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now_ns();
        Some(self.push(name, kind, self.open.last().copied(), start, start))
    }

    /// Closes the span `enter` returned (a no-op when disabled).
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, kind);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches an aggregate child of `dur_ns` to the closed span `parent`,
    /// placed right after the parent's previous aggregate child.
    pub fn aggregate(
        &mut self,
        parent: Option<usize>,
        name: &str,
        kind: Kind,
        dur_ns: u64,
    ) -> Option<usize> {
        let parent = parent?;
        let start = self.spans[parent].cursor_ns;
        let end = start.saturating_add(dur_ns);
        self.spans[parent].cursor_ns = end;
        let id = self.push(name, kind, Some(parent), start, end);
        // An aggregate child is closed on creation.
        self.open.pop();
        Some(id)
    }

    fn push(
        &mut self,
        name: &str,
        kind: Kind,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(SpanRec {
            name: name.to_string(),
            kind,
            parent,
            start_ns: start,
            end_ns: end,
            cursor_ns: start,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Trace::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                dur.saturating_sub(covered(s.start_ns, s.end_ns, kids))
            })
            .collect()
    }

    /// Summed self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name.clone()).or_insert(0) += t;
        }
        out
    }

    /// Summed duration per span name.
    pub fn total_by_name(&self) -> BTreeMap<String, (u64, usize)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.clone()).or_insert((0, 0));
            e.0 += s.end_ns.saturating_sub(s.start_ns);
            e.1 += 1;
        }
        out
    }

    /// Self time of every container span: the ledger's unattributed time.
    pub fn unattributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.kind == Kind::Container)
            .map(|(_, t)| t)
            .sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree with known timestamps (ns):
    ///
    /// ```text
    /// pass      [0, 100)   container
    ///   a       [10, 40)   layer, children b [15, 25) and c [20, 30)
    ///   d       [50, 90)   container, aggregate children 5 + 10
    /// ```
    fn synthetic() -> Trace {
        let mut t = Trace::new(true);
        let mut put = |name: &str, kind, parent, s, e| {
            let id = t.push(name, kind, parent, s, e);
            t.open.pop();
            id
        };
        let pass = put("pass", Kind::Container, None, 0, 100);
        let a = put("a", Kind::Layer, Some(pass), 10, 40);
        put("b", Kind::Layer, Some(a), 15, 25);
        put("c", Kind::Layer, Some(a), 20, 30);
        let d = put("d", Kind::Container, Some(pass), 50, 90);
        t.aggregate(Some(d), "e", Kind::Layer, 5);
        t.aggregate(Some(d), "f", Kind::Layer, 10);
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = synthetic();
        let by = t.self_by_name();
        // pass: 100 - (a 30 + d 40) = 30.
        assert_eq!(by["pass"], 30);
        // a: 30 - |[15,25) ∪ [20,30)| = 30 - 15 = 15 (overlap counted once).
        assert_eq!(by["a"], 15);
        assert_eq!((by["b"], by["c"]), (10, 10));
        // d: 40 - (5 + 10) = 25.
        assert_eq!(by["d"], 25);
        assert_eq!((by["e"], by["f"]), (5, 10));
        // Aggregate children sit end to end from the parent's start.
        let f = &t.spans()[6];
        assert_eq!((f.start_ns, f.end_ns), (55, 65));
    }

    #[test]
    fn self_times_add_up_to_the_root_and_containers_are_unattributed() {
        let t = synthetic();
        let total: u64 = t.self_times().iter().sum();
        // b and c overlap by 5 ns, so the leaves over-cover by that much;
        // everything else partitions the root's 100 ns exactly.
        assert_eq!(total, 100 + 5);
        assert_eq!(t.unattributed_ns(), 30 + 25);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        assert_eq!(covered(10, 20, vec![(0, 12), (18, 30)]), 4);
        assert_eq!(covered(10, 20, vec![(0, 5)]), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.enter("x", Kind::Layer);
        assert!(id.is_none());
        t.exit(id);
        assert_eq!(t.span("y", Kind::Layer, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn live_spans_nest_under_the_innermost_open_span() {
        let mut t = Trace::new(true);
        let outer = t.enter("outer", Kind::Container);
        t.span("inner", Kind::Layer, || std::hint::black_box(1));
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, outer);
        let [o, i] = [&t.spans()[0], &t.spans()[1]];
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
    }
}
